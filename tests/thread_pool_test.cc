#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace fvae {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, TasksSubmittedFromTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(1); });
  });
  // Wait may need two rounds since the inner task is submitted late.
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(pool, 0, 100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ParallelFor(pool, 5, 5, [&](size_t) { counter.fetch_add(1); });
  ParallelFor(pool, 7, 3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelForTest, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  ParallelFor(pool, 10, 20, [&](size_t i) { sum.fetch_add(long(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ParallelForTest, ConcurrentCallersWaitOnlyForTheirOwnWork) {
  // Caller A's iterations block until caller B's ParallelFor has returned.
  // B must finish on its own chunks (its thread runs them even while every
  // worker is stuck in A's); a pool-wide wait would hold B until A's
  // iterations time out.
  ThreadPool pool(2);
  std::atomic<bool> a_started{false}, b_done{false}, a_timed_out{false};
  std::atomic<int> a_count{0};
  std::thread a([&] {
    ParallelFor(pool, 0, 8, [&](size_t) {
      a_started.store(true);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!b_done.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          a_timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
      a_count.fetch_add(1);
    });
  });
  while (!a_started.load()) std::this_thread::yield();
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(pool, 0, 64, [&](size_t i) { hits[i].fetch_add(1); });
  b_done.store(true);
  a.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(a_timed_out.load());
  EXPECT_EQ(a_count.load(), 8);
}

TEST(ParallelForRangeTest, ChunksTileTheRangeOnAlignedBoundaries) {
  ThreadPool pool(3);
  for (size_t n : {size_t{1}, size_t{5}, size_t{63}, size_t{512}}) {
    const size_t begin = 10, end = begin + n;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<bool> misaligned{false};
    ParallelForRange(&pool, begin, end, 4, [&](size_t lo, size_t hi) {
      if ((lo - begin) % 4 != 0 || (hi != end && (hi - begin) % 4 != 0)) {
        misaligned.store(true);
      }
      for (size_t i = lo; i < hi; ++i) hits[i - begin].fetch_add(1);
    });
    EXPECT_FALSE(misaligned.load()) << "n=" << n;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
  }
}

TEST(ParallelForRangeTest, NullPoolRunsOneInlineCall) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelForRange(nullptr, 3, 9, 4, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 9u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace fvae
