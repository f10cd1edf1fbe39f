#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace fvae {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  FVAE_CHECK(task != nullptr);
  {
    MutexLock lock(mutex_);
    FVAE_CHECK(!shutting_down_) << "Submit after shutdown";
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(mutex_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.Wait(mutex_);
      }
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

namespace {

/// State of one ParallelForRange call, co-owned by the caller and every
/// helper task it submitted: a helper that starts after all chunks are
/// claimed still reads `next`, possibly after the caller has returned.
struct ChunkedRun {
  size_t num_chunks = 0;
  std::atomic<size_t> next{0};
  Mutex mutex;
  CondVar all_done;
  size_t finished FVAE_GUARDED_BY(mutex) = 0;
};

}  // namespace

void ParallelForRange(ThreadPool* pool, size_t begin, size_t end,
                      size_t align,
                      const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  align = std::max<size_t>(1, align);
  const size_t blocks = (end - begin + align - 1) / align;
  if (pool == nullptr || blocks == 1) {
    fn(begin, end);
    return;
  }
  // A few chunks per runner, so one slow runner does not hold up the call.
  const size_t max_chunks = 4 * (pool->num_threads() + 1);
  const size_t chunk = align * ((blocks + max_chunks - 1) / max_chunks);
  auto run = std::make_shared<ChunkedRun>();
  run->num_chunks = (end - begin + chunk - 1) / chunk;
  // `fn` is only touched for a claimed chunk, and the caller returns only
  // after every claimed chunk has finished, so capturing it by reference
  // is safe even for helpers that start late.
  const auto work = [run, &fn, begin, end, chunk] {
    ChunkedRun& r = *run;
    for (;;) {
      const size_t c = r.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= r.num_chunks) return;
      const size_t lo = begin + c * chunk;
      fn(lo, std::min(end, lo + chunk));
      MutexLock lock(r.mutex);
      if (++r.finished == r.num_chunks) r.all_done.NotifyAll();
    }
  };
  const size_t helpers = std::min(pool->num_threads(), run->num_chunks - 1);
  for (size_t h = 0; h < helpers; ++h) pool->Submit(work);
  work();
  ChunkedRun& r = *run;
  MutexLock lock(r.mutex);
  while (r.finished != r.num_chunks) r.all_done.Wait(r.mutex);
}

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  ParallelForRange(&pool, begin, end, /*align=*/1,
                   [&fn](size_t lo, size_t hi) {
                     for (size_t i = lo; i < hi; ++i) fn(i);
                   });
}

}  // namespace fvae
