#ifndef FVAE_COMMON_THREAD_POOL_H_
#define FVAE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fvae {

/// Fixed-size worker pool with a shared FIFO queue.
///
/// Used by the training step (TrainFvae row-splits its GEMMs over one) and
/// by ParallelFor / ParallelForRange below. Tasks must not throw — library
/// code reports errors through Status and checks invariants with
/// FVAE_CHECK.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) FVAE_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished executing.
  void Wait() FVAE_EXCLUDES(mutex_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() FVAE_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_ FVAE_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  size_t in_flight_ FVAE_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ FVAE_GUARDED_BY(mutex_) = false;
};

/// Runs fn(lo, hi) over contiguous chunks that tile [begin, end), on
/// `pool`'s workers and on the calling thread, which keeps claiming chunks
/// until none are left. Chunk boundaries fall on begin + multiples of
/// `align`, so an `align`-sized block is never split between two calls of
/// fn. Returns once every chunk of *this* call has finished; tasks other
/// callers submitted to the same pool are not waited for, so concurrent
/// callers may share one pool. A null pool runs fn(begin, end) inline.
void ParallelForRange(ThreadPool* pool, size_t begin, size_t end,
                      size_t align,
                      const std::function<void(size_t, size_t)>& fn);

/// Runs fn(i) for i in [begin, end) across `pool` and the calling thread,
/// blocking until complete (ParallelForRange with align 1).
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

}  // namespace fvae

#endif  // FVAE_COMMON_THREAD_POOL_H_
