// Fixed-size worker pool with a blocking parallel_for.
//
// This is the only source of real on-node concurrency in the code base. The
// simulated SPMD runtime (sim/runtime.hpp) executes per-rank lambdas on this
// pool, and leaf kernels (the two-phase SpGEMM's row ranges, Smith-Waterman
// batches) may call parallel_for again from inside those lambdas. Nesting
// is deadlock-free by construction: the calling thread participates and
// keeps claiming chunks until none remain, so completion never depends on a
// free worker; idle workers merely steal chunks when they exist.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pastis::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// iterations finish. Work is handed out in dynamically-sized chunks so
  /// heavily skewed iteration costs (e.g. per-rank alignment batches) are
  /// still balanced. Exceptions from iterations are rethrown (first one).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Enqueue a single fire-and-forget task. Used by the pre-blocking
  /// pipeline to run the next block's SpGEMM concurrently with alignment.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

  /// Process-wide pool sized to the machine; most callers use this.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// fn(i) for i in [0, n): on `pool` when there is one, inline in the
/// calling thread when it is null (the library's serial convention).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace pastis::util
