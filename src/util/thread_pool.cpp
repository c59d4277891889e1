#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>

namespace pastis::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || size() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done_chunks{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto shared = std::make_shared<Shared>();

  // Chunk size keeps scheduling overhead low while letting slow iterations
  // be compensated by the rest of the pool.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (size() * 8));
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  auto run_chunks = [shared, n, chunk, n_chunks, &fn] {
    for (;;) {
      const std::size_t begin = shared->next.fetch_add(chunk);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(shared->error_mutex);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done_chunks.fetch_add(1) + 1 == n_chunks) {
        std::lock_guard lock(shared->done_mutex);
        shared->done_cv.notify_all();
      }
    }
  };

  // The calling thread participates; workers pick up the rest.
  const std::size_t helpers = std::min(size(), n_chunks);
  for (std::size_t i = 0; i + 1 < helpers; ++i) submit(run_chunks);
  run_chunks();

  {
    std::unique_lock lock(shared->done_mutex);
    shared->done_cv.wait(
        lock, [&] { return shared->done_chunks.load() >= n_chunks; });
  }
  if (shared->error) std::rethrow_exception(shared->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace pastis::util
