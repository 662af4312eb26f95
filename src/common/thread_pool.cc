#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace oltap {

ThreadPool::ThreadPool(size_t num_threads) {
  OLTAP_CHECK(num_threads > 0);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    OLTAP_CHECK(!shutdown_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t num_chunks = std::min(n, threads_.size());
  if (num_chunks <= 1) {
    fn(0, n);
    return;
  }
  // `done` is counted under `done_mu` (not an atomic): the waiter below
  // must not be able to observe the final count — and destroy this stack
  // frame — until the finishing worker has released the mutex and is done
  // touching the captured state.
  size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t begin = c * chunk;
    size_t end = std::min(n, begin + chunk);
    Submit([&, begin, end] {
      fn(begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (++done == num_chunks) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == num_chunks; });
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace oltap
