#include "common/thread_pool.h"

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

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void RunOnWorkers(ThreadPool* pool, size_t dop,
                  const std::function<void(size_t)>& worker) {
  if (pool == nullptr || dop <= 1) {
    worker(0);
    return;
  }
  size_t helpers = dop - 1;
  // Completion is counted under a mutex, not an atomic: the waiter must not
  // observe the final count — and destroy this frame — while a finishing
  // helper still touches the captured state.
  size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t w = 1; w <= helpers; ++w) {
    pool->Submit([&, w] {
      worker(w);
      std::lock_guard<std::mutex> lock(done_mu);
      if (++done == helpers) done_cv.notify_all();
    });
  }
  worker(0);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == helpers; });
}

}  // namespace oltap
