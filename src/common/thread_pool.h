#ifndef OLTAP_COMMON_THREAD_POOL_H_
#define OLTAP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace oltap {

// Fixed-size worker pool used by parallel scans, the merge pipeline, and the
// workload manager. FIFO queue; tasks must not block indefinitely on other
// queued tasks (the scheduler layer handles priorities and admission above
// this).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` for execution. Never blocks.
  void Submit(std::function<void()> fn);

  // Enqueues and returns a future for the result.
  template <typename F>
  auto SubmitWithResult(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    Submit([task]() { (*task)(); });
    return fut;
  }

  // Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  size_t num_threads() const { return threads_.size(); }
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

// Runs worker(worker_index) on `dop` workers total: dop-1 pool tasks plus
// the calling thread (index 0), returning once all have finished. With a
// null pool or dop <= 1 the caller runs alone, so serial is DOP 1 of the
// same loop. Workers must not submit further pool work (callers run on
// scheduler or client threads, never on the pool itself, so draining
// cannot deadlock).
void RunOnWorkers(ThreadPool* pool, size_t dop,
                  const std::function<void(size_t)>& worker);

}  // namespace oltap

#endif  // OLTAP_COMMON_THREAD_POOL_H_
