#include "exec/parallel/morsel.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace oltap {

void RunOnWorkers(ThreadPool* pool, size_t dop,
                  const std::function<void(size_t)>& worker) {
  if (pool == nullptr || dop <= 1) {
    worker(0);
    return;
  }
  size_t helpers = dop - 1;
  // Completion is counted under a mutex, not an atomic: the waiter must not
  // observe the final count — and destroy this frame — while a finishing
  // helper still touches the captured state (same pattern as
  // ThreadPool::ParallelForChunked).
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

// ------------------------------------------------------------- SlotBuffer

void SlotBuffer::Reset(size_t num_slots) {
  slots_.clear();
  slots_.resize(num_slots);
  slot_ = 0;
  idx_ = 0;
}

void SlotBuffer::Append(size_t slot, Batch&& batch) {
  OLTAP_CHECK(slot < slots_.size());
  slots_[slot].push_back(std::move(batch));
}

bool SlotBuffer::Next(Batch* out) {
  while (slot_ < slots_.size()) {
    if (idx_ < slots_[slot_].size()) {
      *out = std::move(slots_[slot_][idx_]);
      ++idx_;
      return true;
    }
    slots_[slot_].clear();
    ++slot_;
    idx_ = 0;
  }
  return false;
}

}  // namespace oltap
