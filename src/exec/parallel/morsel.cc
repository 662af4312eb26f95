#include "exec/parallel/morsel.h"

#include <utility>

#include "common/logging.h"

namespace oltap {

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
