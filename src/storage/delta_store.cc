#include "storage/delta_store.h"

#include "common/clock.h"
#include "common/logging.h"

namespace oltap {

uint32_t DeltaStore::Append(Row row, Timestamp commit_ts) {
  std::unique_lock lock(mu_);
  if (rows_.empty()) first_append_us_ = SystemClock::Get()->NowMicros();
  rows_.push_back(std::move(row));
  insert_ts_.push_back(commit_ts);
  delete_ts_.push_back(kMaxTimestamp);
  return static_cast<uint32_t>(rows_.size() - 1);
}

void DeltaStore::MarkDeleted(uint32_t idx, Timestamp ts) {
  std::unique_lock lock(mu_);
  OLTAP_DCHECK(idx < rows_.size());
  if (ts < delete_ts_[idx]) delete_ts_[idx] = ts;
}

size_t DeltaStore::size() const {
  std::shared_lock lock(mu_);
  return rows_.size();
}

bool DeltaStore::VisibleAt(uint32_t idx, Timestamp read_ts) const {
  std::shared_lock lock(mu_);
  if (idx >= rows_.size()) return false;
  return insert_ts_[idx] <= read_ts && delete_ts_[idx] > read_ts;
}

bool DeltaStore::GetIfVisible(uint32_t idx, Timestamp read_ts,
                              Row* out) const {
  std::shared_lock lock(mu_);
  if (idx >= rows_.size()) return false;
  if (insert_ts_[idx] > read_ts || delete_ts_[idx] <= read_ts) return false;
  *out = rows_[idx];
  return true;
}

void DeltaStore::ForEachVisible(
    Timestamp read_ts, const std::function<void(const Row&)>& fn) const {
  std::shared_lock lock(mu_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (insert_ts_[i] <= read_ts && delete_ts_[i] > read_ts) fn(rows_[i]);
  }
}

void DeltaStore::SnapshotTimestamps(std::vector<Timestamp>* insert_ts,
                                    std::vector<Timestamp>* delete_ts) const {
  std::shared_lock lock(mu_);
  insert_ts->assign(insert_ts_.begin(), insert_ts_.end());
  delete_ts->assign(delete_ts_.begin(), delete_ts_.end());
}

Row DeltaStore::GetRaw(uint32_t idx) const {
  std::shared_lock lock(mu_);
  OLTAP_DCHECK(idx < rows_.size());
  return rows_[idx];
}

int64_t DeltaStore::OldestAppendMicros() const {
  std::shared_lock lock(mu_);
  return rows_.empty() ? 0 : first_append_us_;
}

size_t DeltaStore::MemoryBytes() const {
  std::shared_lock lock(mu_);
  size_t total = rows_.size() * (sizeof(Row) + 2 * sizeof(Timestamp));
  for (const Row& r : rows_) {
    total += r.capacity() * sizeof(Value);
  }
  return total;
}

}  // namespace oltap
