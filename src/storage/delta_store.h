#ifndef OLTAP_STORAGE_DELTA_STORE_H_
#define OLTAP_STORAGE_DELTA_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/types.h"
#include "storage/row.h"

namespace oltap {

// Write-optimized, row-wise delta of a columnar table: the "differential
// file" [29,16] that every surveyed column store pairs with its read-
// optimized main (HANA delta, BLU ingest buffers, MemSQL row store feeding
// the column store). Committed inserts append here with their commit
// timestamp; deletes stamp a delete timestamp; the merge process folds the
// delta into a fresh main fragment.
//
// Thread safety: appends/deletes take the writer lock; readers take the
// shared lock per call. Deltas are kept small by merging, so lock
// granularity is not the bottleneck (and the E3 benchmark measures exactly
// this delta-size effect).
class DeltaStore {
 public:
  DeltaStore() = default;

  DeltaStore(const DeltaStore&) = delete;
  DeltaStore& operator=(const DeltaStore&) = delete;

  // Appends a committed row; returns its delta index.
  uint32_t Append(Row row, Timestamp commit_ts);

  // Stamps delta row `idx` deleted at `ts`. Idempotent-safe: keeps the
  // earliest delete.
  void MarkDeleted(uint32_t idx, Timestamp ts);

  // Number of rows ever appended (including deleted ones).
  size_t size() const;

  // True if `idx` is visible at `read_ts` (inserted at or before, not yet
  // deleted).
  bool VisibleAt(uint32_t idx, Timestamp read_ts) const;

  // Copies row `idx` into *out if visible at read_ts; returns visibility.
  bool GetIfVisible(uint32_t idx, Timestamp read_ts, Row* out) const;

  // Invokes fn(row) for every row visible at read_ts, in insertion order.
  // The row reference is only valid during the callback.
  void ForEachVisible(Timestamp read_ts,
                      const std::function<void(const Row&)>& fn) const;

  // Merge support: snapshot of per-row timestamps (index-aligned).
  void SnapshotTimestamps(std::vector<Timestamp>* insert_ts,
                          std::vector<Timestamp>* delete_ts) const;
  // Copies row `idx` regardless of visibility (merge reads everything).
  Row GetRaw(uint32_t idx) const;

  size_t MemoryBytes() const;

  // Wall-clock micros of the first append into this (empty-at-the-time)
  // store, or 0 if nothing was ever appended. Deltas are replaced wholesale
  // at merge, so this is exactly the age of the oldest unmerged row — the
  // freshness lag an OLAP snapshot pays relative to the merged main.
  int64_t OldestAppendMicros() const;

 private:
  mutable std::shared_mutex mu_;
  std::deque<Row> rows_;
  std::deque<Timestamp> insert_ts_;
  std::deque<Timestamp> delete_ts_;  // kMaxTimestamp while live
  int64_t first_append_us_ = 0;
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_DELTA_STORE_H_
