#ifndef OLTAP_STORAGE_DELTA_STORE_H_
#define OLTAP_STORAGE_DELTA_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/types.h"
#include "storage/bitpack.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace oltap {

class ColumnVector;

// Write-optimized, columnar delta of a columnar table: the "differential
// file" [29,16] that every surveyed column store pairs with its read-
// optimized main (HANA's L1/L2 delta, BLU ingest buffers, MemSQL's row
// store feeding the column store). Committed inserts append here with
// their commit timestamp; deletes stamp a delete timestamp; the merge
// process folds the delta into a fresh main fragment.
//
// Layout: append-only chunks of kChunkRows rows. A chunk holds one typed
// cell array per column (int64, double or string cells plus a null flag
// per cell), the rows' insert timestamps and their delete timestamps. A
// chunk never moves once allocated and a row's cells are never rewritten;
// only its delete timestamp changes. The delta has no dictionary, bit
// packing or zone map: scans evaluate predicates over the raw typed cells.
//
// Thread safety: appends serialize on the writer lock and publish the row
// count with a release store. A reader captures the chunk list and the
// count (acquire) under the shared lock, then reads every row below that
// count without any lock: those cells are immutable and delete timestamps
// are atomics. So a scan never blocks an append for longer than the
// capture.
class DeltaStore {
 public:
  static constexpr size_t kChunkRows = kDefaultBatchRows;

  // One column's cells within a chunk.
  class Column {
   public:
    explicit Column(ValueType type);  // sized to kChunkRows cells

    ValueType type() const { return type_; }
    bool IsNull(size_t i) const { return null_[i] != 0; }
    int64_t GetInt64(size_t i) const { return i64_[i]; }
    double GetDouble(size_t i) const { return f64_[i]; }
    const std::string& GetString(size_t i) const { return str_[i]; }
    Value GetValue(size_t i) const;

    // Clears each set bit i of `sel` whose cell fails `cell <op> constant`.
    // NULL cells and a NULL constant never match; an int64 cell meets a
    // double constant as a double (Value::Compare's rules).
    void Filter(CompareOp op, const Value& constant, BitVector* sel) const;
    // Appends cells `rows` to `out`, a vector of this column's type.
    void Gather(const std::vector<uint32_t>& rows, ColumnVector* out) const;

   private:
    friend class DeltaStore;
    // Writes cell i; returns the string payload bytes it added.
    size_t Set(size_t i, const Value& v);

    ValueType type_;
    std::vector<uint8_t> null_;  // 1 = NULL
    std::vector<int64_t> i64_;
    std::vector<double> f64_;
    std::vector<std::string> str_;
  };

  class Chunk {
   public:
    const Column& column(size_t c) const { return columns_[c]; }
    Timestamp insert_ts(size_t i) const { return insert_ts_[i]; }
    Timestamp delete_ts(size_t i) const {
      return delete_ts_[i].load(std::memory_order_acquire);
    }
    bool VisibleAt(size_t i, Timestamp read_ts) const {
      return insert_ts_[i] <= read_ts && delete_ts(i) > read_ts;
    }
    // Sizes `out` to `rows` bits; bit i is set iff row i is visible at
    // read_ts (inserted at or before it, not deleted at or before it).
    void VisibleMask(size_t rows, Timestamp read_ts, BitVector* out) const;
    Row GetRow(size_t i) const;

   private:
    friend class DeltaStore;
    explicit Chunk(const std::vector<ValueType>& types);

    std::vector<Column> columns_;
    std::vector<Timestamp> insert_ts_;
    std::unique_ptr<std::atomic<Timestamp>[]> delete_ts_;  // max = live
  };

  // The first `rows` rows of a chunk, all published: what a reader
  // captured.
  struct ChunkRef {
    const Chunk* chunk = nullptr;
    size_t rows = 0;
  };

  explicit DeltaStore(const Schema& schema);

  DeltaStore(const DeltaStore&) = delete;
  DeltaStore& operator=(const DeltaStore&) = delete;

  // Appends a committed row; returns its delta index.
  uint32_t Append(const Row& row, Timestamp commit_ts);

  // Stamps delta row `idx` deleted at `ts`. Idempotent-safe: keeps the
  // earliest delete.
  void MarkDeleted(uint32_t idx, Timestamp ts);

  // Number of rows ever appended (including deleted ones).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // True if `idx` is visible at `read_ts` (inserted at or before, not yet
  // deleted).
  bool VisibleAt(uint32_t idx, Timestamp read_ts) const;

  // Rebuilds row `idx` into *out if visible at read_ts; returns
  // visibility.
  bool GetIfVisible(uint32_t idx, Timestamp read_ts, Row* out) const;

  // Appends one ChunkRef per chunk, in insertion order, covering the rows
  // published at the call. The refs stay valid while this store lives.
  void Capture(std::vector<ChunkRef>* out) const;

  // Allocated chunk arrays plus the string payload bytes.
  size_t MemoryBytes() const;

  // Wall-clock micros of the first append into this (empty-at-the-time)
  // store, or 0 if nothing was ever appended. Deltas are replaced wholesale
  // at merge, so this is exactly the age of the oldest unmerged row — the
  // freshness lag an OLAP snapshot pays relative to the merged main.
  int64_t OldestAppendMicros() const;

 private:
  // Requires mu_ held; idx < size().
  const Chunk& ChunkOf(uint32_t idx) const {
    return *chunks_[idx / kChunkRows];
  }

  const std::vector<ValueType> types_;
  mutable std::shared_mutex mu_;  // writers; guards chunks_ (the vector)
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::atomic<size_t> size_{0};
  size_t string_bytes_ = 0;
  int64_t first_append_us_ = 0;
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_DELTA_STORE_H_
