#ifndef OLTAP_STORAGE_COLUMN_STORE_H_
#define OLTAP_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/column_segment.h"
#include "storage/delta_store.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace oltap {

// An immutable columnar fragment (the read-optimized "main") plus its
// mutable positional delete side-structure (Héman et al.'s positional
// updates [14]: deletes against the main never rewrite segments, they stamp
// a rowid with the deleting commit timestamp).
//
// Rows additionally carry an insert timestamp (the DB2 BLU TSN / HANA CTS
// vector design) so that snapshots older than recently merged rows remain
// correct; `insert_ts` may be empty, meaning every row was created at
// build_ts. The common fast path (read_ts >= max_insert_ts) skips all
// per-row checks.
class MainFragment {
 public:
  MainFragment() = default;
  MainFragment(std::vector<ColumnSegment> columns, size_t num_rows,
               Timestamp build_ts, std::vector<Timestamp> insert_ts = {});

  MainFragment(const MainFragment&) = delete;
  MainFragment& operator=(const MainFragment&) = delete;

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnSegment& column(size_t i) const { return columns_[i]; }
  Timestamp build_ts() const { return build_ts_; }
  Timestamp max_insert_ts() const { return max_insert_ts_; }
  // Commit timestamp of the insert that created `rid`.
  Timestamp InsertTsOf(RowId rid) const {
    return insert_ts_.empty() ? build_ts_ : insert_ts_[rid];
  }

  // Stamps `rid` deleted at `ts` (keeps the earliest ts if racing).
  void MarkDeleted(RowId rid, Timestamp ts);

  bool VisibleAt(RowId rid, Timestamp read_ts) const;

  // Writes the visibility mask at read_ts: bit set = row visible. A mask
  // cached per fragment reflects a prefix of the delete log and serves
  // every read_ts at or above both the newest delete it reflects and
  // max_insert_ts(); a call copies it and applies only the log entries
  // appended since, advancing the cache when all of them are at or below
  // read_ts. An older read_ts rebuilds the mask from the log.
  void VisibleMask(Timestamp read_ts, BitVector* out) const;

  size_t num_deleted() const;

  // Reconstructs a full row (tuple reconstruction across segments).
  Row GetRow(RowId rid) const;

  // One MarkDeleted that set or lowered a row's delete timestamp.
  struct Delete {
    RowId rid = 0;
    Timestamp ts = 0;
  };
  // Merge support: copies the per-row delete timestamps (kMaxTimestamp =
  // live; left empty when no row was ever deleted) and returns the length
  // of the delete log they reflect.
  size_t SnapshotDeletes(std::vector<Timestamp>* delete_ts) const;
  // The delete-log entries from position `from` on, in append order.
  std::vector<Delete> DeletesSince(size_t from) const;

  size_t MemoryBytes() const;

 private:
  // The mask at read_ts from scratch. Requires delete_mu_ held.
  void BuildMask(Timestamp read_ts, BitVector* out) const;

  std::vector<ColumnSegment> columns_;
  size_t num_rows_ = 0;
  Timestamp build_ts_ = 0;
  Timestamp max_insert_ts_ = 0;
  std::vector<Timestamp> insert_ts_;  // empty = all rows at build_ts_

  mutable std::shared_mutex delete_mu_;
  std::vector<Timestamp> delete_ts_;  // per row; empty until a delete
  std::vector<Delete> delete_log_;    // append order
  size_t num_deleted_ = 0;

  // The cached mask: visibility at any read_ts >= max(cache_newest_ts_,
  // max_insert_ts_) given delete_log_[0, cache_applied_). Lock order:
  // cache_mu_, then delete_mu_.
  mutable std::mutex cache_mu_;
  mutable BitVector cache_mask_;
  mutable size_t cache_applied_ = 0;
  mutable Timestamp cache_newest_ts_ = 0;
};

// Columnar table with the delta/main lifecycle every surveyed column store
// uses (HANA, DB2 BLU, MemSQL, Kudu): committed writes land in the columnar
// DeltaStore; an explicit MergeDelta() folds delta + positional deletes
// into a fresh immutable main; scans read (main ∪ frozen-delta ∪ delta) at
// read_ts through a Snapshot that pins the structures via shared_ptr, so
// merges never invalidate running queries.
//
// Writes here are *committed* writes: the transaction layer buffers
// uncommitted changes in its write set and applies them at commit with the
// commit timestamp (write-write conflicts are detected against
// LastWriteTs). This is the standard collect-updates-in-a-writable-store
// design the tutorial describes for column stores.
class ColumnTable {
 public:
  explicit ColumnTable(Schema schema);

  const Schema& schema() const { return schema_; }

  // A consistent view of the table. Rows visible = main rows live at
  // read_ts, plus frozen-delta rows (merge in progress when taken), plus
  // delta rows, all filtered by [insert_ts, delete_ts).
  //
  // ScanVisible is the one walk of that set; every reader of a columnar
  // snapshot goes through it. Order: main rows by rowid, then frozen-delta
  // rows, then delta rows, each delta in insertion order.
  struct Snapshot {
    std::shared_ptr<const MainFragment> main;
    std::shared_ptr<const DeltaStore> frozen;  // null unless merging
    std::shared_ptr<const DeltaStore> delta;
    Timestamp read_ts = 0;

    // Rows ever appended to the frozen and live deltas, dead versions
    // included: what a columnar scan's chunk visibility pass visits.
    size_t delta_rows() const {
      return delta->size() + (frozen != nullptr ? frozen->size() : 0);
    }

    using RowFn = std::function<void(const Row&)>;
    // Row form: reconstructs every visible main row, then the delta rows.
    void ScanVisible(const RowFn& fn) const;
    // Column form, for callers that scan segment- and chunk-wise: writes
    // the main rows' visibility mask to `main_visible` and appends the
    // delta chunks in walk order, each cut at the rows published when it
    // was captured. A chunk's visible rows are its
    // DeltaStore::Chunk::VisibleMask at read_ts.
    void ScanVisible(BitVector* main_visible,
                     std::vector<DeltaStore::ChunkRef>* delta_chunks) const;
  };
  Snapshot GetSnapshot(Timestamp read_ts) const;

  // ---- Committed-write API (transaction layer / bulk load) ----

  // Fails with AlreadyExists if the primary key is live at `ts`.
  Status InsertCommitted(const Row& row, Timestamp ts);
  // Fails with NotFound if the key is not live.
  Status DeleteCommitted(std::string_view key, Timestamp ts);
  // Delete + insert of the new image under one key entry.
  Status UpdateCommitted(std::string_view key, const Row& new_row,
                         Timestamp ts);

  // Point read at read_ts through the key index (walks version history).
  bool Lookup(std::string_view key, Timestamp read_ts, Row* out) const;

  // Commit timestamp of the last write (insert/update/delete) to `key`;
  // 0 if never written. Used for first-committer-wins validation.
  Timestamp LastWriteTs(std::string_view key) const;

  // Loads `rows` directly into a fresh main fragment. Only valid while the
  // table is empty; the fast path for benchmark/bulk ingest.
  Status BulkLoadToMain(const std::vector<Row>& rows, Timestamp ts);

  // Folds delta + positional deletes into a new main fragment (merge.cc).
  // `gc_horizon` is the oldest read timestamp any current or future
  // snapshot may use (i.e. the transaction manager's oldest active
  // snapshot); rows deleted before it are physically dropped. Returns the
  // number of live rows in the new main. Serialized internally; concurrent
  // reads and writes proceed throughout.
  size_t MergeDelta(Timestamp merge_ts, Timestamp gc_horizon);
  size_t MergeDelta(Timestamp merge_ts) {
    return MergeDelta(merge_ts, merge_ts);
  }

  size_t main_size() const;
  size_t delta_size() const;
  size_t num_merges() const {
    return num_merges_.load(std::memory_order_relaxed);
  }
  size_t MemoryBytes() const;

  // Age in micros (relative to `now_us`, same clock as SystemClock) of the
  // oldest unmerged delta row, across the live and frozen deltas; 0 when
  // the deltas are empty. This is the table's OLAP freshness lag.
  int64_t DeltaAgeMicros(int64_t now_us) const;

 private:
  friend class MergeJob;

  // Where a version of a key lives. `gen` disambiguates the two deltas that
  // can be alive during a merge: gen == delta_gen_ is the current delta,
  // gen == delta_gen_ - 1 is the frozen one.
  struct Location {
    bool in_delta = true;
    uint32_t gen = 0;
    uint32_t idx = 0;
  };
  struct KeyEntry {
    // Version locations, oldest→newest. Merge compacts this.
    std::vector<Location> versions;
    Timestamp last_write_ts = 0;
  };

  // Requires shared index lock held. Returns whether the newest version of
  // `e` is live (not deleted) as of `ts`, and its location.
  bool NewestLive(const KeyEntry& e, Timestamp ts, Location* loc) const;

  // Reads a row at `loc` if visible at read_ts (callers hold the index
  // lock so merge cannot republish concurrently).
  bool ReadAt(const Location& loc, Timestamp read_ts, Row* out) const;

  // Resolves the delta store for a delta location (current or frozen).
  const DeltaStore* DeltaFor(const Location& loc) const;
  DeltaStore* DeltaFor(const Location& loc);

  Schema schema_;
  bool keyed_ = false;

  mutable std::shared_mutex index_mu_;
  std::unordered_map<std::string, KeyEntry> key_index_;

  mutable std::mutex snap_mu_;  // guards the shared_ptrs below
  std::shared_ptr<MainFragment> main_;
  std::shared_ptr<DeltaStore> delta_;
  std::shared_ptr<DeltaStore> frozen_delta_;  // non-null during merge
  uint32_t delta_gen_ = 0;

  std::mutex merge_mu_;  // one merge at a time
  std::atomic<size_t> num_merges_{0};
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_COLUMN_STORE_H_
