#ifndef OLTAP_STORAGE_TABLE_H_
#define OLTAP_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "storage/change_log.h"
#include "storage/column_store.h"
#include "storage/row.h"
#include "storage/row_store.h"
#include "storage/schema.h"

namespace oltap {

// Physical organization of a table — the central design axis of the
// tutorial's survey ("row-based, column-oriented, or hybrid").
enum class TableFormat : uint8_t {
  kRow,      // skip-list row store only (pure OLTP engine)
  kColumn,   // delta + columnar main only (HANA/BLU-style single store)
  kDual,     // both mirrors, transactionally consistent (Oracle DBIM)
};

const char* TableFormatToString(TableFormat f);

// A table is one or two mirrors of the same rows: a row mirror (skip-list
// RowTable, OLTP point access), a columnar mirror (delta + main
// ColumnTable, analytic scans), or both (kDual, Oracle Database In-Memory
// [22] / fractured mirrors [33]). The format is which mirrors exist. Every
// committed write applies to each mirror at the same commit timestamp, so
// the two are transactionally consistent at every read timestamp. Point
// reads use the row mirror when there is one; scans use the column mirror
// when there is one.
//
// All mutating calls are *committed* writes stamped with a commit
// timestamp; the transaction layer (txn/) buffers uncommitted changes and
// drives these at commit.
class Table {
 public:
  // `logged` false makes a derived table (a materialized view's backing
  // table): its writes stay out of the WAL, because recovery rebuilds it
  // from the tables it derives from.
  Table(std::string name, Schema schema, TableFormat format,
        bool logged = true);

  const std::string& name() const { return name_; }
  bool logged() const { return logged_; }
  const Schema& schema() const { return schema_; }
  TableFormat format() const {
    if (row_ == nullptr) return TableFormat::kColumn;
    return column_ == nullptr ? TableFormat::kRow : TableFormat::kDual;
  }

  Status InsertCommitted(const Row& row, Timestamp ts);
  Status DeleteCommitted(std::string_view key, Timestamp ts);
  Status UpdateCommitted(std::string_view key, const Row& new_row,
                         Timestamp ts);

  bool Lookup(std::string_view key, Timestamp read_ts, Row* out) const;
  Timestamp LastWriteTs(std::string_view key) const;

  // Row-wise scan of all rows visible at read_ts (any format). Reads the
  // column mirror's snapshot walk when there is one, reconstructing
  // tuples; the columnar execution paths in exec/ use the walk's column
  // form instead.
  void ScanVisible(Timestamp read_ts,
                   const std::function<void(const Row&)>& fn) const;

  // Ordered range scan over the row mirror (kRow/kDual): up to `limit`
  // visible rows with key >= start_key, in key order. Falls back to a
  // filtered full scan for kColumn (which has no ordered access path —
  // exactly the asymmetry experiment E4 measures). Returns rows visited.
  size_t ScanRange(std::string_view start_key, size_t limit,
                   Timestamp read_ts,
                   const std::function<void(const Row&)>& fn) const;

  // Columnar snapshot for batch scans; nullopt for kRow tables.
  std::optional<ColumnTable::Snapshot> GetColumnSnapshot(
      Timestamp read_ts) const;

  // True when the format has a delta/main lifecycle to merge.
  bool Mergeable() const { return column_ != nullptr; }
  // Folds the columnar delta into the main; no-op (returns 0) for kRow.
  size_t MergeDelta(Timestamp merge_ts, Timestamp gc_horizon);

  // Number of rows visible at read_ts. O(n) over delta + deletes; cheap
  // enough for planning heuristics and tests.
  size_t CountVisible(Timestamp read_ts) const;

  // O(1) physical row-count estimate for the planner: row-mirror key count
  // when one exists, main+delta size otherwise (counts not-yet-GCed
  // deletes, which is acceptable for costing).
  size_t ApproxRowCount() const;

  // Committed modifications (inserts + updates + deletes) since creation.
  // ANALYZE snapshots this counter; the delta against the live value is
  // the staleness signal SHOW STATS reports per table.
  uint64_t mod_count() const {
    return mod_count_.load(std::memory_order_relaxed);
  }

  // Fast bulk ingest into an empty column mirror's main fragment (and, for
  // kDual, the row mirror).
  // Bypasses the change log: views over a bulk-loaded table must be
  // REFRESHed (the view subsystem does this on creation anyway).
  Status BulkLoadToMain(const std::vector<Row>& rows, Timestamp ts);

  // Activates the logical change log (idempotent) and returns it. Called
  // once per subscribing view; committed writes start appending insert/
  // delete entries from that point on.
  ChangeLog* EnsureChangeLog();
  // Null until EnsureChangeLog — one relaxed atomic load on the write
  // path when no view subscribes.
  ChangeLog* change_log() const {
    return change_log_ptr_.load(std::memory_order_acquire);
  }

  // The mirrors, for specialized paths; null when the format lacks one.
  RowTable* row_table() { return row_.get(); }
  const RowTable* row_table() const { return row_.get(); }
  ColumnTable* column_table() { return column_.get(); }
  const ColumnTable* column_table() const { return column_.get(); }

 private:
  std::string name_;
  Schema schema_;
  bool logged_;

  std::unique_ptr<RowTable> row_;        // kRow, kDual
  std::unique_ptr<ColumnTable> column_;  // kColumn, kDual

  std::atomic<uint64_t> mod_count_{0};

  std::mutex change_log_init_mu_;
  std::unique_ptr<ChangeLog> change_log_holder_;
  std::atomic<ChangeLog*> change_log_ptr_{nullptr};
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_TABLE_H_
