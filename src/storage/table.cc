#include "storage/table.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"

namespace oltap {

const char* TableFormatToString(TableFormat f) {
  switch (f) {
    case TableFormat::kRow:
      return "ROW";
    case TableFormat::kColumn:
      return "COLUMN";
    case TableFormat::kDual:
      return "DUAL";
  }
  return "?";
}

namespace {

// Applies a committed write to each mirror a table has. The row mirror goes
// first and its status is the result; the column mirror runs the same
// checks against the same state, so it must then succeed too.
template <typename Write>
Status ApplyToMirrors(RowTable* row, ColumnTable* column, const Write& write) {
  if (row == nullptr) return write(column);
  OLTAP_RETURN_NOT_OK(write(row));
  if (column != nullptr) {
    Status col = write(column);
    OLTAP_CHECK(col.ok()) << "dual-format divergence: " << col.ToString();
  }
  return Status::OK();
}

}  // namespace

Table::Table(std::string name, Schema schema, TableFormat format,
             bool logged)
    : name_(std::move(name)), schema_(std::move(schema)), logged_(logged) {
  if (format != TableFormat::kColumn) {
    row_ = std::make_unique<RowTable>(schema_);
  }
  if (format != TableFormat::kRow) {
    column_ = std::make_unique<ColumnTable>(schema_);
  }
}

Status Table::InsertCommitted(const Row& row, Timestamp ts) {
  Status s = ApplyToMirrors(row_.get(), column_.get(), [&](auto* mirror) {
    return mirror->InsertCommitted(row, ts);
  });
  if (s.ok()) {
    mod_count_.fetch_add(1, std::memory_order_relaxed);
    if (ChangeLog* log = change_log()) {
      log->Append({ChangeLog::Kind::kInsert, row, ts,
                   SystemClock::Get()->NowMicros()});
    }
  }
  return s;
}

Status Table::DeleteCommitted(std::string_view key, Timestamp ts) {
  // Pre-image for the change log, captured before the engine applies the
  // delete (the delta-aggregate paths need the deleted row's values).
  Row pre;
  bool have_pre = false;
  ChangeLog* log = change_log();
  if (log != nullptr) have_pre = Lookup(key, ts, &pre);
  Status s = ApplyToMirrors(row_.get(), column_.get(), [&](auto* mirror) {
    return mirror->DeleteCommitted(key, ts);
  });
  if (s.ok()) {
    mod_count_.fetch_add(1, std::memory_order_relaxed);
    if (log != nullptr && have_pre) {
      log->Append({ChangeLog::Kind::kDelete, std::move(pre), ts,
                   SystemClock::Get()->NowMicros()});
    }
  }
  return s;
}

Status Table::UpdateCommitted(std::string_view key, const Row& new_row,
                              Timestamp ts) {
  Row pre;
  bool have_pre = false;
  ChangeLog* log = change_log();
  if (log != nullptr) have_pre = Lookup(key, ts, &pre);
  Status s = ApplyToMirrors(row_.get(), column_.get(), [&](auto* mirror) {
    return mirror->UpdateCommitted(key, new_row, ts);
  });
  if (s.ok()) {
    mod_count_.fetch_add(1, std::memory_order_relaxed);
    if (log != nullptr) {
      // Update = delete(pre-image) + insert(new), same commit ts; the
      // delete is appended first so replay order matches apply order.
      int64_t now = SystemClock::Get()->NowMicros();
      if (have_pre) {
        log->Append({ChangeLog::Kind::kDelete, std::move(pre), ts, now});
      }
      log->Append({ChangeLog::Kind::kInsert, new_row, ts, now});
    }
  }
  return s;
}

bool Table::Lookup(std::string_view key, Timestamp read_ts, Row* out) const {
  if (row_ != nullptr) return row_->Lookup(key, read_ts, out);
  return column_->Lookup(key, read_ts, out);
}

Timestamp Table::LastWriteTs(std::string_view key) const {
  if (row_ != nullptr) return row_->LastWriteTs(key);
  return column_->LastWriteTs(key);
}

void Table::ScanVisible(Timestamp read_ts,
                        const std::function<void(const Row&)>& fn) const {
  if (column_ != nullptr) {
    column_->GetSnapshot(read_ts).ScanVisible(fn);
  } else {
    row_->ScanVisible(read_ts, fn);
  }
}

size_t Table::ScanRange(std::string_view start_key, size_t limit,
                        Timestamp read_ts,
                        const std::function<void(const Row&)>& fn) const {
  if (row_ != nullptr) return row_->ScanRange(start_key, limit, read_ts, fn);
  // Columnar-only: collect matching keys via a full visible scan, then
  // emit the first `limit` in key order (the cost E4 quantifies).
  std::vector<std::pair<std::string, Row>> matches;
  ScanVisible(read_ts, [&](const Row& row) {
    std::string key = EncodeKey(schema_, row);
    if (key >= start_key) matches.emplace_back(std::move(key), row);
  });
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t n = std::min(limit, matches.size());
  for (size_t i = 0; i < n; ++i) fn(matches[i].second);
  return n;
}

std::optional<ColumnTable::Snapshot> Table::GetColumnSnapshot(
    Timestamp read_ts) const {
  if (column_ == nullptr) return std::nullopt;
  return column_->GetSnapshot(read_ts);
}

size_t Table::MergeDelta(Timestamp merge_ts, Timestamp gc_horizon) {
  return column_ == nullptr ? 0 : column_->MergeDelta(merge_ts, gc_horizon);
}

size_t Table::CountVisible(Timestamp read_ts) const {
  size_t n = 0;
  ScanVisible(read_ts, [&n](const Row&) { ++n; });
  return n;
}

Status Table::BulkLoadToMain(const std::vector<Row>& rows, Timestamp ts) {
  if (column_ == nullptr) {
    return Status::FailedPrecondition("BulkLoadToMain requires a column side");
  }
  if (row_ != nullptr) {
    // Keep the mirrors consistent: load the row side too.
    for (const Row& r : rows) {
      OLTAP_RETURN_NOT_OK(row_->InsertCommitted(r, ts));
    }
  }
  Status s = column_->BulkLoadToMain(rows, ts);
  if (s.ok()) mod_count_.fetch_add(rows.size(), std::memory_order_relaxed);
  return s;
}

size_t Table::ApproxRowCount() const {
  if (row_ != nullptr) return row_->num_keys();
  return column_->main_size() + column_->delta_size();
}

ChangeLog* Table::EnsureChangeLog() {
  ChangeLog* log = change_log_ptr_.load(std::memory_order_acquire);
  if (log != nullptr) return log;
  std::lock_guard<std::mutex> lock(change_log_init_mu_);
  if (change_log_holder_ == nullptr) {
    change_log_holder_ = std::make_unique<ChangeLog>();
    change_log_ptr_.store(change_log_holder_.get(),
                          std::memory_order_release);
  }
  return change_log_holder_.get();
}

}  // namespace oltap
