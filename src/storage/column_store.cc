#include "storage/column_store.h"

#include <algorithm>

#include "common/logging.h"

namespace oltap {

MainFragment::MainFragment(std::vector<ColumnSegment> columns,
                           size_t num_rows, Timestamp build_ts,
                           std::vector<Timestamp> insert_ts)
    : columns_(std::move(columns)),
      num_rows_(num_rows),
      build_ts_(build_ts),
      insert_ts_(std::move(insert_ts)) {
  OLTAP_CHECK(insert_ts_.empty() || insert_ts_.size() == num_rows_);
  max_insert_ts_ = build_ts_;
  for (Timestamp t : insert_ts_) max_insert_ts_ = std::max(max_insert_ts_, t);
}

void MainFragment::MarkDeleted(RowId rid, Timestamp ts) {
  std::unique_lock lock(delete_mu_);
  OLTAP_DCHECK(rid < num_rows_);
  if (delete_ts_.empty()) delete_ts_.assign(num_rows_, kMaxTimestamp);
  if (ts >= delete_ts_[rid]) return;
  if (delete_ts_[rid] == kMaxTimestamp) ++num_deleted_;
  delete_ts_[rid] = ts;
  delete_log_.push_back(Delete{rid, ts});
}

bool MainFragment::VisibleAt(RowId rid, Timestamp read_ts) const {
  if (rid >= num_rows_) return false;
  if (InsertTsOf(rid) > read_ts) return false;
  std::shared_lock lock(delete_mu_);
  return delete_ts_.empty() || delete_ts_[rid] > read_ts;
}

void MainFragment::BuildMask(Timestamp read_ts, BitVector* out) const {
  out->Resize(num_rows_);
  out->SetAll();
  for (const Delete& d : delete_log_) {
    if (d.ts <= read_ts) out->Clear(d.rid);
  }
  if (read_ts >= max_insert_ts_) return;
  if (!insert_ts_.empty()) {
    for (size_t i = 0; i < num_rows_; ++i) {
      if (insert_ts_[i] > read_ts) out->Clear(i);
    }
  } else if (build_ts_ > read_ts) {
    out->ClearAll();
  }
}

void MainFragment::VisibleMask(Timestamp read_ts, BitVector* out) const {
  if (read_ts < max_insert_ts_) {
    std::shared_lock lock(delete_mu_);
    BuildMask(read_ts, out);
    return;
  }
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  std::shared_lock lock(delete_mu_);
  if (read_ts < cache_newest_ts_) {
    BuildMask(read_ts, out);
    return;
  }
  if (cache_mask_.size() != num_rows_) cache_mask_.Resize(num_rows_, true);
  *out = cache_mask_;
  if (cache_applied_ == delete_log_.size()) return;
  Timestamp newest = cache_newest_ts_;
  for (size_t e = cache_applied_; e < delete_log_.size(); ++e) {
    const Delete& d = delete_log_[e];
    if (d.ts <= read_ts) out->Clear(d.rid);
    newest = std::max(newest, d.ts);
  }
  // Every new entry applied: `out` is the cache's next state.
  if (newest <= read_ts) {
    cache_mask_ = *out;
    cache_applied_ = delete_log_.size();
    cache_newest_ts_ = newest;
  }
}

size_t MainFragment::num_deleted() const {
  std::shared_lock lock(delete_mu_);
  return num_deleted_;
}

Row MainFragment::GetRow(RowId rid) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnSegment& col : columns_) {
    row.push_back(col.GetValue(rid));
  }
  return row;
}

size_t MainFragment::SnapshotDeletes(std::vector<Timestamp>* delete_ts) const {
  std::shared_lock lock(delete_mu_);
  *delete_ts = delete_ts_;
  return delete_log_.size();
}

std::vector<MainFragment::Delete> MainFragment::DeletesSince(
    size_t from) const {
  std::shared_lock lock(delete_mu_);
  return std::vector<Delete>(delete_log_.begin() + from, delete_log_.end());
}

size_t MainFragment::MemoryBytes() const {
  size_t total = 0;
  for (const ColumnSegment& c : columns_) total += c.MemoryBytes();
  total += insert_ts_.capacity() * sizeof(Timestamp);
  std::shared_lock lock(delete_mu_);
  total += delete_ts_.capacity() * sizeof(Timestamp);
  total += delete_log_.capacity() * sizeof(Delete);
  return total;
}

ColumnTable::ColumnTable(Schema schema)
    : schema_(std::move(schema)),
      keyed_(schema_.HasKey()),
      main_(std::make_shared<MainFragment>()),
      delta_(std::make_shared<DeltaStore>(schema_)) {}

ColumnTable::Snapshot ColumnTable::GetSnapshot(Timestamp read_ts) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return Snapshot{main_, frozen_delta_, delta_, read_ts};
}

void ColumnTable::Snapshot::ScanVisible(const RowFn& fn) const {
  BitVector visible;
  main->VisibleMask(read_ts, &visible);
  for (size_t r = visible.FindNextSet(0); r < visible.size();
       r = visible.FindNextSet(r + 1)) {
    fn(main->GetRow(static_cast<RowId>(r)));
  }
  std::vector<DeltaStore::ChunkRef> chunks;
  if (frozen != nullptr) frozen->Capture(&chunks);
  delta->Capture(&chunks);
  for (const DeltaStore::ChunkRef& ref : chunks) {
    for (size_t i = 0; i < ref.rows; ++i) {
      if (ref.chunk->VisibleAt(i, read_ts)) fn(ref.chunk->GetRow(i));
    }
  }
}

void ColumnTable::Snapshot::ScanVisible(
    BitVector* main_visible,
    std::vector<DeltaStore::ChunkRef>* delta_chunks) const {
  main->VisibleMask(read_ts, main_visible);
  if (frozen != nullptr) frozen->Capture(delta_chunks);
  delta->Capture(delta_chunks);
}

const DeltaStore* ColumnTable::DeltaFor(const Location& loc) const {
  OLTAP_DCHECK(loc.in_delta);
  if (loc.gen == delta_gen_) return delta_.get();
  OLTAP_DCHECK(loc.gen + 1 == delta_gen_ && frozen_delta_ != nullptr);
  return frozen_delta_.get();
}

DeltaStore* ColumnTable::DeltaFor(const Location& loc) {
  return const_cast<DeltaStore*>(
      static_cast<const ColumnTable*>(this)->DeltaFor(loc));
}

bool ColumnTable::NewestLive(const KeyEntry& e, Timestamp ts,
                             Location* loc) const {
  if (e.versions.empty()) return false;
  const Location& newest = e.versions.back();
  bool live = newest.in_delta ? DeltaFor(newest)->VisibleAt(newest.idx, ts)
                              : main_->VisibleAt(newest.idx, ts);
  if (live && loc != nullptr) *loc = newest;
  return live;
}

bool ColumnTable::ReadAt(const Location& loc, Timestamp read_ts,
                         Row* out) const {
  if (loc.in_delta) {
    return DeltaFor(loc)->GetIfVisible(loc.idx, read_ts, out);
  }
  if (!main_->VisibleAt(loc.idx, read_ts)) return false;
  *out = main_->GetRow(loc.idx);
  return true;
}

Status ColumnTable::InsertCommitted(const Row& row, Timestamp ts) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  if (!keyed_) {
    std::shared_lock lock(index_mu_);  // pin delta_ against merge republish
    delta_->Append(row, ts);
    return Status::OK();
  }
  std::string key = EncodeKey(schema_, row);
  std::unique_lock lock(index_mu_);
  KeyEntry& entry = key_index_[key];
  if (NewestLive(entry, ts, nullptr)) {
    return Status::AlreadyExists("duplicate primary key");
  }
  uint32_t idx = delta_->Append(row, ts);
  entry.versions.push_back(Location{true, delta_gen_, idx});
  entry.last_write_ts = ts;
  return Status::OK();
}

Status ColumnTable::DeleteCommitted(std::string_view key, Timestamp ts) {
  if (!keyed_) return Status::FailedPrecondition("table has no primary key");
  std::unique_lock lock(index_mu_);
  auto it = key_index_.find(std::string(key));
  if (it == key_index_.end()) return Status::NotFound("key not found");
  Location loc;
  if (!NewestLive(it->second, ts, &loc)) {
    return Status::NotFound("key not live");
  }
  if (loc.in_delta) {
    DeltaFor(loc)->MarkDeleted(loc.idx, ts);
  } else {
    main_->MarkDeleted(loc.idx, ts);
  }
  it->second.last_write_ts = ts;
  return Status::OK();
}

Status ColumnTable::UpdateCommitted(std::string_view key, const Row& new_row,
                                    Timestamp ts) {
  if (!keyed_) return Status::FailedPrecondition("table has no primary key");
  OLTAP_DCHECK(EncodeKey(schema_, new_row) == key)
      << "update must preserve the primary key";
  std::unique_lock lock(index_mu_);
  auto it = key_index_.find(std::string(key));
  if (it == key_index_.end()) return Status::NotFound("key not found");
  KeyEntry& entry = it->second;
  Location loc;
  if (!NewestLive(entry, ts, &loc)) {
    return Status::NotFound("key not live");
  }
  if (loc.in_delta) {
    DeltaFor(loc)->MarkDeleted(loc.idx, ts);
  } else {
    main_->MarkDeleted(loc.idx, ts);
  }
  uint32_t idx = delta_->Append(new_row, ts);
  entry.versions.push_back(Location{true, delta_gen_, idx});
  entry.last_write_ts = ts;
  return Status::OK();
}

bool ColumnTable::Lookup(std::string_view key, Timestamp read_ts,
                         Row* out) const {
  if (!keyed_) return false;
  std::shared_lock lock(index_mu_);
  auto it = key_index_.find(std::string(key));
  if (it == key_index_.end()) return false;
  const KeyEntry& entry = it->second;
  // Newest-to-oldest: the first version visible at read_ts wins.
  for (auto v = entry.versions.rbegin(); v != entry.versions.rend(); ++v) {
    if (ReadAt(*v, read_ts, out)) return true;
  }
  return false;
}

Timestamp ColumnTable::LastWriteTs(std::string_view key) const {
  if (!keyed_) return 0;
  std::shared_lock lock(index_mu_);
  auto it = key_index_.find(std::string(key));
  return it == key_index_.end() ? 0 : it->second.last_write_ts;
}

Status ColumnTable::BulkLoadToMain(const std::vector<Row>& rows,
                                   Timestamp ts) {
  std::unique_lock lock(index_mu_);
  std::lock_guard<std::mutex> snap_lock(snap_mu_);
  if (main_->num_rows() != 0 || delta_->size() != 0) {
    return Status::FailedPrecondition("BulkLoadToMain requires empty table");
  }
  size_t n = rows.size();
  std::vector<ColumnSegment> segments;
  segments.reserve(schema_.num_columns());
  std::vector<Value> column_values(n);
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    for (size_t r = 0; r < n; ++r) {
      OLTAP_CHECK(rows[r].size() == schema_.num_columns());
      column_values[r] = rows[r][c];
    }
    segments.push_back(
        ColumnSegment::Build(schema_.column(c).type, column_values));
  }
  auto fresh = std::make_shared<MainFragment>(std::move(segments), n, ts);
  if (keyed_) {
    key_index_.clear();
    key_index_.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      std::string key = EncodeKey(schema_, rows[r]);
      KeyEntry& entry = key_index_[key];
      if (!entry.versions.empty()) {
        return Status::AlreadyExists("duplicate primary key in bulk load");
      }
      entry.versions.push_back(
          Location{false, 0, static_cast<uint32_t>(r)});
      entry.last_write_ts = ts;
    }
  }
  main_ = std::move(fresh);
  return Status::OK();
}

size_t ColumnTable::main_size() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return main_->num_rows();
}

size_t ColumnTable::delta_size() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  size_t n = delta_->size();
  if (frozen_delta_ != nullptr) n += frozen_delta_->size();
  return n;
}

size_t ColumnTable::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  size_t total = main_->MemoryBytes() + delta_->MemoryBytes();
  if (frozen_delta_ != nullptr) total += frozen_delta_->MemoryBytes();
  return total;
}

int64_t ColumnTable::DeltaAgeMicros(int64_t now_us) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  int64_t oldest = 0;  // 0 = no unmerged rows
  if (frozen_delta_ != nullptr) {
    int64_t t = frozen_delta_->OldestAppendMicros();
    if (t > 0) oldest = t;
  }
  int64_t t = delta_->OldestAppendMicros();
  if (t > 0 && (oldest == 0 || t < oldest)) oldest = t;
  if (oldest == 0) return 0;
  return now_us > oldest ? now_us - oldest : 0;
}

}  // namespace oltap
