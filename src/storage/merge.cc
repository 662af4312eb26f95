// Delta→main merge for ColumnTable: the LSM-style reorganization step
// ("differential files" [29,16]) that folds the writable columnar delta and
// the positional delete vector into a fresh, fully re-encoded columnar main
// fragment (dictionaries rebuilt, frame-of-reference re-based, zone maps
// recomputed).
//
// The merge runs in three phases so readers and writers never block:
//   1. Freeze  — swap in an empty delta; the old one becomes the frozen
//                delta, still readable and delete-able via Location.gen.
//   2. Build   — construct the new main from (old main minus GC-able
//                deletes) + frozen delta, without any table-wide lock.
//   3. Publish — under the index lock, re-apply deletes that raced with the
//                build, rewrite key-index locations, and swap the main in.
// Snapshots taken at any point remain valid: they pin the structures they
// saw via shared_ptr.

#include <vector>

#include "common/logging.h"
#include "exec/batch.h"
#include "storage/column_store.h"

namespace oltap {

class MergeJob {
 public:
  MergeJob(ColumnTable* table, Timestamp merge_ts, Timestamp gc_horizon)
      : t_(table), merge_ts_(merge_ts), horizon_(gc_horizon) {}

  size_t Run() {
    std::lock_guard<std::mutex> merge_lock(t_->merge_mu_);
    {
      // Nothing to do if the delta is empty and the main carries no deletes.
      std::lock_guard<std::mutex> snap_lock(t_->snap_mu_);
      if (t_->delta_->size() == 0 && t_->main_->num_deleted() == 0) {
        return t_->main_->num_rows();
      }
    }
    Freeze();
    Build();
    Publish();
    t_->num_merges_.fetch_add(1, std::memory_order_relaxed);
    return new_main_->num_rows();
  }

 private:
  void Freeze() {
    std::unique_lock index_lock(t_->index_mu_);
    std::lock_guard<std::mutex> snap_lock(t_->snap_mu_);
    frozen_ = t_->delta_;
    frozen_gen_ = t_->delta_gen_;
    t_->frozen_delta_ = frozen_;
    t_->delta_ = std::make_shared<DeltaStore>(t_->schema_);
    ++t_->delta_gen_;
    old_main_ = t_->main_;
  }

  void Build() {
    main_log_at_build_ = old_main_->SnapshotDeletes(&main_deletes_at_build_);
    frozen_->Capture(&frozen_chunks_);

    const size_t n_old = old_main_->num_rows();
    main_to_new_.assign(n_old, kInvalidRowId);

    // Decide which rows survive. A deleted row is physically dropped only
    // if no current or future snapshot (read_ts >= horizon_) can see it.
    std::vector<Timestamp> new_insert_ts;
    struct CarriedDelete {
      RowId new_rid;
      Timestamp ts;
    };
    std::vector<CarriedDelete> carried;
    RowId next = 0;
    std::vector<uint32_t> main_rows;  // surviving old-main rowids
    for (size_t r = 0; r < n_old; ++r) {
      Timestamp del = main_deletes_at_build_.empty()
                          ? kMaxTimestamp
                          : main_deletes_at_build_[r];
      if (del < horizon_) continue;  // drop
      main_to_new_[r] = next;
      if (del != kMaxTimestamp) carried.push_back({next, del});
      new_insert_ts.push_back(old_main_->InsertTsOf(static_cast<RowId>(r)));
      main_rows.push_back(static_cast<uint32_t>(r));
      ++next;
    }
    // Surviving rows of each frozen chunk, by in-chunk position.
    std::vector<std::vector<uint32_t>> chunk_rows(frozen_chunks_.size());
    for (size_t k = 0; k < frozen_chunks_.size(); ++k) {
      const DeltaStore::ChunkRef& ref = frozen_chunks_[k];
      for (size_t i = 0; i < ref.rows; ++i) {
        const Timestamp del = ref.chunk->delete_ts(i);
        delta_deletes_at_build_.push_back(del);
        delta_to_new_.push_back(kInvalidRowId);
        if (del < horizon_) continue;  // drop
        delta_to_new_.back() = next;
        if (del != kMaxTimestamp) carried.push_back({next, del});
        new_insert_ts.push_back(ref.chunk->insert_ts(i));
        chunk_rows[k].push_back(static_cast<uint32_t>(i));
        ++next;
      }
    }

    // Build each column from the old main's surviving cells, gathered in
    // rowid order, followed by the frozen delta's typed cells.
    const size_t n_new = next;
    const Schema& schema = t_->schema_;
    std::vector<ColumnSegment> segments;
    segments.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      ColumnVector cells(schema.column(c).type);
      cells.Reserve(n_new);
      // The first merge starts from an empty main with no column
      // segments; don't form a reference into its empty vector.
      if (n_old > 0) old_main_->column(c).Gather(main_rows, &cells);
      for (size_t k = 0; k < frozen_chunks_.size(); ++k) {
        frozen_chunks_[k].chunk->column(c).Gather(chunk_rows[k], &cells);
      }
      segments.push_back(BuildSegment(cells));
    }

    new_main_ = std::make_shared<MainFragment>(
        std::move(segments), n_new, merge_ts_, std::move(new_insert_ts));
    for (const CarriedDelete& cd : carried) {
      new_main_->MarkDeleted(cd.new_rid, cd.ts);
    }
  }

  static ColumnSegment BuildSegment(const ColumnVector& cells) {
    BitVector nulls;
    if (cells.has_nulls()) {
      nulls.Resize(cells.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        if (cells.IsNull(i)) nulls.Set(i);
      }
    }
    const BitVector* nulls_ptr = cells.has_nulls() ? &nulls : nullptr;
    switch (cells.type()) {
      case ValueType::kInt64:
        return ColumnSegment::BuildInt64(cells.i64(), nulls_ptr);
      case ValueType::kDouble:
        return ColumnSegment::BuildDouble(cells.f64(), nulls_ptr);
      case ValueType::kString:
        return ColumnSegment::BuildString(cells.str(), nulls_ptr);
    }
    return ColumnSegment();
  }

  void Publish() {
    std::unique_lock index_lock(t_->index_mu_);

    // Deletes that committed during Build targeted the old structures (the
    // key index still pointed there). Forward them: the main's from its
    // delete log, the frozen delta's from its delete timestamps.
    for (const MainFragment::Delete& d :
         old_main_->DeletesSince(main_log_at_build_)) {
      if (main_to_new_[d.rid] != kInvalidRowId) {
        new_main_->MarkDeleted(main_to_new_[d.rid], d.ts);
      }
    }
    size_t d = 0;
    for (const DeltaStore::ChunkRef& ref : frozen_chunks_) {
      for (size_t i = 0; i < ref.rows; ++i, ++d) {
        const Timestamp now = ref.chunk->delete_ts(i);
        if (now != kMaxTimestamp &&
            delta_deletes_at_build_[d] == kMaxTimestamp &&
            delta_to_new_[d] != kInvalidRowId) {
          new_main_->MarkDeleted(delta_to_new_[d], now);
        }
      }
    }

    // Rewrite key-index locations: old-main and frozen-delta versions now
    // live in the new main (or are gone).
    if (t_->keyed_) {
      for (auto it = t_->key_index_.begin(); it != t_->key_index_.end();) {
        auto& versions = it->second.versions;
        std::vector<ColumnTable::Location> rewritten;
        rewritten.reserve(versions.size());
        for (const ColumnTable::Location& loc : versions) {
          if (!loc.in_delta) {
            RowId mapped = main_to_new_[loc.idx];
            if (mapped != kInvalidRowId) {
              rewritten.push_back({false, 0, mapped});
            }
          } else if (loc.gen == frozen_gen_) {
            RowId mapped = delta_to_new_[loc.idx];
            if (mapped != kInvalidRowId) {
              rewritten.push_back({false, 0, mapped});
            }
          } else {
            rewritten.push_back(loc);  // current delta, untouched
          }
        }
        if (rewritten.empty()) {
          it = t_->key_index_.erase(it);
        } else {
          versions = std::move(rewritten);
          ++it;
        }
      }
    }

    std::lock_guard<std::mutex> snap_lock(t_->snap_mu_);
    t_->main_ = new_main_;
    t_->frozen_delta_.reset();
  }

  ColumnTable* t_;
  const Timestamp merge_ts_;
  const Timestamp horizon_;

  std::shared_ptr<MainFragment> old_main_;
  std::shared_ptr<DeltaStore> frozen_;
  uint32_t frozen_gen_ = 0;

  std::vector<Timestamp> main_deletes_at_build_;  // empty = none
  size_t main_log_at_build_ = 0;
  std::vector<DeltaStore::ChunkRef> frozen_chunks_;
  std::vector<Timestamp> delta_deletes_at_build_;
  std::vector<RowId> main_to_new_;
  std::vector<RowId> delta_to_new_;
  std::shared_ptr<MainFragment> new_main_;
};

size_t ColumnTable::MergeDelta(Timestamp merge_ts, Timestamp gc_horizon) {
  MergeJob job(this, merge_ts, gc_horizon);
  return job.Run();
}

}  // namespace oltap
