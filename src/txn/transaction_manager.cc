#include "txn/transaction_manager.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/log_writer.h"
#include "txn/wal.h"

namespace oltap {

Transaction::~Transaction() {
  if (!finished_) mgr_->Abort(this);
}

const Transaction::WriteOp* Transaction::OwnWrite(
    const Table* table, const std::string& key) const {
  auto it = latest_.find({table, key});
  return it == latest_.end() ? nullptr : &ops_[it->second];
}

Status Transaction::Insert(Table* table, Row row) {
  if (row.size() != table->schema().num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::string key =
      table->schema().HasKey() ? EncodeKey(table->schema(), row) : "";
  if (!key.empty()) {
    const WriteOp* own = OwnWrite(table, key);
    if (own != nullptr && own->kind != OpKind::kDelete) {
      return Status::AlreadyExists("duplicate key in transaction");
    }
    if (own == nullptr) {
      Row existing;
      if (table->Lookup(key, begin_ts_, &existing)) {
        return Status::AlreadyExists("duplicate primary key");
      }
    }
  }
  ops_.push_back(WriteOp{OpKind::kInsert, table, key, std::move(row)});
  if (!key.empty()) latest_[{table, ops_.back().key}] = ops_.size() - 1;
  return Status::OK();
}

Status Transaction::Update(Table* table, Row new_row) {
  if (!table->schema().HasKey()) {
    return Status::FailedPrecondition("update requires a primary key");
  }
  std::string key = EncodeKey(table->schema(), new_row);
  const WriteOp* own = OwnWrite(table, key);
  if (own != nullptr) {
    if (own->kind == OpKind::kDelete) {
      return Status::NotFound("row deleted in this transaction");
    }
  } else {
    Row existing;
    if (!table->Lookup(key, begin_ts_, &existing)) {
      return Status::NotFound("key not visible");
    }
  }
  ops_.push_back(WriteOp{OpKind::kUpdate, table, key, std::move(new_row)});
  latest_[{table, ops_.back().key}] = ops_.size() - 1;
  return Status::OK();
}

Status Transaction::Delete(Table* table, const Row& key_row) {
  if (!table->schema().HasKey()) {
    return Status::FailedPrecondition("delete requires a primary key");
  }
  return DeleteByKey(table, EncodeKey(table->schema(), key_row));
}

Status Transaction::DeleteByKey(Table* table, std::string key) {
  const WriteOp* own = OwnWrite(table, key);
  if (own != nullptr) {
    if (own->kind == OpKind::kDelete) {
      return Status::NotFound("row already deleted in this transaction");
    }
  } else {
    Row existing;
    if (!table->Lookup(key, begin_ts_, &existing)) {
      return Status::NotFound("key not visible");
    }
  }
  ops_.push_back(WriteOp{OpKind::kDelete, table, std::move(key), Row{}});
  latest_[{table, ops_.back().key}] = ops_.size() - 1;
  return Status::OK();
}

bool Transaction::Get(Table* table, const std::string& key, Row* out) const {
  const WriteOp* own = OwnWrite(table, key);
  if (own != nullptr) {
    if (own->kind == OpKind::kDelete) return false;
    *out = own->row;
    return true;
  }
  return table->Lookup(key, begin_ts_, out);
}

bool Transaction::GetByRow(Table* table, const Row& key_row, Row* out) const {
  return Get(table, EncodeKey(table->schema(), key_row), out);
}

void Transaction::Scan(Table* table,
                       const std::function<void(const Row&)>& fn) const {
  const bool keyed = table->schema().HasKey();
  table->ScanVisible(begin_ts_, [&](const Row& row) {
    if (keyed) {
      const WriteOp* own = OwnWrite(table, EncodeKey(table->schema(), row));
      if (own != nullptr) {
        // Deleted rows vanish; an updated row, or one deleted and then
        // inserted again, shows its newest image in place of this one.
        if (own->kind != OpKind::kDelete) fn(own->row);
        return;
      }
    }
    fn(row);
  });
  // Own rows not visible in the snapshot (inserted, possibly then updated,
  // within this transaction).
  for (const auto& [table_key, idx] : latest_) {
    if (table_key.first != table) continue;
    const WriteOp& op = ops_[idx];
    if (op.kind == OpKind::kDelete) continue;
    Row existing;
    if (!table->Lookup(op.key, begin_ts_, &existing)) fn(op.row);
  }
  // Keyless appends are never in latest_.
  for (const WriteOp& op : ops_) {
    if (op.table == table && op.kind == OpKind::kInsert && op.key.empty()) {
      fn(op.row);
    }
  }
}

TransactionManager::TransactionManager(Catalog* catalog, Wal* wal)
    : catalog_(catalog), wal_(wal) {}

Timestamp TransactionManager::VisibleWatermark() const {
  // Every allocated commit timestamp is eventually finished (applied or
  // retired), so the contiguous applied prefix converges to the oracle
  // when the system goes idle — no "no in-flight commits" special case.
  return visible_.load(std::memory_order_acquire);
}

Timestamp TransactionManager::AllocateCommitTs() {
  Timestamp ts = oracle_.AllocateCommitTs();
  // Never let allocation lap the ring: slot ts % W must be consumed (i.e.
  // the watermark must have passed ts - W) before we may reuse it. All
  // older timestamps are finished by independent threads, so this spin
  // cannot deadlock; with in-flight commits bounded by the thread count it
  // never triggers in practice.
  while (ts >= visible_.load(std::memory_order_acquire) + kCommitWindow) {
    AdvanceVisible();  // help rather than wait passively
    std::this_thread::yield();
  }
  return ts;
}

void TransactionManager::FinishCommitTs(Timestamp ts) {
  applied_slots_[ts % kCommitWindow].store(ts, std::memory_order_release);
  // StoreLoad barrier: the slot store above and the visible_ load inside
  // AdvanceVisible are different atomics, so without a full fence the load
  // may be served ahead of the store draining the store buffer (x86 allows
  // exactly this). Two finishers of adjacent timestamps could then each
  // miss the other's slot store and both exit without advancing, leaving
  // the watermark stuck below an applied commit.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  AdvanceVisible();
}

void TransactionManager::AdvanceVisible() {
  // Advance the watermark over the contiguous applied prefix. Racing
  // finishers may each advance a piece; the loop re-reads after every CAS
  // so no applied slot is left behind.
  Timestamp v = visible_.load(std::memory_order_acquire);
  while (applied_slots_[(v + 1) % kCommitWindow].load(
             std::memory_order_acquire) == v + 1) {
    if (visible_.compare_exchange_weak(v, v + 1,
                                       std::memory_order_acq_rel)) {
      v = v + 1;
    }
  }
}

void TransactionManager::AdvanceTo(Timestamp ts) {
  oracle_.AdvanceTo(ts);
  Timestamp v = visible_.load(std::memory_order_acquire);
  while (v < ts &&
         !visible_.compare_exchange_weak(v, ts, std::memory_order_acq_rel)) {
  }
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  size_t shard = obs::ThreadShardIndex() % kSnapshotShards;
  Timestamp begin_ts;
  {
    std::lock_guard<std::mutex> lock(snapshot_shards_[shard].mu);
    // The watermark read must happen *inside* the shard lock: a GC sweep
    // (OldestActiveSnapshot) reads the watermark before locking the
    // shards, so a registration it misses can only have locked this shard
    // after the sweep released it — and therefore reads a watermark at
    // least as new as the sweep's, keeping begin_ts >= the sweep's
    // horizon. Reading before locking would open a window in which a
    // concurrent merge could prune versions this snapshot needs.
    begin_ts = visible_.load(std::memory_order_acquire);
    snapshot_shards_[shard].active[begin_ts]++;
  }
  return std::unique_ptr<Transaction>(
      new Transaction(this, id, begin_ts, shard));
}

size_t TransactionManager::StripeFor(const Table* table,
                                     const std::string& key) const {
  uint64_t h = HashCombine(
      Mix64(reinterpret_cast<uintptr_t>(table)), HashString(key));
  return h % kLockStripes;
}

Status TransactionManager::LogDurably(std::string body) {
  // Group commit waits for the batch holding the body; the direct path
  // appends it alone.
  if (LogWriter* writer = log_writer_.load(std::memory_order_acquire)) {
    return writer->Commit(std::move(body));
  }
  return wal_->LogCommit(std::move(body));
}

Status TransactionManager::CommitDdl(const WalOp& record,
                                     const std::function<Status()>& apply) {
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  const Timestamp commit_ts = AllocateCommitTs();
  Status st;
  if (wal_ != nullptr) {
    Wal::CommitBody body(id, commit_ts);
    body.Add(record);
    st = LogDurably(body.Take());
  }
  // The effect lands before the timestamp turns visible, so a snapshot
  // (a checkpoint's, say) that covers the record also sees the effect.
  if (st.ok()) st = apply();
  FinishCommitTs(commit_ts);
  if (!st.ok()) return st;
  static obs::Counter* commit_count =
      obs::MetricsRegistry::Default()->GetCounter("txn.commits");
  commits_.fetch_add(1, std::memory_order_relaxed);
  commit_count->Add(1);
  return Status::OK();
}

Status TransactionManager::Commit(Transaction* txn) {
  OLTAP_CHECK(!txn->finished_) << "commit on finished transaction";
  auto finish = [&](bool committed) {
    txn->finished_ = true;
    SnapshotShard& shard = snapshot_shards_[txn->snapshot_shard_];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.active.find(txn->begin_ts_);
    OLTAP_DCHECK(it != shard.active.end());
    if (--it->second == 0) shard.active.erase(it);
    (committed ? commits_ : aborts_).fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* commit_count =
        obs::MetricsRegistry::Default()->GetCounter("txn.commits");
    static obs::Counter* abort_count =
        obs::MetricsRegistry::Default()->GetCounter("txn.aborts");
    (committed ? commit_count : abort_count)->Add(1);
  };

  if (txn->ops_.empty()) {
    finish(true);
    return Status::OK();
  }

  // Stage clock of a write commit: each stage's time lands in its own
  // histogram and the whole commit's in txn.commit_ns, so the stages add
  // up to it. The commit hook (view maintenance) is not a stage: it runs
  // after the ack point and times itself.
  static obs::MetricsRegistry* const reg = obs::MetricsRegistry::Default();
  static auto* const commit_ns = reg->GetHistogram("txn.commit_ns");
  static auto* const lock_ns = reg->GetHistogram("txn.commit.lock_ns");
  static auto* const validate_ns = reg->GetHistogram("txn.commit.validate_ns");
  static auto* const log_ns = reg->GetHistogram("txn.commit.log_ns");
  static auto* const apply_ns = reg->GetHistogram("txn.commit.apply_ns");
  static auto* const visible_ns = reg->GetHistogram("txn.commit.visible_ns");
  obs::StageClock clock;

  // Lock the stripes covering the write set, in order (deadlock-free).
  std::set<size_t> stripes;
  for (const Transaction::WriteOp& op : txn->ops_) {
    stripes.insert(StripeFor(op.table, op.key));
  }
  for (size_t s : stripes) stripes_[s].lock();
  clock.Lap(lock_ns);
  auto unlock_all = [&] {
    for (auto it = stripes.rbegin(); it != stripes.rend(); ++it) {
      stripes_[*it].unlock();
    }
  };

  // First-committer-wins validation per written key. The first op on a key
  // fixes the existence requirement; LastWriteTs detects writes committed
  // after our snapshot.
  Timestamp now = oracle_.CurrentReadTs();
  std::map<std::pair<const Table*, std::string>, Transaction::OpKind> first;
  for (const Transaction::WriteOp& op : txn->ops_) {
    if (op.key.empty()) continue;  // keyless append: conflict-free
    first.try_emplace({op.table, op.key}, op.kind);
  }
  // Every abort here is a write-write conflict with a transaction that
  // committed after our snapshot (counted as txn.write_conflicts).
  auto conflict = [&](const std::string& why) {
    static obs::Counter* write_conflicts =
        obs::MetricsRegistry::Default()->GetCounter("txn.write_conflicts");
    unlock_all();
    finish(false);
    write_conflicts->Add(1);
    clock.Lap(validate_ns);
    clock.Total(commit_ns);
    return Status::Aborted(why);
  };
  for (const auto& [table_key, kind] : first) {
    Table* table = const_cast<Table*>(table_key.first);
    const std::string& key = table_key.second;
    if (table->LastWriteTs(key) > txn->begin_ts_) {
      return conflict("write-write conflict on " + table->name());
    }
    Row existing;
    bool live = table->Lookup(key, now, &existing);
    if (kind == Transaction::OpKind::kInsert && live) {
      return conflict("concurrent insert of same key");
    }
    if (kind != Transaction::OpKind::kInsert && !live) {
      return conflict("row vanished before commit");
    }
  }

  Timestamp commit_ts = AllocateCommitTs();
  txn->commit_ts_ = commit_ts;
  clock.Lap(validate_ns);

  if (wal_ != nullptr) {
    // Derived tables (view backings) stay out of the log: recovery
    // rebuilds them from their bases.
    Wal::CommitBody body(txn->id_, commit_ts);
    for (const Transaction::WriteOp& op : txn->ops_) {
      if (op.table->logged()) {
        body.Add(static_cast<WalOp::Kind>(op.kind), op.table->name(), op.key,
                 op.row);
      }
    }
    // Durability point. With a log writer installed this is group commit:
    // the committer blocks until the batch holding its record is durable
    // while its stripe locks stay held — safe because only commits with
    // overlapping write sets share a stripe, and those must serialize
    // anyway. In-flight commits are bounded by the thread count, far
    // below kCommitWindow, so blocking here cannot wedge timestamp
    // allocation.
    Status wal_st;
    if (body.num_ops() > Wal::CommitBody::kMaxOps) {
      wal_st = Status::InvalidArgument(
          "commit writes " + std::to_string(body.num_ops()) +
          " logged rows; one WAL record holds at most " +
          std::to_string(Wal::CommitBody::kMaxOps));
    } else if (body.num_ops() > 0) {
      wal_st = LogDurably(body.Take());
    }
    if (!wal_st.ok()) {
      // The commit record never became durable, so the transaction must
      // not apply: retire the timestamp unused (a harmless gap in the
      // commit sequence) and surface the error to the caller.
      txn->commit_ts_ = 0;
      FinishCommitTs(commit_ts);
      unlock_all();
      finish(false);
      clock.Lap(log_ns);
      clock.Total(commit_ns);
      return wal_st;
    }
  }
  clock.Lap(log_ns);

  // Apply. Validation plus the stripe locks guarantee success.
  for (const Transaction::WriteOp& op : txn->ops_) {
    Status st;
    switch (op.kind) {
      case Transaction::OpKind::kInsert:
        st = op.table->InsertCommitted(op.row, commit_ts);
        break;
      case Transaction::OpKind::kUpdate:
        st = op.table->UpdateCommitted(op.key, op.row, commit_ts);
        break;
      case Transaction::OpKind::kDelete:
        st = op.table->DeleteCommitted(op.key, commit_ts);
        break;
    }
    OLTAP_CHECK(st.ok()) << "validated commit failed to apply: "
                         << st.ToString();
  }
  FinishCommitTs(commit_ts);

  unlock_all();
  finish(true);
  clock.Lap(apply_ns);
  // Read-your-writes across transactions: don't acknowledge until the
  // watermark covers this commit, so the committer's next Begin is
  // guaranteed to see it (and an acked commit is never invisible to a
  // later snapshot — the concurrent driver's commit audit relies on
  // this). The wait is bounded: only earlier commits that are already
  // past validation can be ahead of us, and no locks are held here. The
  // spin helps (re-runs the advance loop) rather than loading visible_
  // passively, so it cannot hang even if a concurrent finisher's advance
  // missed a slot.
  while (visible_.load(std::memory_order_acquire) < commit_ts) {
    AdvanceVisible();
    std::this_thread::yield();
  }
  clock.Lap(visible_ns);
  clock.Total(commit_ns);
  // Post-commit hook (synchronous view maintenance): runs at the ack
  // point — durable, visible, no locks held — so a maintenance
  // transaction begun inside the hook reads a snapshot covering this
  // commit. Distinct tables only.
  if (commit_hook_) {
    std::vector<Table*> touched;
    for (const Transaction::WriteOp& op : txn->ops_) {
      if (std::find(touched.begin(), touched.end(), op.table) ==
          touched.end()) {
        touched.push_back(op.table);
      }
    }
    commit_hook_(touched, commit_ts);
  }
  return Status::OK();
}

void TransactionManager::Abort(Transaction* txn) {
  if (txn->finished_) return;
  txn->finished_ = true;
  txn->ops_.clear();
  txn->latest_.clear();
  SnapshotShard& shard = snapshot_shards_[txn->snapshot_shard_];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.active.find(txn->begin_ts_);
    if (it != shard.active.end() && --it->second == 0) {
      shard.active.erase(it);
    }
  }
  aborts_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* abort_count =
      obs::MetricsRegistry::Default()->GetCounter("txn.aborts");
  abort_count->Add(1);
}

Timestamp TransactionManager::OldestActiveSnapshot() const {
  // The GC horizon is the older of the watermark and any live snapshot.
  // Safety against racing Begins relies on lock ordering, not timing:
  // Begin reads the watermark *inside* its shard lock, and this sweep
  // reads the watermark *before* locking any shard. So a registration the
  // sweep misses must have acquired its shard lock after the sweep
  // released it, hence read a watermark >= the value read here — either
  // the sweep sees the registration (horizon <= its begin_ts) or the
  // registration's begin_ts >= this horizon. A too-low (conservative)
  // result is the only race outcome.
  Timestamp horizon = VisibleWatermark();
  for (const SnapshotShard& shard : snapshot_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.active.empty()) {
      horizon = std::min(horizon, shard.active.begin()->first);
    }
  }
  return horizon;
}

}  // namespace oltap
