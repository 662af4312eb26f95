#ifndef OLTAP_TXN_TRANSACTION_MANAGER_H_
#define OLTAP_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "storage/row.h"
#include "storage/table.h"

namespace oltap {

class LogWriter;
class TransactionManager;
class Wal;
struct WalOp;

// Monotonic commit-timestamp source. Begin timestamps are the latest
// committed timestamp (snapshot reads); commit timestamps are fresh.
class TimestampOracle {
 public:
  // First commit gets ts 1; ts 0 = "before everything" (bulk loads use it).
  Timestamp AllocateCommitTs() {
    return next_.fetch_add(1, std::memory_order_acq_rel);
  }
  Timestamp CurrentReadTs() const {
    return next_.load(std::memory_order_acquire) - 1;
  }

  // Fast-forwards past `ts` (recovery: replayed commits must precede every
  // new snapshot).
  void AdvanceTo(Timestamp ts) {
    Timestamp cur = next_.load(std::memory_order_acquire);
    while (cur < ts + 1 &&
           !next_.compare_exchange_weak(cur, ts + 1,
                                        std::memory_order_acq_rel)) {
    }
  }

 private:
  std::atomic<Timestamp> next_{1};
};

// A snapshot-isolation transaction with deferred writes: reads see the
// begin-timestamp snapshot overlaid with the transaction's own write set;
// writes are buffered and applied at commit after first-committer-wins
// validation. This is the transaction model the surveyed column-store
// engines expose (BLU, HANA, Oracle DBIM: multi-version reads, optimistic
// write validation, minimal locking).
class Transaction {
 public:
  // Aborts implicitly if neither Commit nor Abort was called.
  ~Transaction();

  uint64_t id() const { return id_; }
  Timestamp begin_ts() const { return begin_ts_; }
  // Commit timestamp; 0 until committed.
  Timestamp commit_ts() const { return commit_ts_; }

  // --- Buffered DML. Keys are encoded primary keys (storage/row.h). ---

  Status Insert(Table* table, Row row);
  Status Update(Table* table, Row new_row);  // key taken from new_row
  Status Delete(Table* table, const Row& key_row);
  Status DeleteByKey(Table* table, std::string key);

  // Point read: own writes first, then the snapshot.
  bool Get(Table* table, const std::string& key, Row* out) const;
  bool GetByRow(Table* table, const Row& key_row, Row* out) const;

  // Row-wise snapshot scan overlaid with own writes (inserted rows appended,
  // deleted rows suppressed, updated rows replaced).
  void Scan(Table* table, const std::function<void(const Row&)>& fn) const;

  // Ordered range scan at the snapshot (key order, up to `limit` rows with
  // key >= start_key). NOTE: unlike Scan, this reads the committed
  // snapshot only — the transaction's own buffered writes are not overlaid
  // (sufficient for the read-mostly TPC-C patterns that need it).
  size_t ScanRange(Table* table, std::string_view start_key, size_t limit,
                   const std::function<void(const Row&)>& fn) const {
    return table->ScanRange(start_key, limit, begin_ts_, fn);
  }

  size_t write_set_size() const { return ops_.size(); }

 private:
  friend class TransactionManager;

  enum class OpKind : uint8_t { kInsert, kUpdate, kDelete };
  struct WriteOp {
    OpKind kind;
    Table* table;
    std::string key;
    Row row;  // empty for deletes
  };

  Transaction(TransactionManager* mgr, uint64_t id, Timestamp begin_ts,
              size_t snapshot_shard)
      : mgr_(mgr),
        id_(id),
        begin_ts_(begin_ts),
        snapshot_shard_(snapshot_shard) {}

  // Newest op for (table, key), or nullptr.
  const WriteOp* OwnWrite(const Table* table, const std::string& key) const;

  TransactionManager* mgr_;
  uint64_t id_;
  Timestamp begin_ts_;
  // Which active-snapshot shard Begin registered this txn in (commit and
  // abort may run on a different thread than Begin, so the shard index
  // travels with the transaction).
  size_t snapshot_shard_ = 0;
  Timestamp commit_ts_ = 0;
  bool finished_ = false;
  std::vector<WriteOp> ops_;
  // (table, key) -> index of newest op in ops_.
  std::map<std::pair<const Table*, std::string>, size_t> latest_;
};

// Creates, validates, and commits transactions. Commit is parallel across
// disjoint key sets: a striped lock table covers the write keys, so only
// conflicting commits serialize (and they would conflict anyway).
//
// Snapshot assignment uses a *visible watermark*, not the raw oracle:
// a commit timestamp becomes readable only once every commit at or below
// it has finished applying its write set, so no snapshot ever observes a
// partially applied transaction.
//
// The watermark and the active-snapshot registry are the two structures
// every Begin/Commit touches, so both are built for concurrency (the
// concurrent TPC-C driver exposed the original single-mutex versions as
// the top contention points):
//  - the watermark is a lock-free ring of applied commit slots: commit
//    timestamps are allocated densely, each finisher marks its slot and
//    CAS-advances the watermark over the contiguous applied prefix, and
//    Begin is a single atomic load;
//  - active snapshots are tracked in per-thread-sharded maps, so Begin
//    and commit/abort of unrelated transactions never share a mutex.
class TransactionManager {
 public:
  explicit TransactionManager(Catalog* catalog, Wal* wal = nullptr);

  // Begins a snapshot transaction at the newest fully-applied timestamp.
  std::unique_ptr<Transaction> Begin();

  // First-committer-wins validation + apply. On kAborted the transaction
  // made no changes. Read-only transactions always commit trivially.
  // On OK the commit is *visible*: every transaction begun after Commit
  // returns reads it (read-your-writes across a session's transactions).
  // With a WAL, a failed log append fails the commit and applies nothing,
  // and so does a write set of more than Wal::CommitBody::kMaxOps logged
  // rows (kInvalidArgument), which one WAL record cannot hold.
  Status Commit(Transaction* txn);

  // Drops the write set. (Nothing was applied, so nothing to undo.)
  void Abort(Transaction* txn);

  // Commits one DDL record (WalOp::CreateTable / CreateView) as a
  // transaction of its own: logs it through the same durability path as
  // Commit, then runs `apply` (the DDL's effect) before the commit
  // timestamp becomes visible. Without a WAL only `apply` runs. On a
  // logging error `apply` does not run and the error is returned.
  Status CommitDdl(const WalOp& record, const std::function<Status()>& apply);

  // Oldest begin timestamp among active transactions (== current read ts
  // when none): the GC horizon merges must respect.
  Timestamp OldestActiveSnapshot() const;

  TimestampOracle* oracle() { return &oracle_; }
  Catalog* catalog() { return catalog_; }
  Wal* wal() const { return wal_; }

  // Routes commit durability through a group-commit log writer: when set,
  // Commit serializes its record and blocks in LogWriter::Commit instead
  // of appending it to the WAL itself (one fsync per batch instead of per
  // commit). Pass nullptr to restore the direct path. The caller owns the
  // writer and must keep it alive (and Stop() it) around any window where
  // commits may run; swapping mid-commit is safe — each commit reads the
  // pointer once.
  void SetLogWriter(LogWriter* writer) {
    log_writer_.store(writer, std::memory_order_release);
  }
  LogWriter* log_writer() const {
    return log_writer_.load(std::memory_order_acquire);
  }

  // Post-commit hook, invoked after a non-empty commit is durable AND
  // visible (the ack point), with the distinct tables it wrote and its
  // commit timestamp. No locks are held; the hook may begin and commit
  // transactions of its own. The view subsystem uses this for synchronous
  // incremental maintenance. Install before serving traffic; pass nullptr
  // to clear.
  using CommitHook =
      std::function<void(const std::vector<Table*>&, Timestamp)>;
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

  // Recovery fast-forward: advances the oracle *and* the visible watermark
  // past `ts` (replayed commits were applied directly to storage, so they
  // are fully visible by construction). Must not race live commits —
  // recovery runs before the database serves traffic.
  void AdvanceTo(Timestamp ts);

  uint64_t num_commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  uint64_t num_aborts() const {
    return aborts_.load(std::memory_order_relaxed);
  }

  // Newest timestamp whose entire commit history is fully applied.
  Timestamp VisibleWatermark() const;

 private:
  friend class Transaction;

  static constexpr size_t kLockStripes = 256;
  // Ring capacity for in-flight commit timestamps. Allocation spins (never
  // deadlocks: older timestamps are finished by independent threads) if it
  // ever runs this far ahead of the watermark — in practice in-flight
  // commits are bounded by the thread count, orders of magnitude below.
  static constexpr size_t kCommitWindow = 4096;
  static constexpr size_t kSnapshotShards = 16;

  struct alignas(64) SnapshotShard {
    mutable std::mutex mu;
    // begin_ts -> count of active txns registered in this shard.
    std::map<Timestamp, int> active;
  };

  size_t StripeFor(const Table* table, const std::string& key) const;
  // Makes one serialized commit record durable: through the group-commit
  // log writer when one is set, else appended to the WAL directly.
  Status LogDurably(std::string body);
  // Allocates a commit timestamp and marks it in-flight.
  Timestamp AllocateCommitTs();
  // Marks `ts` fully applied, advancing the watermark over the contiguous
  // applied prefix.
  void FinishCommitTs(Timestamp ts);
  // CAS-advances visible_ over the contiguous applied prefix. Safe to call
  // from any thread; spin loops waiting on the watermark call it to help
  // instead of waiting passively.
  void AdvanceVisible();

  Catalog* catalog_;
  Wal* wal_;
  std::atomic<LogWriter*> log_writer_{nullptr};
  TimestampOracle oracle_;
  std::atomic<uint64_t> next_txn_id_{1};

  // Newest timestamp whose entire commit history is applied. Slot ts % W
  // holds ts once that commit finished; stale values from ts - W are
  // harmless because the advance loop compares for exact equality.
  std::atomic<Timestamp> visible_{0};
  std::atomic<Timestamp> applied_slots_[kCommitWindow] = {};

  std::mutex stripes_[kLockStripes];

  SnapshotShard snapshot_shards_[kSnapshotShards];

  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};

  CommitHook commit_hook_;
};

}  // namespace oltap

#endif  // OLTAP_TXN_TRANSACTION_MANAGER_H_
