#ifndef OLTAP_SQL_SESSION_H_
#define OLTAP_SQL_SESSION_H_

#include <array>
#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "opt/feedback.h"
#include "sql/planner.h"
#include "storage/catalog.h"
#include "txn/checkpoint.h"
#include "txn/checkpoint_daemon.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"
#include "view/view.h"

namespace oltap {

struct QueryGrant;  // sched/workload_manager.h

// Result of a SQL statement: rows + column names for queries, an affected
// count for DML/DDL.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected = 0;

  // Pretty-printed table (examples / debugging).
  std::string ToString(size_t max_rows = 25) const;
};

// The embeddable database facade: catalog + snapshot-isolation transaction
// manager + SQL front end. This is the object the examples and the
// CH-benCHmark driver construct.
//
// Execute() runs one autocommit statement. ExecuteIn() runs a statement
// inside a caller-managed transaction: DML is buffered in the transaction;
// SELECT sees the transaction's begin snapshot (UPDATE/DELETE row selection
// additionally sees the transaction's own writes: a WHERE that pins every
// primary-key column to a constant reads that one row through
// Transaction::GetByRow, any other WHERE scans through Transaction::Scan).
//
// Both consult a statement cache keyed by the exact SQL text: a SELECT
// (or its EXPLAIN form) seen more than once is parsed, bound and matched
// against the views once per catalog epoch, and its base-vs-view cost
// choice is made once; every execution still takes its own snapshot,
// grant, session flags and view-staleness check, and plans the chosen
// side afresh (sql.stmt_cache.* counters).
class Database {
 public:
  // With a `wal`, every commit and every table and view creation is
  // logged to it before it is acknowledged.
  explicit Database(Wal* wal = nullptr);

  Catalog* catalog() { return &catalog_; }
  TransactionManager* txn_manager() { return &txn_; }
  // The WAL this database logs commits to (nullptr when running without
  // durability). Callers that only probe health should use wal()->sealed()
  // / wal()->size(), not buffer().
  Wal* wal() const { return txn_.wal(); }

  Result<QueryResult> Execute(const std::string& sql);
  // Execute under a workload-manager admission grant: SELECTs cap their
  // degree of parallelism at grant.max_dop (degraded grants typically
  // force serial execution), leaving results unchanged.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryGrant& grant);
  Result<QueryResult> ExecuteIn(Transaction* txn, const std::string& sql);

  // The online checkpoint daemon for this database, created on first use
  // (SQL CHECKPOINT, SET checkpoint_interval_us, or the workload driver)
  // and wired to this database's catalog, transaction manager, WAL, and
  // view registry (views pin truncation and ride the image as DDL).
  // Returned pointer stays valid for the database's lifetime.
  CheckpointDaemon* EnsureCheckpointer();
  // nullptr until EnsureCheckpointer was called.
  CheckpointDaemon* checkpointer();

  struct RecoveryReport {
    Wal::ReplayStats stats;       // combined checkpoint + tail replay
    uint64_t checkpoint_id = 0;   // 0 = recovered without a checkpoint
    Timestamp checkpoint_ts = 0;
    size_t fallbacks = 0;  // torn images/manifest entries skipped over
    size_t tail_txns = 0;  // transactions replayed from the WAL tail
  };

  // The one recovery entry point: Wal::Replay of the newest valid image
  // in `store` (falling back past torn images and a torn manifest), then
  // Wal::Replay of the WAL past the image's timestamp; then it
  // fast-forwards the timestamp oracle and brings the views back. Both
  // streams carry their own DDL, so this works on a freshly constructed
  // Database, with or without an image, including for tables and views
  // created after the newest image. Views registered before the call are
  // rebuilt from the recovered bases; the logged views not yet registered
  // are created. Tables that already exist must match their CREATE TABLE
  // records and replay idempotently, so recovery that crashed partway can
  // simply run again over the same database when every table has a
  // primary key. With a non-null `pool`, replay runs partitioned by table
  // on the pool (same state, bounded by the largest table instead of the
  // sum).
  Result<RecoveryReport> RecoverFromCheckpointStore(
      const CheckpointStore& store, const std::string& wal_data,
      ThreadPool* pool = nullptr);

  // Merges every mergeable table's delta into its main, respecting the
  // oldest active snapshot. Returns total rows across new mains.
  size_t MergeAll();

  // Cost-based optimizer toggle (SQL: SET optimizer = on|off). Defaults
  // on; off restores the historical FROM-order planner byte for byte.
  bool optimizer_enabled() const {
    return optimizer_enabled_.load(std::memory_order_relaxed);
  }
  void set_optimizer_enabled(bool on) {
    optimizer_enabled_.store(on, std::memory_order_relaxed);
  }

  opt::PlanFeedback* plan_feedback() { return &feedback_; }

  // Materialized views: registry, incremental maintainer, and router.
  view::ViewManager* view_manager() { return &views_; }

  // Routing of queries onto materialized views (SQL: SET view_routing =
  // on|off). Only consulted when the optimizer is on.
  bool view_routing_enabled() const {
    return view_routing_.load(std::memory_order_relaxed);
  }
  void set_view_routing_enabled(bool on) {
    view_routing_.store(on, std::memory_order_relaxed);
  }

  // Session staleness bound in microseconds for routing onto DEFERRED
  // views (SQL: SET max_staleness = <us> | off). -1 = unbounded.
  int64_t max_staleness_us() const {
    return max_staleness_us_.load(std::memory_order_relaxed);
  }
  void set_max_staleness_us(int64_t us) {
    max_staleness_us_.store(us, std::memory_order_relaxed);
  }

  // Morsel-parallel execution. Queries parallelize only once a worker
  // pool is attached; the session knob (SQL: SET max_dop = <n> | auto)
  // picks the requested DOP, and a workload-manager grant may cap it
  // lower per query. 0 = auto: pool threads + the query thread.
  void set_exec_pool(ThreadPool* pool) {
    exec_pool_.store(pool, std::memory_order_relaxed);
  }
  ThreadPool* exec_pool() const {
    return exec_pool_.load(std::memory_order_relaxed);
  }
  void set_max_dop(size_t dop) {
    max_dop_.store(dop, std::memory_order_relaxed);
  }
  size_t max_dop() const {
    return max_dop_.load(std::memory_order_relaxed);
  }

 private:
  // A SELECT's front-end work for one catalog epoch (defined in
  // session.cc). Immutable once cached.
  struct CachedSelect;
  // A statement ready to run: a SELECT from the statement cache, or any
  // other statement parsed fresh.
  struct Prepared {
    std::shared_ptr<const CachedSelect> select;
    sql::Statement stmt;  // when `select` is null
  };
  // Entries the statement cache holds before it is cleared whole.
  static constexpr size_t kStatementCacheCapacity = 1024;
  // Slots of the table of SELECT-text hashes seen once (direct-mapped).
  static constexpr size_t kSeenSlots = 4096;

  // Looks `sql` up in the statement cache; on a miss or an entry from an
  // older epoch, parses it, and prepares it afresh. A SELECT enters the
  // cache on its second sighting, so a text that never repeats (a literal
  // that changes per request) is neither kept nor flushes hot entries.
  Result<Prepared> Prepare(const std::string& sql);
  Result<QueryResult> ExecuteImpl(const std::string& sql,
                                  const QueryGrant* grant);
  Result<QueryResult> RunStatement(Transaction* txn, const Prepared& p,
                                   const QueryGrant* grant = nullptr);
  // CHECKPOINT: one synchronous round on the (lazily created) daemon.
  Result<QueryResult> RunCheckpoint();
  Result<QueryResult> RunSelect(Transaction* txn, const CachedSelect& s,
                                const QueryGrant* grant = nullptr);
  // SHOW STATS: one row per metric from the global registry (histograms
  // expand to .count/.mean/.p50/.p95/.p99/.p999/.max rows), with storage
  // freshness gauges refreshed from this database's catalog first, plus
  // per-table optimizer-statistics freshness (stats.<table>.*).
  Result<QueryResult> RunShowStats();
  // ANALYZE [<table>]: collect optimizer statistics into the catalog.
  Result<QueryResult> RunAnalyze(Transaction* txn, const sql::AnalyzeStmt& s);
  Result<QueryResult> RunSet(const sql::SetStmt& s);
  Result<QueryResult> RunInsert(Transaction* txn, const sql::InsertStmt& s);
  Result<QueryResult> RunUpdate(Transaction* txn, const sql::UpdateStmt& s);
  Result<QueryResult> RunDelete(Transaction* txn, const sql::DeleteStmt& s);
  Result<QueryResult> RunCreate(const sql::CreateTableStmt& s);

  Catalog catalog_;
  TransactionManager txn_;
  std::atomic<bool> optimizer_enabled_{true};
  std::atomic<bool> view_routing_{true};
  std::atomic<int64_t> max_staleness_us_{-1};
  std::atomic<ThreadPool*> exec_pool_{nullptr};
  std::atomic<size_t> max_dop_{0};  // 0 = auto (pool threads + 1)
  opt::PlanFeedback feedback_;
  view::ViewManager views_{&catalog_, &txn_};
  std::shared_mutex stmt_cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<const CachedSelect>>
      stmt_cache_;
  std::array<std::atomic<size_t>, kSeenSlots> seen_{};
  // Declared after views_/txn_/catalog_: the daemon references all three,
  // so it must destroy (and join its thread) first.
  std::mutex checkpointer_mu_;
  std::unique_ptr<CheckpointDaemon> checkpointer_;
};

}  // namespace oltap

#endif  // OLTAP_SQL_SESSION_H_
