#ifndef OLTAP_WORKLOAD_DRIVER_H_
#define OLTAP_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sched/workload_manager.h"
#include "workload/chbench.h"

namespace oltap {

// Concurrent end-to-end driver: N closed-loop OLTP clients running the
// five TPC-C transactions against their home warehouses, concurrently with
// M OLAP clients cycling the CH analytic query set through the full SQL
// stack — every request admitted through one WorkloadManager, with the
// merge daemon keeping deltas bounded in the background. This is the
// mixed-workload harness the paper's surveyed systems are evaluated with
// (CH-benCHmark), and the thing that first exposed the engine's
// cross-thread contention points.
//
// Determinism: each worker's workload is a precomputed stream of
// (kind, seed) ops. The transaction kind and every argument the
// transaction draws derive from the op's private Rng(seed), so the stream
// is a pure function of (driver seed, worker index) — independent of
// scheduling, thread count, and wall time. With home-warehouse binding and
// remote probabilities zeroed the workers' write sets are disjoint, so the
// committed database state is also a pure function of the seed (the
// determinism test relies on exactly this).

// The five TPC-C transaction kinds, for precomputed op streams.
enum class TxnKind : uint8_t {
  kNewOrder = 0,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};

const char* TxnKindToString(TxnKind k);

// One precomputed workload op: which transaction to run and the seed of
// the private Rng that produces all of its arguments.
struct TxnOp {
  TxnKind kind;
  uint64_t seed;
};

struct DriverOptions {
  size_t oltp_workers = 8;
  size_t olap_workers = 2;
  // WorkloadManager pool size; 0 = oltp_workers + olap_workers.
  size_t wm_workers = 0;
  SchedulingPolicy policy = SchedulingPolicy::kOltpPriority;

  // Intra-query DOP granted to normally admitted OLAP queries (0 = leave
  // the session knob in charge) and to degraded admissions (1 = serial).
  // Only meaningful when the database has an exec pool attached.
  size_t olap_max_dop = 0;
  size_t degraded_dop = 1;
  // OLAP admitted while its queue is at least this deep is degraded:
  // its grant carries degraded_dop instead of olap_max_dop. 0 = never.
  size_t olap_degrade_threshold = 0;

  // Timed mode: run for this long. 0 = fixed-ops mode (each OLTP worker
  // runs exactly ops_per_worker ops — the deterministic configuration).
  int64_t duration_ms = 0;
  size_t ops_per_worker = 200;

  uint64_t seed = 42;

  // Pin worker i to warehouse (i % warehouses) + 1. Combined with zeroed
  // remote probabilities in CHConfig this makes worker write sets
  // disjoint.
  bool bind_home_warehouse = false;

  // TPC-C-style client think time between ops (closed-loop keying/think
  // delay). 0 = saturating clients. On few-core hosts think time is what
  // lets added clients overlap instead of time-slicing one saturated CPU.
  int64_t think_time_us = 0;

  // Background merge daemon (delta -> main) during the run.
  bool run_merge_daemon = true;
  size_t merge_delta_threshold = 512;
  int64_t merge_interval_ms = 5;

  // Serialization-abort retries per op.
  int max_retries = 5;

  // Record a NewOrderAck for every acknowledged NewOrder commit (the
  // zero-lost-commits audit consumes these).
  bool audit_commits = false;

  // Group commit: install a leader/follower log writer on the database's
  // transaction manager for the duration of the run (no-op when the
  // database has no WAL). Commits then ack after their batch's single
  // fsync instead of one fsync each. The driver owns the writer and
  // stops it after clients, admission queues, and the merge daemon have
  // drained, so no commit is in flight when the writer goes away.
  bool group_commit = false;
  size_t group_max_batch = 64;

  // When the WAL seals mid-run (torn append — every later commit is
  // doomed), abort the whole run with a clear report instead of letting
  // every remaining op fail its way through the retry budget.
  bool abort_on_sealed_wal = true;

  // Online checkpoint daemon during the run: consistent SI checkpoints
  // concurrent with the workload, with WAL segment truncation behind the
  // pinned horizon. Uses the database's own daemon (EnsureCheckpointer),
  // so SQL CHECKPOINT / SHOW STATS observe the same instance.
  bool run_checkpoint_daemon = false;
  int64_t checkpoint_interval_us = 50'000;
  uint64_t checkpoint_wal_trigger_bytes = 0;  // 0 = time trigger only
  // Truncate covered WAL segments after each checkpoint. Off retains the
  // full log (equivalence tests recover both ways and compare).
  bool checkpoint_truncate_wal = true;
  // Rotate the database's WAL into segments of this size for the run
  // (0 = leave the WAL's segmentation as configured).
  uint64_t wal_segment_bytes = 0;
};

// Per-OLTP-worker outcome.
struct WorkerResult {
  CHTxnStats stats;          // committed txns + aborted attempts
  uint64_t ops_issued = 0;   // ops submitted (committed or exhausted)
  // Ops that never committed: non-abort failures (admission, internal)
  // plus ops whose every retry aborted. Invariant per worker:
  // committed + failed == ops_issued.
  uint64_t failed = 0;
  std::vector<NewOrderAck> acks;  // audit_commits only
};

struct DriverReport {
  double duration_s = 0;
  double oltp_txn_per_s = 0;       // committed txns / duration
  double olap_queries_per_s = 0;
  CHTxnStats txns;                 // merged across workers
  // Ops that never committed (non-abort failures + retry-exhausted ops),
  // merged across workers: txns.total() + oltp_failed == ops issued.
  uint64_t oltp_failed = 0;
  uint64_t olap_completed = 0;
  uint64_t olap_failed = 0;
  // aborted attempts / (aborted attempts + commits)
  double abort_rate = 0;
  // Submit -> completion, through WorkloadManager admission.
  LatencySummary oltp_latency;
  LatencySummary olap_latency;
  // Max delta age across mergeable tables at run end (the freshness lag
  // an analytic query on main-only data would observe).
  int64_t freshness_lag_us = 0;
  uint64_t merges = 0;
  // Checkpoint/WAL-retention state at run end (run_checkpoint_daemon;
  // the wal_* fields fill whenever the database has a WAL).
  uint64_t checkpoints = 0;          // successful rounds during the run
  int64_t checkpoint_age_us = -1;    // age of the newest checkpoint; -1 = none
  uint64_t wal_segments = 0;
  uint64_t wal_retained_bytes = 0;
  uint64_t wal_truncated_bytes = 0;  // dropped by truncation during the run
  // Set when the run stopped early (sealed WAL): clients quit issuing ops
  // as soon as they observed the condition. Counters above still hold the
  // work completed before the abort.
  bool aborted = false;
  std::string abort_reason;
  std::vector<WorkerResult> workers;
};

class ConcurrentDriver {
 public:
  // `bench` must be loaded (CreateTables + Load done). The driver does not
  // own it; one driver run per instance.
  ConcurrentDriver(CHBenchmark* bench, const DriverOptions& options);

  // The seed of op `index` in worker `worker`'s stream (pure function).
  static uint64_t OpSeed(uint64_t driver_seed, size_t worker, size_t index);
  // The kind op `index` resolves to (first draw of its private Rng,
  // mapped through the TPC-C 45/43/4/4/4 mix).
  static TxnKind KindFor(uint64_t op_seed);
  // First `ops` ops of worker `worker`'s stream.
  static std::vector<TxnOp> MakeStream(uint64_t driver_seed, size_t worker,
                                       size_t ops);

  // Runs the configured workload to completion and reports. Blocking.
  DriverReport Run();

 private:
  // Executes one op with abort retries; accumulates into `result`.
  void ExecuteOp(const TxnOp& op, int64_t home_w, WorkerResult* result);

  CHBenchmark* bench_;
  DriverOptions options_;
};

}  // namespace oltap

#endif  // OLTAP_WORKLOAD_DRIVER_H_
