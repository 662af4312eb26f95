#ifndef OLTAP_SQL_PLANNER_H_
#define OLTAP_SQL_PLANNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "exec/operators.h"
#include "opt/feedback.h"
#include "sql/binder.h"
#include "storage/catalog.h"

namespace oltap {
namespace sql {

// Planner knobs. With the optimizer on (the default), joins are reordered
// by the cost-based DPsize search over catalog statistics, scans and joins
// carry cardinality/cost estimates, and dual-format scans get an explicit
// access path. With it off, plans are built exactly as before this layer
// existed: left-deep joins in FROM order, no estimates, byte-identical
// EXPLAIN output.
struct PlannerOptions {
  bool use_optimizer = true;
  // Estimation-feedback memo (may be null): supplies remembered join
  // orders and measured scan cardinalities, receives the chosen order.
  opt::PlanFeedback* feedback = nullptr;
  // Morsel-parallel execution: worker pool plus the degree of parallelism
  // granted to this query (workers incl. the query thread). Operators run
  // above DOP 1 only on the optimizer path, and only when `exec_pool` is
  // set and `max_dop >= 2`; results remain byte-identical to serial
  // execution at any DOP.
  ThreadPool* exec_pool = nullptr;
  size_t max_dop = 1;
};

// A bound, executable SELECT plan.
struct PlannedQuery {
  PhysicalOpPtr root;
  std::vector<std::string> output_names;

  // Optimizer metadata (defaults when planned with use_optimizer=false).
  bool optimized = false;
  std::string fingerprint;           // canonical statement text
  std::vector<int> join_order;       // FROM indices in join order
  // The scan operator of each FROM relation (indexed by FROM position),
  // owned by `root`; used to harvest actual-vs-estimated cardinalities.
  std::vector<const ScanOp*> scans;
};

// Plans a bound SELECT: pushes single-table WHERE conjuncts into scans,
// orders joins (cost-based when the optimizer is on, FROM order
// otherwise), lowers GROUP BY / aggregates, ORDER BY, and LIMIT. Reads
// run at `read_ts`.
Result<PlannedQuery> PlanSelect(const BoundSelect& q, const Catalog& catalog,
                                Timestamp read_ts,
                                const PlannerOptions& options = {});

}  // namespace sql
}  // namespace oltap

#endif  // OLTAP_SQL_PLANNER_H_
