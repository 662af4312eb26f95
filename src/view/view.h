#ifndef OLTAP_VIEW_VIEW_H_
#define OLTAP_VIEW_VIEW_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "storage/catalog.h"
#include "storage/change_log.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

namespace oltap {
namespace view {

// A registered materialized view: its validated definition, the backing
// catalog table that stores its rows (queryable under the view's name),
// and the incremental-maintenance cursor.
//
// Supported shapes (validated at CREATE from the bound definition):
//  - join views:       SELECT cols FROM t1 JOIN t2 ON ... [WHERE ...],
//    select list = plain column refs covering every base's primary key;
//  - aggregate views:  SELECT group-cols + aggs FROM ... GROUP BY ...,
//    aggregates over single columns (or COUNT(*)), at least one group
//    column (it becomes the backing primary key).
// WHERE/ON must split into single-table conjuncts plus cross-table
// equality join edges; the binder already keys every JOIN to an earlier
// table, so the join graph is connected. DISTINCT, HAVING, ORDER BY,
// LIMIT, views-over-views, and self-joins are rejected.
struct ViewDef {
  std::string name;
  bool sync = true;               // maintained at commit vs daemon cadence
  int64_t max_staleness_us = -1;  // routing bound for DEFERRED; -1 = none
  std::string definition;         // the defining SELECT's source text

  Table* backing = nullptr;
  std::vector<Table*> bases;  // FROM order

  // WHERE/ON conjuncts: join edges, and per base its single-table
  // conjuncts bound over the base's own columns.
  struct Edge {
    int lt, lc, rt, rc;  // bases[lt].col(lc) == bases[rt].col(rc)
  };
  std::vector<Edge> edges;
  std::vector<std::vector<ExprPtr>> local_bound;

  // Delta-join processing order starting from each base (connected
  // extension over `edges`).
  std::vector<std::vector<int>> join_orders;

  // Select-list mapping. For join views every item is a group (plain
  // column); for aggregate views items interleave group refs and
  // aggregates in user order — the backing schema mirrors that order,
  // then appends __rows and the per-aggregate hidden state.
  struct ItemOut {
    bool is_agg = false;
    int agg_idx = -1;  // into `aggs` when is_agg
    int table = -1;    // base table / column when a group ref
    int col = -1;
    std::string name_out;  // backing column name (== query output name)
  };
  std::vector<ItemOut> items;

  bool is_aggregate = false;
  struct AggDef {
    AggSpec::Fn fn = AggSpec::Fn::kCountStar;
    int table = -1;  // -1 for COUNT(*)
    int col = -1;
    ValueType out_type = ValueType::kInt64;
    int visible_idx = -1;  // backing column holding the finalized value
    int count_idx = -1;    // non-null count state (visible col for COUNT)
    int sum_idx = -1;      // running sum state (SUM/AVG only)
    bool sum_is_int = false;
    // MIN/MAX and double-typed SUM/AVG cannot subtract a delete exactly;
    // groups they belong to are recomputed from the bases on delete.
    bool recompute_on_delete = false;
  };
  std::vector<AggDef> aggs;
  int rows_idx = -1;  // backing __rows column (aggregate views)

  // Bound definition with the hidden-state aggregates appended; its
  // output order equals the backing schema order. For join views this is
  // just the definition.
  sql::BoundSelect build_query;

  // Maintenance state. `mu` serializes maintainers (sync commits,
  // daemon ticks, REFRESH); `applied_ts` is the cursor — every base
  // change with ts <= applied_ts is folded in. The cursor is only
  // advanced after the maintenance transaction commits, so a failed or
  // crashed maintenance round leaves no torn state: the next round
  // replays the same window.
  std::mutex mu;
  std::atomic<Timestamp> applied_ts{0};
  std::atomic<int64_t> last_maintain_wall_us{0};
};

// Registry + maintainer + router for materialized views. One per
// Database; installed as the TransactionManager's commit hook for
// synchronous maintenance.
class ViewManager {
 public:
  ViewManager(Catalog* catalog, TransactionManager* tm)
      : catalog_(catalog), tm_(tm) {}

  // Validates the definition, creates the backing table (named after the
  // view), subscribes the base change logs, and runs the initial build.
  Status Create(const sql::CreateViewStmt& stmt);

  // Full rebuild from the bases (REFRESH MATERIALIZED VIEW).
  Status Refresh(const std::string& name);

  // Incremental maintenance of one view / of every view with pending
  // changes. MaintainAll returns the number of views that applied work.
  Status Maintain(const std::string& name);
  size_t MaintainAll();

  // TransactionManager commit hook: synchronously maintains every SYNC
  // view whose bases intersect the committed tables. Runs on the
  // committing thread after the commit is durable and visible.
  void OnCommit(const std::vector<Table*>& tables, Timestamp commit_ts);

  // After WAL recovery the in-memory cursors and change logs are gone;
  // every view is stale-on-recover and rebuilt from the recovered bases.
  Status RebuildAllAfterRecovery();

  bool IsView(const std::string& name) const;
  size_t num_views() const;

  // A CREATE MATERIALIZED VIEW record (WalOp::CreateView) for every
  // registered view, carrying a re-parseable statement around the
  // definition's source text as written. The checkpoint daemon writes
  // these into each image so recovery from an empty catalog can re-create
  // the views: re-running the DDL rebuilds each backing table from the
  // restored bases, which is why backing tables are unlogged (Create adds
  // them with Table::logged() false).
  std::vector<WalOp> ViewDdls() const;

  // GC horizon merges must respect: delta-join reads pre-state snapshots
  // at each view's cursor. kMax when no views exist.
  Timestamp GcHorizon() const;

  // Staleness of a view right now: age of its oldest unapplied base
  // change (0 when fully applied).
  int64_t StalenessMicros(const std::string& name, int64_t now_us) const;

  // Cost-based routing, in two halves. Match does the shape work: every
  // registered view whose base set and join edges equal `q`'s and whose
  // local predicates `q` subsumes, in registration order, each with `q`
  // rewritten over the view's backing table. Edges and local predicates
  // match as bound expressions over (table, column), constants as typed
  // values. It reads only `q` and the view registry, so its result stays
  // valid until the next view registration (which bumps the catalog
  // epoch). Admit is the per-execution staleness gate: the first
  // candidate whose view's lag passes `max_staleness_us` (session knob;
  // -1 = unbounded) and the view's own bound, or nullptr. It counts
  // view.route_considered for every `q` of routable shape (no DISTINCT or
  // HAVING) while any view exists. The caller cost-compares the rewritten
  // plan with the base plan.
  struct Candidate {
    const ViewDef* view = nullptr;
    sql::BoundSelect rewritten;
  };
  std::vector<Candidate> Match(const sql::BoundSelect& q) const;
  const Candidate* Admit(const sql::BoundSelect& q,
                         const std::vector<Candidate>& candidates,
                         int64_t max_staleness_us) const;

  // Binds `stmt`, then Match plus Admit in one pass: the first view that
  // matches and passes the staleness gate (later views are not matched).
  struct Route {
    std::string view;
    sql::BoundSelect rewritten;
  };
  std::optional<Route> TryRoute(const sql::SelectStmt& stmt,
                                int64_t max_staleness_us) const;

  // SHOW STATS rows: view.<name>.rows / .pending / .staleness_us.
  void AppendStatsRows(std::vector<Row>* rows) const;

 private:
  // The body of Match: calls `take(view, rewritten)` for each matching
  // view in registration order, under the registry lock, until it
  // returns true.
  template <typename Take>
  void ForEachMatch(const sql::BoundSelect& q, Take&& take) const;
  Status MaintainLocked(ViewDef* v);
  Status RefreshLocked(ViewDef* v);
  ViewDef* Find(const std::string& name) const;
  // Trims each of v's base change logs up to the minimum cursor across
  // every view subscribing that base. Takes the registry lock shared;
  // caller must not hold it.
  void TrimLogs(const ViewDef& v) const;

  Catalog* catalog_;
  TransactionManager* tm_;

  mutable std::shared_mutex mu_;  // registry: guards views_ vector
  std::vector<std::unique_ptr<ViewDef>> views_;
};

}  // namespace view
}  // namespace oltap

#endif  // OLTAP_VIEW_VIEW_H_
