#include "view/view.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "sql/planner.h"

namespace oltap {
namespace view {

namespace {

// Set while a maintenance/refresh transaction commits so the commit hook
// does not recurse into OnCommit (view backing tables are never bases,
// but the guard also makes accidental cycles structurally impossible).
thread_local bool t_in_maintenance = false;

struct MaintenanceScope {
  bool prev;
  MaintenanceScope() : prev(t_in_maintenance) { t_in_maintenance = true; }
  ~MaintenanceScope() { t_in_maintenance = prev; }
};

// BFS order over the join graph starting at `start` (start excluded).
std::vector<int> JoinOrderFrom(int start, size_t n,
                               const std::vector<ViewDef::Edge>& edges) {
  std::vector<std::vector<int>> adj(n);
  for (const auto& e : edges) {
    adj[e.lt].push_back(e.rt);
    adj[e.rt].push_back(e.lt);
  }
  std::vector<bool> seen(n, false);
  std::vector<int> queue{start}, order;
  seen[start] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    int cur = queue[head];
    if (cur != start) order.push_back(cur);
    for (int nxt : adj[cur]) {
      if (!seen[nxt]) {
        seen[nxt] = true;
        queue.push_back(nxt);
      }
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// Value / row utilities.
// ---------------------------------------------------------------------------

bool ValuesEqual(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a.Compare(b) == 0;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesEqual(a[i], b[i])) return false;
  }
  return true;
}

// Coerces a build-query output cell into the backing column's type and
// nullability (hidden state columns are non-null: SUM's NULL-on-empty
// finalization becomes a stored zero; AVG's int sums widen to double).
Value CoerceTo(const Value& v, const ColumnDef& col) {
  if (v.is_null()) {
    if (col.nullable) return Value::Null(col.type);
    switch (col.type) {
      case ValueType::kInt64:
        return Value::Int64(0);
      case ValueType::kDouble:
        return Value::Double(0);
      case ValueType::kString:
        return Value::String("");
    }
  }
  if (v.type() == col.type) return v;
  if (col.type == ValueType::kDouble) return Value::Double(v.AsDouble());
  if (col.type == ValueType::kInt64 && v.type() == ValueType::kDouble) {
    return Value::Int64(static_cast<int64_t>(v.AsDouble()));
  }
  return v;
}

Result<Row> CoerceRow(const Row& r, const Schema& schema) {
  if (r.size() != schema.num_columns()) {
    return Status::Internal("view build row width mismatch");
  }
  Row out;
  out.reserve(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    out.push_back(CoerceTo(r[i], schema.column(i)));
  }
  return out;
}

bool PassesLocal(const ViewDef& v, int table, const Row& row) {
  for (const ExprPtr& e : v.local_bound[table]) {
    if (!e->EvalRow(row).AsBool()) return false;
  }
  return true;
}

Result<std::vector<Row>> RunQueryAt(const sql::BoundSelect& q,
                                    const Catalog& catalog, Timestamp ts) {
  auto plan = sql::PlanSelect(q, catalog, ts);
  if (!plan.ok()) return plan.status();
  return ExecutePlan(plan->root.get());
}

// Age of the view's oldest unapplied base change (0 when fully applied).
int64_t LagMicros(const ViewDef& v, int64_t now_us) {
  const Timestamp cursor = v.applied_ts.load(std::memory_order_acquire);
  int64_t lag = 0;
  for (Table* b : v.bases) {
    if (ChangeLog* log = b->change_log()) {
      lag = std::max(lag, log->OldestPendingMicrosSince(cursor, now_us));
    }
  }
  return lag;
}

// Tightest of the session knob and the view's own bound, against the
// view's lag at `now_us`.
bool WithinStaleness(const ViewDef& v, int64_t max_staleness_us,
                     int64_t now_us) {
  int64_t bound = -1;
  if (max_staleness_us >= 0) bound = max_staleness_us;
  if (v.max_staleness_us >= 0) {
    bound = bound < 0 ? v.max_staleness_us
                      : std::min(bound, v.max_staleness_us);
  }
  return bound < 0 || LagMicros(v, now_us) <= bound;
}

// Metric handles, resolved once (GetX is a registry-mutex map lookup).
obs::Counter* MaintainRuns() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("view.maintain_runs");
  return c;
}
obs::Counter* ChangesApplied() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("view.changes_applied");
  return c;
}
obs::Counter* Rebuilds() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("view.rebuilds");
  return c;
}
obs::Counter* GroupRecomputes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("view.group_recomputes");
  return c;
}
obs::Histogram* MaintainNs() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default()->GetHistogram("view.maintain_ns");
  return h;
}
obs::Histogram* FreshnessLagUs() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default()->GetHistogram("view.freshness_lag_us");
  return h;
}
obs::Counter* RouteConsidered() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("view.route_considered");
  return c;
}

// Routing handles neither DISTINCT nor HAVING.
bool RoutableShape(const sql::BoundSelect& q) {
  return !q.distinct && q.having == nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// CREATE MATERIALIZED VIEW
// ---------------------------------------------------------------------------

Status ViewManager::Create(const sql::CreateViewStmt& stmt) {
  if (stmt.select == nullptr) {
    return Status::InvalidArgument("view definition missing");
  }
  const sql::SelectStmt& sel = *stmt.select;
  OLTAP_ASSIGN_OR_RETURN(sql::BoundSelect q, sql::BindSelect(sel, *catalog_));
  if (q.distinct) {
    return Status::InvalidArgument("DISTINCT unsupported in views");
  }
  if (q.having != nullptr) {
    return Status::InvalidArgument("HAVING unsupported in views");
  }
  if (!q.order_by.empty() || q.limit >= 0) {
    return Status::InvalidArgument("ORDER BY/LIMIT unsupported in views");
  }
  if (sel.items.size() == 1 &&
      sel.items[0].expr->kind == sql::ParseExpr::Kind::kStar) {
    return Status::InvalidArgument("view select list may not use *");
  }

  auto def = std::make_unique<ViewDef>();
  def->name = stmt.name;
  def->sync = stmt.sync;
  def->max_staleness_us = stmt.max_staleness_us;
  def->definition = stmt.definition;

  for (const sql::BoundTable& t : q.from) {
    if (IsView(t.table->name())) {
      return Status::InvalidArgument("views over views unsupported: " +
                                     t.table->name());
    }
    if (std::find(def->bases.begin(), def->bases.end(), t.table) !=
        def->bases.end()) {
      return Status::InvalidArgument("self-joins unsupported: " +
                                     t.table->name());
    }
    def->bases.push_back(t.table);
  }
  const size_t nbases = def->bases.size();

  // (base, column) of a plain column reference; false for anything else.
  auto base_column = [&q](const ExprPtr& e, int* table, int* col) {
    if (e == nullptr || e->kind() != Expr::Kind::kColumn) return false;
    std::tie(*table, *col) = q.Locate(e->column_index());
    return true;
  };

  // WHERE, then ON conjuncts: single-table filters and join edges.
  def->local_bound.resize(nbases);
  auto add_conjunct = [&](const sql::BoundConjunct& c) -> Status {
    if (c.kind == sql::BoundConjunct::Kind::kLocal) {
      def->local_bound[c.table].push_back(q.OverOwnColumns(c));
      return Status::OK();
    }
    if (c.kind == sql::BoundConjunct::Kind::kOther) {
      return Status::InvalidArgument(
          "cross-table predicate is not an equality join edge");
    }
    // Join edges must connect same-typed columns: delta-join key probes
    // encode values with the partner column's type.
    const ExprPtr& l = c.expr->children()[0];
    const ExprPtr& r = c.expr->children()[1];
    if (l->result_type() != r->result_type()) {
      return Status::InvalidArgument("join edge joins mismatched types");
    }
    const auto [lt, lc] = q.Locate(l->column_index());
    const auto [rt, rc] = q.Locate(r->column_index());
    def->edges.push_back({lt, lc, rt, rc});
    return Status::OK();
  };
  for (const sql::BoundConjunct& c : q.where) {
    OLTAP_RETURN_NOT_OK(add_conjunct(c));
  }
  for (const auto& on : q.on) {
    for (const sql::BoundConjunct& c : on) OLTAP_RETURN_NOT_OK(add_conjunct(c));
  }
  for (size_t i = 0; i < nbases; ++i) {
    def->join_orders.push_back(
        JoinOrderFrom(static_cast<int>(i), nbases, def->edges));
  }

  // --- Select-list classification. ---
  std::set<std::string> out_names;
  std::vector<bool> grouped(q.group_by.size(), false);
  for (size_t k = 0; k < q.items.size(); ++k) {
    const sql::BoundItem& item = q.items[k];
    const sql::SelectItem& written = sel.items[k];
    // Unaliased plain columns surface under their bare column name (SQL
    // output-name semantics), so `SELECT t.a ...` is queryable as
    // `SELECT a FROM view`; a qualified default like "t.a" would not be.
    std::string out_name =
        !written.alias.empty() ? written.alias
        : written.expr->kind == sql::ParseExpr::Kind::kIdent
            ? written.expr->name
            : item.name;
    if (out_name.rfind("__", 0) == 0) {
      return Status::InvalidArgument("view column names may not start __");
    }
    if (!out_names.insert(out_name).second) {
      return Status::InvalidArgument("duplicate view column: " + out_name);
    }
    ViewDef::ItemOut out;
    out.name_out = out_name;
    if (item.kind == sql::BoundItem::Kind::kAgg) {
      const AggSpec& spec = q.aggs[item.index];
      ViewDef::AggDef ad;
      ad.fn = spec.fn;
      ad.out_type = spec.OutputType();
      if (spec.fn != AggSpec::Fn::kCountStar) {
        if (!base_column(spec.arg, &ad.table, &ad.col)) {
          return Status::InvalidArgument(
              "view aggregate arguments must be plain columns: " + item.name);
        }
        ValueType at = spec.arg->result_type();
        if ((spec.fn == AggSpec::Fn::kSum || spec.fn == AggSpec::Fn::kAvg) &&
            at == ValueType::kString) {
          return Status::InvalidArgument("SUM/AVG over string column");
        }
        ad.sum_is_int = spec.fn == AggSpec::Fn::kSum && at == ValueType::kInt64;
        // MIN/MAX cannot un-fold a delete; double-typed sums would drift
        // from a recompute (FP addition is order-sensitive). Both fall
        // back to recomputing the affected group from the bases.
        ad.recompute_on_delete =
            spec.fn == AggSpec::Fn::kMin || spec.fn == AggSpec::Fn::kMax ||
            ((spec.fn == AggSpec::Fn::kSum || spec.fn == AggSpec::Fn::kAvg) &&
             at == ValueType::kDouble);
      }
      ad.visible_idx = static_cast<int>(k);
      out.is_agg = true;
      out.agg_idx = static_cast<int>(def->aggs.size());
      def->aggs.push_back(ad);
    } else {
      const bool group_key = item.kind == sql::BoundItem::Kind::kGroupKey;
      const ExprPtr& e = group_key ? q.group_by[item.index] : item.expr;
      if (!base_column(e, &out.table, &out.col)) {
        return Status::InvalidArgument(
            "view select items must be plain columns or aggregates: " +
            item.name);
      }
      if (group_key) grouped[item.index] = true;
    }
    def->items.push_back(std::move(out));
  }

  def->is_aggregate = q.aggregate;
  def->build_query = q;
  std::vector<ColumnDef> cols;
  std::vector<std::string> key_names;

  if (def->is_aggregate) {
    if (q.group_by.empty()) {
      return Status::InvalidArgument(
          "aggregate views need at least one GROUP BY column");
    }
    if (std::find(grouped.begin(), grouped.end(), false) != grouped.end()) {
      return Status::InvalidArgument(
          "GROUP BY columns and non-aggregate select items must match");
    }
    for (size_t k = 0; k < def->items.size(); ++k) {
      const ViewDef::ItemOut& it = def->items[k];
      if (it.is_agg) {
        cols.push_back({it.name_out, def->aggs[it.agg_idx].out_type, true});
      } else {
        const ColumnDef& src =
            def->bases[it.table]->schema().column(it.col);
        cols.push_back({it.name_out, src.type, src.nullable});
        key_names.push_back(it.name_out);
      }
    }
    // Build query = definition + hidden-state aggregates, in backing
    // schema order.
    sql::BoundSelect& build = def->build_query;
    auto append = [&build, &cols](AggSpec spec, std::string name,
                                  ValueType type) {
      sql::BoundItem item;
      item.kind = sql::BoundItem::Kind::kAgg;
      item.index = build.aggs.size();
      item.name = name;
      build.aggs.push_back(std::move(spec));
      build.items.push_back(std::move(item));
      cols.push_back({std::move(name), type, false});
      return static_cast<int>(cols.size()) - 1;
    };
    def->rows_idx = append({AggSpec::Fn::kCountStar, nullptr}, "__rows",
                           ValueType::kInt64);
    for (size_t j = 0; j < def->aggs.size(); ++j) {
      ViewDef::AggDef& ad = def->aggs[j];
      switch (ad.fn) {
        case AggSpec::Fn::kCountStar:
          ad.count_idx = def->rows_idx;
          break;
        case AggSpec::Fn::kCount:
          ad.count_idx = ad.visible_idx;
          break;
        case AggSpec::Fn::kMin:
        case AggSpec::Fn::kMax:
          break;  // no hidden state; deletes recompute
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg: {
          const ExprPtr& arg = q.aggs[q.items[ad.visible_idx].index].arg;
          ad.count_idx = append({AggSpec::Fn::kCount, arg},
                                "__c" + std::to_string(j), ValueType::kInt64);
          ad.sum_idx = append(
              {AggSpec::Fn::kSum, arg}, "__s" + std::to_string(j),
              ad.sum_is_int ? ValueType::kInt64 : ValueType::kDouble);
          break;
        }
      }
    }
  } else {
    // Join view: the backing key is the union of every base's primary key,
    // which the select list must cover (it makes join rows unique).
    for (size_t i = 0; i < nbases; ++i) {
      const Schema& s = def->bases[i]->schema();
      for (int pk : s.key_columns()) {
        bool covered = false;
        for (const auto& it : def->items) {
          if (it.table == static_cast<int>(i) && it.col == pk) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          return Status::InvalidArgument(
              "join view must select every base primary-key column "
              "(missing " +
              def->bases[i]->name() + "." + s.column(pk).name + ")");
        }
      }
    }
    for (const auto& it : def->items) {
      const ColumnDef& src = def->bases[it.table]->schema().column(it.col);
      cols.push_back({it.name_out, src.type, src.nullable});
      const auto& pks = def->bases[it.table]->schema().key_columns();
      if (std::find(pks.begin(), pks.end(), it.col) != pks.end()) {
        key_names.push_back(it.name_out);
      }
    }
  }

  std::vector<int> key_idx;
  for (const std::string& kn : key_names) {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].name == kn) {
        key_idx.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  if (key_idx.empty()) {
    return Status::InvalidArgument("view has no usable primary key");
  }

  OLTAP_RETURN_NOT_OK(catalog_->AddTable(std::make_unique<Table>(
      def->name, Schema(std::move(cols), std::move(key_idx)),
      TableFormat::kDual, /*logged=*/false)));
  def->backing = catalog_->GetTable(def->name);

  // Subscribe before the initial build: changes committed while the build
  // scan runs land in the logs with ts > the build snapshot and are picked
  // up by the first maintenance round.
  for (Table* b : def->bases) b->EnsureChangeLog();

  Status built = RefreshLocked(def.get());
  if (!built.ok()) {
    catalog_->DropTable(def->name);
    return built;
  }

  {
    std::unique_lock lock(mu_);
    for (const auto& v : views_) {
      if (v->name == def->name) {
        lock.unlock();
        catalog_->DropTable(def->name);
        return Status::AlreadyExists("view exists: " + def->name);
      }
    }
    views_.push_back(std::move(def));
  }
  // Registration can change how existing SELECTs route.
  catalog_->BumpEpoch();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Refresh (full rebuild)
// ---------------------------------------------------------------------------

Status ViewManager::RefreshLocked(ViewDef* v) {
  MaintenanceScope scope;
  auto txn = tm_->Begin();
  const Timestamp snapshot = txn->begin_ts();
  const Schema& bs = v->backing->schema();

  Status st = [&]() -> Status {
    std::vector<std::string> keys;
    txn->Scan(v->backing,
              [&](const Row& r) { keys.push_back(EncodeKey(bs, r)); });
    for (std::string& k : keys) {
      OLTAP_RETURN_NOT_OK(txn->DeleteByKey(v->backing, std::move(k)));
    }
    auto rows = RunQueryAt(v->build_query, *catalog_, snapshot);
    if (!rows.ok()) return rows.status();
    for (const Row& r : *rows) {
      auto coerced = CoerceRow(r, bs);
      if (!coerced.ok()) return coerced.status();
      OLTAP_RETURN_NOT_OK(
          txn->Insert(v->backing, std::move(coerced).value()));
    }
    return Status::OK();
  }();
  if (st.ok()) {
    st = tm_->Commit(txn.get());
  } else {
    tm_->Abort(txn.get());
  }
  if (!st.ok()) return st;

  v->applied_ts.store(snapshot, std::memory_order_release);
  v->last_maintain_wall_us.store(SystemClock::Get()->NowMicros(),
                                 std::memory_order_release);
  TrimLogs(*v);
  Rebuilds()->Add(1);
  return Status::OK();
}

Status ViewManager::Refresh(const std::string& name) {
  ViewDef* v = Find(name);
  if (v == nullptr) return Status::NotFound("no such view: " + name);
  std::lock_guard<std::mutex> lock(v->mu);
  return RefreshLocked(v);
}

// ---------------------------------------------------------------------------
// Incremental maintenance
// ---------------------------------------------------------------------------

namespace {

struct SignedRow {
  int sign;  // +1 insert, -1 delete
  Row flat;  // base rows concatenated in FROM order
};

// Expands the change set of one source base into signed full join rows:
//   Δ(T1 ⋈ ... ⋈ Tn) = Σ_i T1^new..T_{i-1}^new ⋈ ΔT_i ⋈ T_{i+1}^old..Tn^old
// Tables before the source read the post-window snapshot (ts_new), tables
// after it read the pre-window snapshot (ts_old); processing sources in
// ascending FROM order makes the final positive row of any key the true
// post-state (used by the join-apply content-update path).
void ExpandSource(const ViewDef& v, int src,
                  const std::vector<ChangeLog::Change>& changes,
                  Timestamp ts_old, Timestamp ts_new,
                  const std::vector<size_t>& offsets,
                  std::vector<SignedRow>* out) {
  struct Partial {
    int sign;
    std::vector<Row> rows;  // indexed by base; bound slots filled
  };
  std::vector<Partial> partials;
  partials.reserve(changes.size());
  const size_t nbases = v.bases.size();
  for (const ChangeLog::Change& c : changes) {
    if (!PassesLocal(v, src, c.row)) continue;
    Partial p;
    p.sign = c.kind == ChangeLog::Kind::kInsert ? 1 : -1;
    p.rows.resize(nbases);
    p.rows[src] = c.row;
    partials.push_back(std::move(p));
  }

  for (int j : v.join_orders[src]) {
    if (partials.empty()) break;
    const Timestamp ts_j = j < src ? ts_new : ts_old;
    Table* tj = v.bases[j];
    const Schema& sj = tj->schema();

    // Edges from j to the already-bound set (join_orders guarantees >= 1;
    // bound set = {src} ∪ prefix of join_orders[src]).
    std::vector<int> jcols;
    std::vector<std::pair<int, int>> others;
    auto bound = [&](int t) {
      if (t == src) return true;
      for (int b : v.join_orders[src]) {
        if (b == j) return false;
        if (b == t) return true;
      }
      return false;
    };
    for (const ViewDef::Edge& e : v.edges) {
      if (e.lt == j && bound(e.rt)) {
        jcols.push_back(e.lc);
        others.emplace_back(e.rt, e.rc);
      } else if (e.rt == j && bound(e.lt)) {
        jcols.push_back(e.rc);
        others.emplace_back(e.lt, e.lc);
      }
    }

    // Point-lookup path when the edge columns cover j's primary key.
    bool point = sj.HasKey();
    for (int pk : sj.key_columns()) {
      if (std::find(jcols.begin(), jcols.end(), pk) == jcols.end()) {
        point = false;
        break;
      }
    }

    std::vector<Partial> next;
    if (point) {
      for (Partial& p : partials) {
        Row key_row(sj.num_columns());
        bool null_probe = false;
        for (size_t k = 0; k < jcols.size(); ++k) {
          const Value& val = p.rows[others[k].first][others[k].second];
          if (val.is_null()) {
            null_probe = true;  // SQL equality: NULL joins nothing
            break;
          }
          key_row[jcols[k]] = val;
        }
        if (null_probe) continue;
        Row fetched;
        if (!tj->Lookup(EncodeKey(sj, key_row), ts_j, &fetched)) continue;
        bool ok = PassesLocal(v, j, fetched);
        for (size_t k = 0; ok && k < jcols.size(); ++k) {
          const Value& a = fetched[jcols[k]];
          const Value& b = p.rows[others[k].first][others[k].second];
          ok = !a.is_null() && a.Compare(b) == 0;
        }
        if (!ok) continue;
        Partial np = p;
        np.rows[j] = std::move(fetched);
        next.push_back(std::move(np));
      }
    } else {
      std::unordered_multimap<std::string, Row> ht;
      tj->ScanVisible(ts_j, [&](const Row& r) {
        if (!PassesLocal(v, j, r)) return;
        for (int c : jcols) {
          if (r[c].is_null()) return;
        }
        ht.emplace(EncodeKeyColumns(r, jcols), r);
      });
      for (Partial& p : partials) {
        Row probe(sj.num_columns());
        bool null_probe = false;
        for (size_t k = 0; k < jcols.size(); ++k) {
          const Value& val = p.rows[others[k].first][others[k].second];
          if (val.is_null()) {
            null_probe = true;
            break;
          }
          probe[jcols[k]] = val;
        }
        if (null_probe) continue;
        auto [lo, hi] = ht.equal_range(EncodeKeyColumns(probe, jcols));
        for (auto it = lo; it != hi; ++it) {
          Partial np = p;
          np.rows[j] = it->second;
          next.push_back(std::move(np));
        }
      }
    }
    partials = std::move(next);
  }

  for (Partial& p : partials) {
    SignedRow sr;
    sr.sign = p.sign;
    sr.flat.resize(offsets.back());
    for (size_t t = 0; t < nbases; ++t) {
      for (size_t c = 0; c < p.rows[t].size(); ++c) {
        sr.flat[offsets[t] + c] = std::move(p.rows[t][c]);
      }
    }
    out->push_back(std::move(sr));
  }
}

}  // namespace

Status ViewManager::MaintainLocked(ViewDef* v) {
  MaintenanceScope scope;
  const int64_t start_us = SystemClock::Get()->NowMicros();
  auto txn = tm_->Begin();
  const Timestamp window_end = txn->begin_ts();
  const Timestamp window_start = v->applied_ts.load(std::memory_order_acquire);
  const size_t nbases = v->bases.size();

  std::vector<std::vector<ChangeLog::Change>> changes(nbases);
  size_t total = 0;
  int64_t oldest_wall = 0;
  for (size_t i = 0; i < nbases; ++i) {
    if (ChangeLog* log = v->bases[i]->change_log()) {
      log->Collect(window_start, window_end, &changes[i]);
      total += changes[i].size();
      for (const auto& c : changes[i]) {
        if (oldest_wall == 0 || c.wall_us < oldest_wall) {
          oldest_wall = c.wall_us;
        }
      }
    }
  }
  if (total == 0) {
    // Nothing to fold, but advancing the cursor matters: it is the GC
    // horizon pre-state reads pin, and it lets the logs trim.
    tm_->Abort(txn.get());
    v->applied_ts.store(window_end, std::memory_order_release);
    TrimLogs(*v);
    return Status::OK();
  }

  // Signed full join rows, sources in ascending FROM order.
  std::vector<size_t> offsets(nbases + 1, 0);
  for (size_t i = 0; i < nbases; ++i) {
    offsets[i + 1] = offsets[i] + v->bases[i]->schema().num_columns();
  }
  std::vector<SignedRow> delta;
  for (size_t i = 0; i < nbases; ++i) {
    if (!changes[i].empty()) {
      ExpandSource(*v, static_cast<int>(i), changes[i], window_start,
                   window_end, offsets, &delta);
    }
  }

  const Schema& bs = v->backing->schema();
  Status st = [&]() -> Status {
    if (!v->is_aggregate) {
      // --- Join view: accumulate net multiplicity per backing key. ---
      struct JoinAcc {
        int net = 0;
        bool has_pos = false;
        Row pos;
      };
      std::map<std::string, JoinAcc> accs;
      for (SignedRow& sr : delta) {
        Row brow(bs.num_columns());
        for (size_t k = 0; k < v->items.size(); ++k) {
          const ViewDef::ItemOut& it = v->items[k];
          brow[k] = sr.flat[offsets[it.table] + it.col];
        }
        JoinAcc& a = accs[EncodeKey(bs, brow)];
        a.net += sr.sign;
        if (sr.sign > 0) {
          a.has_pos = true;
          a.pos = std::move(brow);
        }
      }
      for (auto& [key, a] : accs) {
        Row old;
        const bool exists = txn->Get(v->backing, key, &old);
        if (a.net > 0) {
          OLTAP_RETURN_NOT_OK(exists
                                  ? txn->Update(v->backing, std::move(a.pos))
                                  : txn->Insert(v->backing,
                                                std::move(a.pos)));
        } else if (a.net < 0) {
          if (exists) OLTAP_RETURN_NOT_OK(txn->DeleteByKey(v->backing, key));
        } else if (a.has_pos && exists && !RowsEqual(old, a.pos)) {
          // Same key survived the window but its content changed (update
          // of a non-key column).
          OLTAP_RETURN_NOT_OK(txn->Update(v->backing, std::move(a.pos)));
        }
      }
      return Status::OK();
    }

    // --- Aggregate view: accumulate per-group deltas. ---
    std::vector<size_t> group_items;  // indices into items (== backing col)
    for (size_t k = 0; k < v->items.size(); ++k) {
      if (!v->items[k].is_agg) group_items.push_back(k);
    }
    struct AggAcc {
      Row group_vals;
      int64_t net_rows = 0;
      bool any_delete = false;
      struct PerAgg {
        int64_t cnt = 0;
        int64_t isum = 0;
        double dsum = 0;
        bool best_any = false;
        Value best;
      };
      std::vector<PerAgg> per;
    };
    std::map<std::string, AggAcc> groups;
    for (const SignedRow& sr : delta) {
      Row gvals;
      gvals.reserve(group_items.size());
      for (size_t gi : group_items) {
        const ViewDef::ItemOut& it = v->items[gi];
        gvals.push_back(sr.flat[offsets[it.table] + it.col]);
      }
      AggAcc& g = groups[HashKeyOf(gvals)];
      if (g.per.empty()) {
        g.group_vals = std::move(gvals);
        g.per.resize(v->aggs.size());
      }
      g.net_rows += sr.sign;
      if (sr.sign < 0) g.any_delete = true;
      for (size_t j = 0; j < v->aggs.size(); ++j) {
        const ViewDef::AggDef& ad = v->aggs[j];
        if (ad.fn == AggSpec::Fn::kCountStar) continue;
        const Value& arg = sr.flat[offsets[ad.table] + ad.col];
        if (arg.is_null()) continue;
        AggAcc::PerAgg& pa = g.per[j];
        pa.cnt += sr.sign;
        pa.isum += sr.sign * arg.AsInt64();
        pa.dsum += sr.sign * arg.AsDouble();
        if (sr.sign > 0 &&
            (ad.fn == AggSpec::Fn::kMin || ad.fn == AggSpec::Fn::kMax)) {
          if (!pa.best_any) {
            pa.best_any = true;
            pa.best = arg;
          } else if (ad.fn == AggSpec::Fn::kMin ? arg.Compare(pa.best) < 0
                                                : arg.Compare(pa.best) > 0) {
            pa.best = arg;
          }
        }
      }
    }

    bool any_fragile = false;
    for (const auto& ad : v->aggs) any_fragile |= ad.recompute_on_delete;

    for (auto& [hk, g] : groups) {
      Row probe(bs.num_columns());
      for (size_t k = 0; k < group_items.size(); ++k) {
        probe[group_items[k]] = g.group_vals[k];
      }
      const std::string key = EncodeKey(bs, probe);
      Row old;
      const bool exists = txn->Get(v->backing, key, &old);

      if (g.any_delete && any_fragile) {
        // Recompute this group from the bases at the window-end snapshot:
        // the build query filtered to the group's key values goes through
        // the same planner/aggregation path as a full rebuild, so the
        // resulting row is cell-identical to what REFRESH would store.
        sql::BoundSelect q = v->build_query;
        for (size_t k = 0; k < group_items.size(); ++k) {
          const ViewDef::ItemOut& it = v->items[group_items[k]];
          ExprPtr col =
              Expr::Column(q.from[it.table].offset + it.col,
                           v->bases[it.table]->schema().column(it.col).type);
          sql::BoundConjunct pred;
          pred.kind = sql::BoundConjunct::Kind::kLocal;
          pred.table = it.table;
          pred.expr = g.group_vals[k].is_null()
                          ? Expr::IsNull(std::move(col))
                          : Expr::Compare(CompareOp::kEq, std::move(col),
                                          Expr::Constant(g.group_vals[k]));
          q.where.push_back(std::move(pred));
        }
        auto rows = RunQueryAt(q, *catalog_, window_end);
        if (!rows.ok()) return rows.status();
        GroupRecomputes()->Add(1);
        if (rows->empty()) {
          if (exists) {
            OLTAP_RETURN_NOT_OK(txn->DeleteByKey(v->backing, key));
          }
        } else if (rows->size() == 1) {
          auto coerced = CoerceRow((*rows)[0], bs);
          if (!coerced.ok()) return coerced.status();
          OLTAP_RETURN_NOT_OK(
              exists ? txn->Update(v->backing, std::move(coerced).value())
                     : txn->Insert(v->backing, std::move(coerced).value()));
        } else {
          return Status::Internal("group recompute returned >1 row");
        }
        continue;
      }

      const int64_t old_rows = exists ? old[v->rows_idx].AsInt64() : 0;
      const int64_t new_rows = old_rows + g.net_rows;
      if (new_rows <= 0) {
        if (exists) OLTAP_RETURN_NOT_OK(txn->DeleteByKey(v->backing, key));
        continue;
      }
      Row nrow = exists ? std::move(old) : std::move(probe);
      nrow[v->rows_idx] = Value::Int64(new_rows);
      for (size_t j = 0; j < v->aggs.size(); ++j) {
        const ViewDef::AggDef& ad = v->aggs[j];
        const AggAcc::PerAgg& pa = g.per[j];
        switch (ad.fn) {
          case AggSpec::Fn::kCountStar:
            nrow[ad.visible_idx] = Value::Int64(new_rows);
            break;
          case AggSpec::Fn::kCount: {
            const int64_t old_c =
                exists ? nrow[ad.visible_idx].AsInt64() : 0;
            nrow[ad.visible_idx] = Value::Int64(old_c + pa.cnt);
            break;
          }
          case AggSpec::Fn::kSum: {
            const int64_t old_c = exists ? nrow[ad.count_idx].AsInt64() : 0;
            const int64_t new_c = old_c + pa.cnt;
            nrow[ad.count_idx] = Value::Int64(new_c);
            if (ad.sum_is_int) {
              const int64_t new_s =
                  (exists ? nrow[ad.sum_idx].AsInt64() : 0) + pa.isum;
              nrow[ad.sum_idx] = Value::Int64(new_s);
              nrow[ad.visible_idx] = new_c > 0
                                         ? Value::Int64(new_s)
                                         : Value::Null(ValueType::kInt64);
            } else {
              const double new_s =
                  (exists ? nrow[ad.sum_idx].AsDouble() : 0) + pa.dsum;
              nrow[ad.sum_idx] = Value::Double(new_s);
              nrow[ad.visible_idx] = new_c > 0
                                         ? Value::Double(new_s)
                                         : Value::Null(ValueType::kDouble);
            }
            break;
          }
          case AggSpec::Fn::kAvg: {
            const int64_t old_c = exists ? nrow[ad.count_idx].AsInt64() : 0;
            const int64_t new_c = old_c + pa.cnt;
            const double new_s =
                (exists ? nrow[ad.sum_idx].AsDouble() : 0) + pa.dsum;
            nrow[ad.count_idx] = Value::Int64(new_c);
            nrow[ad.sum_idx] = Value::Double(new_s);
            nrow[ad.visible_idx] =
                new_c > 0 ? Value::Double(new_s / static_cast<double>(new_c))
                          : Value::Null(ValueType::kDouble);
            break;
          }
          case AggSpec::Fn::kMin:
          case AggSpec::Fn::kMax: {
            // Insert-only on this path (a delete would have forced the
            // recompute branch above).
            Value cur = exists ? nrow[ad.visible_idx]
                               : Value::Null(ad.out_type);
            if (pa.best_any) {
              if (cur.is_null()) {
                cur = pa.best;
              } else if (ad.fn == AggSpec::Fn::kMin
                             ? pa.best.Compare(cur) < 0
                             : pa.best.Compare(cur) > 0) {
                cur = pa.best;
              }
            }
            nrow[ad.visible_idx] = cur;
            break;
          }
        }
      }
      OLTAP_RETURN_NOT_OK(exists ? txn->Update(v->backing, std::move(nrow))
                                 : txn->Insert(v->backing, std::move(nrow)));
    }
    return Status::OK();
  }();

  // Failpoint "view.maintain.error" fails the round at its commit.
  if (st.ok()) st = OLTAP_FAILPOINT_STATUS("view.maintain.error");
  if (st.ok()) {
    st = tm_->Commit(txn.get());
  } else {
    tm_->Abort(txn.get());
  }
  if (!st.ok()) return st;  // cursor unchanged: next round replays window

  v->applied_ts.store(window_end, std::memory_order_release);
  const int64_t now_us = SystemClock::Get()->NowMicros();
  v->last_maintain_wall_us.store(now_us, std::memory_order_release);
  TrimLogs(*v);
  MaintainRuns()->Add(1);
  ChangesApplied()->Add(total);
  MaintainNs()->Record(
      static_cast<uint64_t>((now_us - start_us) * 1000));
  if (oldest_wall > 0 && now_us > oldest_wall) {
    FreshnessLagUs()->Record(static_cast<uint64_t>(now_us - oldest_wall));
  }
  return Status::OK();
}

Status ViewManager::Maintain(const std::string& name) {
  ViewDef* v = Find(name);
  if (v == nullptr) return Status::NotFound("no such view: " + name);
  std::lock_guard<std::mutex> lock(v->mu);
  return MaintainLocked(v);
}

size_t ViewManager::MaintainAll() {
  std::vector<ViewDef*> all;
  {
    std::shared_lock lock(mu_);
    all.reserve(views_.size());
    for (const auto& v : views_) all.push_back(v.get());
  }
  size_t applied = 0;
  for (ViewDef* v : all) {
    const Timestamp cursor = v->applied_ts.load(std::memory_order_acquire);
    bool pending = false;
    for (Table* b : v->bases) {
      ChangeLog* log = b->change_log();
      if (log != nullptr && log->PendingSince(cursor) > 0) {
        pending = true;
        break;
      }
    }
    std::lock_guard<std::mutex> lock(v->mu);
    Status st = MaintainLocked(v);
    if (!st.ok()) {
      OLTAP_LOG(Warning) << "view maintenance failed for " << v->name << ": "
                         << st.ToString();
    } else if (pending) {
      ++applied;
    }
  }
  return applied;
}

void ViewManager::OnCommit(const std::vector<Table*>& tables, Timestamp) {
  if (t_in_maintenance) return;
  std::vector<ViewDef*> targets;
  {
    std::shared_lock lock(mu_);
    for (const auto& v : views_) {
      if (!v->sync) continue;
      for (Table* b : v->bases) {
        if (std::find(tables.begin(), tables.end(), b) != tables.end()) {
          targets.push_back(v.get());
          break;
        }
      }
    }
  }
  // Registry lock released before taking any per-view mutex (lock-order
  // rule: v->mu is always acquired lock-free of mu_).
  for (ViewDef* v : targets) {
    std::lock_guard<std::mutex> lock(v->mu);
    Status st = MaintainLocked(v);
    if (!st.ok()) {
      // The client commit is already acknowledged; the cursor did not
      // advance, so the next maintenance round replays this window.
      OLTAP_LOG(Warning) << "sync view maintenance failed for " << v->name
                         << ": " << st.ToString();
    }
  }
}

Status ViewManager::RebuildAllAfterRecovery() {
  std::vector<ViewDef*> all;
  {
    std::shared_lock lock(mu_);
    for (const auto& v : views_) all.push_back(v.get());
  }
  Status first;
  for (ViewDef* v : all) {
    std::lock_guard<std::mutex> lock(v->mu);
    Status st = RefreshLocked(v);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

void ViewManager::TrimLogs(const ViewDef& v) const {
  std::shared_lock lock(mu_);
  for (Table* base : v.bases) {
    ChangeLog* log = base->change_log();
    if (log == nullptr) continue;
    Timestamp min_cursor = kMaxTimestamp;
    for (const auto& other : views_) {
      if (std::find(other->bases.begin(), other->bases.end(), base) ==
          other->bases.end()) {
        continue;
      }
      min_cursor = std::min(
          min_cursor, other->applied_ts.load(std::memory_order_acquire));
    }
    // During CREATE the view is not registered yet; its own cursor bounds
    // the trim.
    min_cursor =
        std::min(min_cursor, v.applied_ts.load(std::memory_order_acquire));
    log->TrimThrough(min_cursor);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

ViewDef* ViewManager::Find(const std::string& name) const {
  std::shared_lock lock(mu_);
  for (const auto& v : views_) {
    if (v->name == name) return v.get();
  }
  return nullptr;
}

bool ViewManager::IsView(const std::string& name) const {
  return Find(name) != nullptr;
}

size_t ViewManager::num_views() const {
  std::shared_lock lock(mu_);
  return views_.size();
}

std::vector<WalOp> ViewManager::ViewDdls() const {
  std::shared_lock lock(mu_);
  std::vector<WalOp> ddls;
  ddls.reserve(views_.size());
  for (const auto& v : views_) {
    std::string ddl = "CREATE MATERIALIZED VIEW " + v->name;
    if (v->sync) {
      ddl += " SYNC";
    } else {
      ddl += " DEFERRED";
      if (v->max_staleness_us >= 0) {
        ddl += " STALENESS " + std::to_string(v->max_staleness_us);
      }
    }
    ddl += " AS " + v->definition;
    ddls.push_back(WalOp::CreateView(v->name, std::move(ddl)));
  }
  return ddls;
}

Timestamp ViewManager::GcHorizon() const {
  std::shared_lock lock(mu_);
  Timestamp horizon = kMaxTimestamp;
  for (const auto& v : views_) {
    horizon =
        std::min(horizon, v->applied_ts.load(std::memory_order_acquire));
  }
  return horizon;
}

int64_t ViewManager::StalenessMicros(const std::string& name,
                                     int64_t now_us) const {
  ViewDef* v = Find(name);
  return v == nullptr ? 0 : LagMicros(*v, now_us);
}

void ViewManager::AppendStatsRows(std::vector<Row>* rows) const {
  const int64_t now_us = SystemClock::Get()->NowMicros();
  std::shared_lock lock(mu_);
  for (const auto& v : views_) {
    const Timestamp cursor = v->applied_ts.load(std::memory_order_acquire);
    int64_t pending = 0;
    for (Table* b : v->bases) {
      if (ChangeLog* log = b->change_log()) {
        pending += static_cast<int64_t>(log->PendingSince(cursor));
      }
    }
    rows->push_back(
        Row{Value::String("view." + v->name + ".rows"),
            Value::Int64(static_cast<int64_t>(
                v->backing->ApproxRowCount()))});
    rows->push_back(Row{Value::String("view." + v->name + ".pending"),
                        Value::Int64(pending)});
    rows->push_back(Row{Value::String("view." + v->name + ".staleness_us"),
                        Value::Int64(LagMicros(*v, now_us))});
  }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

template <typename Take>
void ViewManager::ForEachMatch(const sql::BoundSelect& q, Take&& take) const {
  if (!RoutableShape(q) || num_views() == 0) return;

  // A join edge as an unordered pair of (base table, column).
  using EdgeKey = std::pair<std::pair<const Table*, int>,
                            std::pair<const Table*, int>>;
  auto edge_key = [](const Table* a, int ac, const Table* b, int bc) {
    auto l = std::make_pair(a, ac), r = std::make_pair(b, bc);
    return l < r ? EdgeKey{l, r} : EdgeKey{r, l};
  };
  // The query's conjuncts: join edges, and single-table conjuncts both as
  // written (combined scope) and over their table's own columns.
  struct Local {
    const Table* table;
    ExprPtr own;    // over the table's columns
    ExprPtr scope;  // over the query's combined scope
  };
  std::vector<EdgeKey> q_edges;
  std::vector<Local> q_locals;
  auto add_conjunct = [&](const sql::BoundConjunct& c) {
    if (c.kind == sql::BoundConjunct::Kind::kOther) return false;
    if (c.kind == sql::BoundConjunct::Kind::kLocal) {
      q_locals.push_back({q.from[c.table].table, q.OverOwnColumns(c), c.expr});
      return true;
    }
    const auto [lt, lc] = q.Locate(c.expr->children()[0]->column_index());
    const auto [rt, rc] = q.Locate(c.expr->children()[1]->column_index());
    q_edges.push_back(edge_key(q.from[lt].table, lc, q.from[rt].table, rc));
    return true;
  };
  for (const sql::BoundConjunct& c : q.where) {
    if (!add_conjunct(c)) return;
  }
  for (const auto& on : q.on) {
    for (const sql::BoundConjunct& c : on) {
      if (!add_conjunct(c)) return;
    }
  }
  std::sort(q_edges.begin(), q_edges.end());
  const size_t num_cols =
      static_cast<size_t>(q.from.back().offset + q.from.back().width);

  std::shared_lock lock(mu_);
  for (const auto& vp : views_) {
    const ViewDef& v = *vp;
    // 1. Same base set: each query relation is a distinct view base.
    if (v.bases.size() != q.from.size()) continue;
    std::vector<int> q2v(q.from.size(), -1);
    std::vector<bool> taken(v.bases.size(), false);
    bool same_bases = true;
    for (size_t t = 0; t < q.from.size() && same_bases; ++t) {
      auto it = std::find(v.bases.begin(), v.bases.end(), q.from[t].table);
      const size_t vb = static_cast<size_t>(it - v.bases.begin());
      same_bases = it != v.bases.end() && !taken[vb];
      if (same_bases) {
        taken[vb] = true;
        q2v[t] = static_cast<int>(vb);
      }
    }
    if (!same_bases) continue;
    // 2. Same join-edge set.
    std::vector<EdgeKey> v_edges;
    for (const ViewDef::Edge& e : v.edges) {
      v_edges.push_back(edge_key(v.bases[e.lt], e.lc, v.bases[e.rt], e.rc));
    }
    std::sort(v_edges.begin(), v_edges.end());
    if (v_edges != q_edges) continue;
    // 3. Every local predicate of the view appears in the query
    //    (subsumption); the query's leftovers filter the backing table.
    std::vector<bool> consumed(q_locals.size(), false);
    bool subsumed = true;
    for (size_t vb = 0; vb < v.bases.size() && subsumed; ++vb) {
      for (const ExprPtr& pred : v.local_bound[vb]) {
        size_t i = 0;
        while (i < q_locals.size() &&
               (consumed[i] || q_locals[i].table != v.bases[vb] ||
                !q_locals[i].own->SameAs(*pred))) {
          ++i;
        }
        if (i == q_locals.size()) {
          subsumed = false;
          break;
        }
        consumed[i] = true;
      }
    }
    if (!subsumed) continue;

    // Query scope column -> backing column holding it, for the view's
    // plain-column items.
    std::vector<int> to_backing(num_cols, -1);
    for (size_t k = 0; k < v.items.size(); ++k) {
      const ViewDef::ItemOut& it = v.items[k];
      if (it.is_agg) continue;
      for (size_t t = 0; t < q2v.size(); ++t) {
        if (q2v[t] == it.table) {
          to_backing[static_cast<size_t>(q.from[t].offset + it.col)] =
              static_cast<int>(k);
        }
      }
    }
    bool unmapped = false;
    auto remap = [&](const ExprPtr& e) {
      return Expr::RemapColumns(e, [&](int col) {
        const int k = to_backing[static_cast<size_t>(col)];
        unmapped |= k < 0;
        return k;
      });
    };
    const Schema& bs = v.backing->schema();

    sql::BoundSelect rewritten;
    if (!v.is_aggregate) {
      // Join view: view rows are exactly the join rows, so any query
      // (plain or aggregate) over columns the view carries runs over the
      // backing table as written.
      rewritten.aggregate = q.aggregate;
      rewritten.items = q.items;
      for (sql::BoundItem& item : rewritten.items) {
        if (item.expr != nullptr) item.expr = remap(item.expr);
      }
      for (const ExprPtr& g : q.group_by) {
        rewritten.group_by.push_back(remap(g));
      }
      rewritten.aggs = q.aggs;
      for (AggSpec& a : rewritten.aggs) {
        if (a.arg != nullptr) a.arg = remap(a.arg);
      }
    } else {
      // Aggregate view: the query must aggregate at the same grain; its
      // aggregates become reads of the view's finalized columns and the
      // group keys of its key columns. Residual filters may only touch
      // group columns (a filter on a group column commutes with the
      // aggregation).
      if (!q.aggregate) continue;
      std::set<std::pair<int, int>> q_groups, v_groups;
      for (const ExprPtr& g : q.group_by) {
        if (g->kind() != Expr::Kind::kColumn) break;
        const auto [t, col] = q.Locate(g->column_index());
        q_groups.insert({q2v[t], col});
      }
      for (const ViewDef::ItemOut& it : v.items) {
        if (!it.is_agg) v_groups.insert({it.table, it.col});
      }
      if (q_groups.size() != q.group_by.size() || q_groups != v_groups) {
        continue;
      }
      for (const sql::BoundItem& item : q.items) {
        sql::BoundItem out;
        out.name = item.name;
        if (item.kind == sql::BoundItem::Kind::kGroupKey) {
          out.expr = remap(q.group_by[item.index]);
        } else {
          const AggSpec& spec = q.aggs[item.index];
          int at = -1, ac = -1;
          if (spec.arg != nullptr) {
            if (spec.arg->kind() != Expr::Kind::kColumn) {
              unmapped = true;
              break;
            }
            std::tie(at, ac) = q.Locate(spec.arg->column_index());
            at = q2v[at];
          }
          auto found = std::find_if(
              v.aggs.begin(), v.aggs.end(), [&](const ViewDef::AggDef& ad) {
                return ad.fn == spec.fn &&
                       (ad.fn == AggSpec::Fn::kCountStar ||
                        (ad.table == at && ad.col == ac));
              });
          if (found == v.aggs.end()) {
            unmapped = true;
            break;
          }
          out.expr = Expr::Column(found->visible_idx,
                                  bs.column(found->visible_idx).type);
        }
        rewritten.items.push_back(std::move(out));
      }
    }
    for (size_t i = 0; i < q_locals.size(); ++i) {
      if (consumed[i]) continue;
      sql::BoundConjunct c;
      c.kind = sql::BoundConjunct::Kind::kLocal;
      c.table = 0;
      c.expr = remap(q_locals[i].scope);
      rewritten.where.push_back(std::move(c));
    }
    if (unmapped) continue;

    sql::BoundTable backing;
    backing.table = v.backing;
    backing.alias = v.name;
    backing.width = static_cast<int>(bs.num_columns());
    rewritten.from.push_back(std::move(backing));
    rewritten.on.resize(1);
    rewritten.order_by = q.order_by;
    rewritten.limit = q.limit;
    rewritten.fingerprint = q.fingerprint + " ROUTED VIA " + v.name;
    if (take(v, std::move(rewritten))) return;
  }
}

std::vector<ViewManager::Candidate> ViewManager::Match(
    const sql::BoundSelect& q) const {
  std::vector<Candidate> out;
  ForEachMatch(q, [&](const ViewDef& v, sql::BoundSelect&& rewritten) {
    out.push_back({&v, std::move(rewritten)});
    return false;
  });
  return out;
}

const ViewManager::Candidate* ViewManager::Admit(
    const sql::BoundSelect& q, const std::vector<Candidate>& candidates,
    int64_t max_staleness_us) const {
  if (!RoutableShape(q) || num_views() == 0) return nullptr;
  RouteConsidered()->Add(1);
  const int64_t now_us = SystemClock::Get()->NowMicros();
  for (const Candidate& c : candidates) {
    if (WithinStaleness(*c.view, max_staleness_us, now_us)) return &c;
  }
  return nullptr;
}

std::optional<ViewManager::Route> ViewManager::TryRoute(
    const sql::SelectStmt& stmt, int64_t max_staleness_us) const {
  if (num_views() == 0) return std::nullopt;
  auto bound = sql::BindSelect(stmt, *catalog_);
  if (!bound.ok() || !RoutableShape(*bound)) return std::nullopt;
  RouteConsidered()->Add(1);
  const int64_t now_us = SystemClock::Get()->NowMicros();
  std::optional<Route> route;
  ForEachMatch(*bound, [&](const ViewDef& v, sql::BoundSelect&& rewritten) {
    if (!WithinStaleness(v, max_staleness_us, now_us)) return false;
    route = Route{v.name, std::move(rewritten)};
    return true;
  });
  return route;
}

}  // namespace view
}  // namespace oltap
