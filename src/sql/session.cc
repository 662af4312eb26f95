#include "sql/session.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <optional>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "opt/stats.h"
#include "sched/workload_manager.h"
#include "sql/parser.h"
#include "storage/column_store.h"
#include "storage/freshness.h"

namespace oltap {
namespace {

// Coerces a literal/computed value to a column type (int <-> double).
Result<Value> CoerceTo(const Value& v, ValueType type) {
  if (v.is_null()) return Value::Null(type);
  if (v.type() == type) return v;
  if (type == ValueType::kDouble && v.type() == ValueType::kInt64) {
    return Value::Double(static_cast<double>(v.AsInt64()));
  }
  if (type == ValueType::kInt64 && v.type() == ValueType::kDouble) {
    return Value::Int64(static_cast<int64_t>(v.AsDouble()));
  }
  return Status::InvalidArgument(
      std::string("cannot coerce ") + ValueTypeToString(v.type()) + " to " +
      ValueTypeToString(type));
}

// Calls `fn` with each row of `table` that `where` (bound over the table's
// schema; null = every row) selects, as `txn` sees it: own writes
// overlaid. When `where` pins every primary-key column with an equality to
// a constant of the column's type, that one row is fetched through the key
// and the whole `where` then tested on it; otherwise the table is
// scanned. Double keys always scan: -0.0 and 0.0 compare equal but encode
// apart.
void ForEachMatch(Transaction* txn, Table* table, const ExprPtr& where,
                  const std::function<void(const Row&)>& fn) {
  auto consider = [&](const Row& row) {
    if (where != nullptr) {
      Value v = where->EvalRow(row);
      if (v.is_null() || !v.AsBool()) return;
    }
    fn(row);
  };
  const Schema& schema = table->schema();
  Row key_row(schema.num_columns());
  size_t pinned = 0;
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(where, &conjuncts);
  for (int k : schema.key_columns()) {
    const ValueType type = schema.column(k).type;
    for (const ExprPtr& c : conjuncts) {
      Expr::ColumnPredicate cp;
      if (type != ValueType::kDouble && c->AsColumnPredicate(&cp) &&
          cp.column == k && cp.op == CompareOp::kEq &&
          !cp.constant.is_null() && cp.constant.type() == type) {
        key_row[k] = cp.constant;
        ++pinned;
        break;
      }
    }
  }
  if (pinned == 0 || pinned < schema.key_columns().size()) {
    txn->Scan(table, consider);
    return;
  }
  Row row;
  if (txn->GetByRow(table, key_row, &row)) consider(row);
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  size_t shown = std::min(rows.size(), max_rows);
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      cells[r][c] = rows[r][c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  auto pad = [&](const std::string& s, size_t w) {
    out += s;
    out.append(w - s.size(), ' ');
    out += "  ";
  };
  for (size_t c = 0; c < columns.size(); ++c) pad(columns[c], widths[c]);
  out += "\n";
  for (size_t c = 0; c < columns.size(); ++c) {
    out.append(widths[c], '-');
    out += "  ";
  }
  out += "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) pad(cells[r][c], widths[c]);
    out += "\n";
  }
  if (rows.size() > shown) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

Database::Database(Wal* wal) : txn_(&catalog_, wal) {
  // Synchronous view maintenance rides the commit-ack hook: it fires once
  // a client commit is durable and visible, on the committing thread.
  txn_.SetCommitHook([this](const std::vector<Table*>& tables, Timestamp ts) {
    views_.OnCommit(tables, ts);
  });
  // Every live table creation (SQL or Catalog::CreateTable) logs its
  // CREATE TABLE record before the table appears.
  if (wal != nullptr) {
    catalog_.SetCreateHook(
        [this](const Table& table, const std::function<Status()>& publish) {
          return txn_.CommitDdl(WalOp::CreateTable(table), publish);
        });
  }
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  return ExecuteImpl(sql, nullptr);
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const QueryGrant& grant) {
  return ExecuteImpl(sql, &grant);
}

Result<QueryResult> Database::ExecuteImpl(const std::string& sql,
                                          const QueryGrant* grant) {
  OLTAP_ASSIGN_OR_RETURN(Prepared p, Prepare(sql));
  const sql::Statement& stmt = p.stmt;
  if (p.select == nullptr) {
    if (stmt.kind == sql::Statement::Kind::kCreateTable) {
      return RunCreate(*stmt.create);
    }
    if (stmt.kind == sql::Statement::Kind::kCreateView) {
      OLTAP_RETURN_NOT_OK(views_.Create(*stmt.create_view));
      // Logged once built: a record never names a view that failed to
      // build. Its backing table is not logged (Table::logged()).
      if (wal() != nullptr) {
        OLTAP_RETURN_NOT_OK(txn_.CommitDdl(
            WalOp::CreateView(stmt.create_view->name, sql),
            [] { return Status::OK(); }));
      }
      return QueryResult{};
    }
    if (stmt.kind == sql::Statement::Kind::kRefreshView) {
      OLTAP_RETURN_NOT_OK(views_.Refresh(stmt.refresh_view->name));
      return QueryResult{};
    }
    if (stmt.kind == sql::Statement::Kind::kCheckpoint) {
      // Non-transactional: the checkpoint pins its own snapshot.
      return RunCheckpoint();
    }
  }
  std::unique_ptr<Transaction> txn = txn_.Begin();
  auto result = RunStatement(txn.get(), p, grant);
  if (!result.ok()) {
    txn_.Abort(txn.get());
    return result;
  }
  OLTAP_RETURN_NOT_OK(txn_.Commit(txn.get()));
  return result;
}

Result<QueryResult> Database::ExecuteIn(Transaction* txn,
                                        const std::string& sql) {
  OLTAP_ASSIGN_OR_RETURN(Prepared p, Prepare(sql));
  if (p.select == nullptr &&
      (p.stmt.kind == sql::Statement::Kind::kCreateTable ||
       p.stmt.kind == sql::Statement::Kind::kCreateView ||
       p.stmt.kind == sql::Statement::Kind::kRefreshView)) {
    return Status::FailedPrecondition("DDL is not transactional");
  }
  return RunStatement(txn, p);
}

Result<QueryResult> Database::RunStatement(Transaction* txn,
                                           const Prepared& p,
                                           const QueryGrant* grant) {
  if (p.select != nullptr) return RunSelect(txn, *p.select, grant);
  const sql::Statement& s = p.stmt;
  switch (s.kind) {
    case sql::Statement::Kind::kSelect:
      // Unreachable: Prepare returns every SELECT as a cached entry.
      return Status::Internal("SELECT outside the statement cache");
    case sql::Statement::Kind::kInsert:
      return RunInsert(txn, *s.insert);
    case sql::Statement::Kind::kUpdate:
      return RunUpdate(txn, *s.update);
    case sql::Statement::Kind::kDelete:
      return RunDelete(txn, *s.del);
    case sql::Statement::Kind::kCreateTable:
      return RunCreate(*s.create);
    case sql::Statement::Kind::kCreateView:
    case sql::Statement::Kind::kRefreshView:
      return Status::FailedPrecondition("view DDL is not transactional");
    case sql::Statement::Kind::kShowStats:
      return RunShowStats();
    case sql::Statement::Kind::kAnalyze:
      return RunAnalyze(txn, *s.analyze_stmt);
    case sql::Statement::Kind::kSet:
      return RunSet(*s.set);
    case sql::Statement::Kind::kCheckpoint:
      return Status::FailedPrecondition("CHECKPOINT is not transactional");
  }
  return Status::Internal("unhandled statement");
}

namespace {

// One result row per profile node: operator (indented by depth), planner
// estimate (NULL when the plan carried none), rows, batches, inclusive
// time in milliseconds.
void FlattenProfile(const obs::QueryProfile::Node& node, int depth,
                    std::vector<Row>* out) {
  std::string label(static_cast<size_t>(depth) * 2, ' ');
  label += node.name;
  // llround matches the %.0f formatting EXPLAIN uses for the same number.
  Value est = node.est_rows < 0 ? Value::Null()
                                : Value::Int64(std::llround(node.est_rows));
  out->push_back(Row{Value::String(std::move(label)), std::move(est),
                     Value::Int64(static_cast<int64_t>(node.rows)),
                     Value::Int64(static_cast<int64_t>(node.batches)),
                     Value::Double(static_cast<double>(node.time_ns) * 1e-6)});
  for (const obs::QueryProfile::Node& child : node.children) {
    FlattenProfile(child, depth + 1, out);
  }
}

// Harvests estimate-vs-actual samples from an executed plan for the
// feedback loop. `scans` maps each FROM relation to its scan operator.
void CollectOpSamples(const PhysicalOp* op,
                      const std::vector<const ScanOp*>& scans,
                      std::vector<opt::OpSample>* out) {
  if (op->est_rows() >= 0) {
    opt::OpSample s;
    s.est_rows = op->est_rows();
    s.actual_rows = static_cast<double>(op->op_stats().rows);
    for (size_t i = 0; i < scans.size(); ++i) {
      if (scans[i] == op) s.scan_from_index = static_cast<int>(i);
    }
    out->push_back(s);
  }
  for (const PhysicalOp* child : op->Children()) {
    CollectOpSamples(child, scans, out);
  }
}

// Plan cost for base-vs-view comparison: the most expensive node (est_cost
// is cumulative per subtree, so the root of the costed region dominates).
// -1 when the plan carries no estimates.
double MaxPlanCost(const PhysicalOp* op) {
  double cost = op->est_cost();
  for (const PhysicalOp* child : op->Children()) {
    cost = std::max(cost, MaxPlanCost(child));
  }
  return cost;
}

}  // namespace

// Everything about a SELECT text that holds for one catalog epoch. The
// route choice may stay fixed that long because either side answers the
// query exactly (DESIGN.md §8, "Statement cache").
struct Database::CachedSelect {
  enum class Choice : int8_t { kUnmade, kBase, kView };

  explicit CachedSelect(uint64_t e) : epoch(e) {}

  sql::Statement stmt;  // the parse (EXPLAIN / ANALYZE flags)
  sql::BoundSelect bound;
  // Views the query's shape matches, in routing order.
  std::vector<view::ViewManager::Candidate> candidates;
  // Per candidate, the base-vs-view cost choice. The first execution that
  // admits the candidate makes it from the two plans it needs anyway;
  // later executions read it and plan only the chosen side. Concurrent
  // first executions may both set it; either value is a choice made from
  // that epoch's estimates, so the entry is shared without a lock.
  std::unique_ptr<std::atomic<Choice>[]> choices;
  const uint64_t epoch;
};

Result<Database::Prepared> Database::Prepare(const std::string& sql) {
  static obs::Counter* hits =
      obs::MetricsRegistry::Default()->GetCounter("sql.stmt_cache.hits");
  static obs::Counter* misses =
      obs::MetricsRegistry::Default()->GetCounter("sql.stmt_cache.misses");
  static obs::Counter* invalidations =
      obs::MetricsRegistry::Default()->GetCounter(
          "sql.stmt_cache.invalidations");
  // Read before binding: a change that lands mid-fill leaves this entry
  // stamped older than the catalog, so the next lookup rebuilds it.
  const uint64_t epoch = catalog_.epoch();
  Prepared p;
  {
    std::shared_lock lock(stmt_cache_mu_);
    auto it = stmt_cache_.find(sql);
    if (it != stmt_cache_.end()) {
      if (it->second->epoch == epoch) {
        hits->Add(1);
        p.select = it->second;
        return p;
      }
      invalidations->Add(1);
    }
  }
  OLTAP_ASSIGN_OR_RETURN(p.stmt, sql::Parse(sql));
  if (p.stmt.kind != sql::Statement::Kind::kSelect) return p;
  misses->Add(1);

  auto entry = std::make_shared<CachedSelect>(epoch);
  OLTAP_ASSIGN_OR_RETURN(entry->bound,
                         sql::BindSelect(*p.stmt.select, catalog_));
  entry->candidates = views_.Match(entry->bound);
  // Value-initialized: every choice starts kUnmade.
  entry->choices = std::make_unique<std::atomic<CachedSelect::Choice>[]>(
      entry->candidates.size());
  entry->stmt = std::move(p.stmt);
  p.select = entry;

  const size_t hash = std::hash<std::string>{}(sql);
  if (seen_[hash % kSeenSlots].exchange(hash, std::memory_order_relaxed) !=
      hash) {
    return p;  // first sighting: run uncached
  }
  std::unique_lock lock(stmt_cache_mu_);
  if (stmt_cache_.size() >= kStatementCacheCapacity) stmt_cache_.clear();
  // A slower fill from an older epoch must not replace a newer entry.
  std::shared_ptr<const CachedSelect>& slot = stmt_cache_[sql];
  if (slot == nullptr || slot->epoch <= epoch) slot = std::move(entry);
  return p;
}

Result<QueryResult> Database::RunSelect(Transaction* txn,
                                        const CachedSelect& s,
                                        const QueryGrant* grant) {
  const bool explain = s.stmt.explain;
  const bool analyze = s.stmt.analyze;
  sql::PlannerOptions popts;
  popts.use_optimizer = optimizer_enabled();
  popts.feedback = &feedback_;

  // Effective degree of parallelism: the session knob (0 = auto: pool
  // threads + the query thread) capped by the admission grant, so an
  // overloaded or degraded scheduler throttles analytic parallelism
  // before OLTP latency suffers.
  ThreadPool* pool = exec_pool();
  if (pool != nullptr) {
    size_t dop = max_dop();
    if (dop == 0) dop = pool->num_threads() + 1;
    if (grant != nullptr && grant->max_dop > 0 && grant->max_dop < dop) {
      dop = grant->max_dop;
      static obs::Counter* limited =
          obs::MetricsRegistry::Default()->GetCounter(
              "exec.morsel.dop_limited");
      limited->Add(1);
    }
    if (dop >= 2) {
      popts.exec_pool = pool;
      popts.max_dop = dop;
    }
  }
  // Routing: the first candidate view that passes the staleness gate
  // right now, taken when it plans cheaper than the base query. Missing
  // estimates (optimizer fallback paths) favour the view: its plan reads
  // precomputed results.
  std::optional<sql::PlannedQuery> chosen;
  std::string routed_view;
  if (view_routing_enabled() && optimizer_enabled()) {
    if (const view::ViewManager::Candidate* c =
            views_.Admit(s.bound, s.candidates, max_staleness_us())) {
      std::atomic<CachedSelect::Choice>& slot =
          s.choices[static_cast<size_t>(c - s.candidates.data())];
      CachedSelect::Choice choice = slot.load(std::memory_order_relaxed);
      if (choice != CachedSelect::Choice::kBase) {
        auto vplan =
            sql::PlanSelect(c->rewritten, catalog_, txn->begin_ts(), popts);
        if (choice == CachedSelect::Choice::kUnmade) {
          OLTAP_ASSIGN_OR_RETURN(
              sql::PlannedQuery base,
              sql::PlanSelect(s.bound, catalog_, txn->begin_ts(), popts));
          const double base_cost = MaxPlanCost(base.root.get());
          const double view_cost =
              vplan.ok() ? MaxPlanCost(vplan->root.get()) : 0;
          choice = vplan.ok() && (base_cost < 0 || view_cost < 0 ||
                                  view_cost <= base_cost)
                       ? CachedSelect::Choice::kView
                       : CachedSelect::Choice::kBase;
          slot.store(choice, std::memory_order_relaxed);
          if (choice == CachedSelect::Choice::kBase) chosen = std::move(base);
        }
        if (choice == CachedSelect::Choice::kView && vplan.ok()) {
          chosen = std::move(vplan).value();
          routed_view = c->view->name;
          static obs::Counter* routed =
              obs::MetricsRegistry::Default()->GetCounter("view.routed");
          routed->Add(1);
        }
      }
    }
  }
  if (!chosen.has_value()) {
    OLTAP_ASSIGN_OR_RETURN(
        chosen, sql::PlanSelect(s.bound, catalog_, txn->begin_ts(), popts));
  }
  sql::PlannedQuery& plan = *chosen;

  auto observe = [&]() {
    if (!plan.optimized || plan.fingerprint.empty()) return;
    std::vector<opt::OpSample> samples;
    CollectOpSamples(plan.root.get(), plan.scans, &samples);
    feedback_.Observe(plan.fingerprint, samples);
  };
  QueryResult result;
  if (explain && analyze) {
    // Execute for real, then report the per-operator profile instead of
    // the query output.
    ExecutePlan(plan.root.get());
    observe();
    obs::QueryProfile profile = BuildQueryProfile(plan.root.get());
    result.columns = {"operator", "est_rows", "rows", "batches", "time_ms"};
    FlattenProfile(profile.root, 0, &result.rows);
    result.affected = result.rows.size();
    return result;
  }
  if (explain) {
    result.columns = {"plan"};
    if (!routed_view.empty()) {
      result.rows.push_back(Row{Value::String(
          "routed via materialized view " + routed_view)});
    }
    std::string text = ExplainPlan(plan.root.get());
    // One output row per plan line.
    size_t start = 0;
    while (start < text.size()) {
      size_t nl = text.find('\n', start);
      if (nl == std::string::npos) nl = text.size();
      result.rows.push_back(
          Row{Value::String(text.substr(start, nl - start))});
      start = nl + 1;
    }
    result.affected = result.rows.size();
    return result;
  }
  result.columns = std::move(plan.output_names);
  result.rows = ExecutePlan(plan.root.get());
  observe();
  result.affected = result.rows.size();
  return result;
}

Result<QueryResult> Database::RunAnalyze(Transaction* txn,
                                         const sql::AnalyzeStmt& s) {
  std::vector<Table*> targets;
  if (!s.table.empty()) {
    Table* table = catalog_.GetTable(s.table);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + s.table);
    }
    targets.push_back(table);
  } else {
    targets = catalog_.AllTables();
    std::sort(targets.begin(), targets.end(),
              [](const Table* a, const Table* b) {
                return a->name() < b->name();
              });
  }
  QueryResult result;
  result.columns = {"table", "rows"};
  auto* counter =
      obs::MetricsRegistry::Default()->GetCounter("opt.analyze_runs");
  for (Table* table : targets) {
    opt::TableStats stats = opt::AnalyzeTable(*table, txn->begin_ts());
    int64_t rows = static_cast<int64_t>(stats.row_count);
    catalog_.SetTableStats(
        table->name(),
        std::make_shared<const opt::TableStats>(std::move(stats)));
    counter->Add(1);
    result.rows.push_back(Row{Value::String(table->name()),
                              Value::Int64(rows)});
  }
  result.affected = result.rows.size();
  return result;
}

Result<QueryResult> Database::RunSet(const sql::SetStmt& s) {
  auto parse_bool = [&](bool* out) -> Status {
    if (s.value == "on" || s.value == "true" || s.value == "1") {
      *out = true;
    } else if (s.value == "off" || s.value == "false" || s.value == "0") {
      *out = false;
    } else {
      return Status::InvalidArgument("SET " + s.name +
                                     " expects on or off, got: " + s.value);
    }
    return Status::OK();
  };
  QueryResult result;
  if (s.name == "optimizer") {
    bool on;
    OLTAP_RETURN_NOT_OK(parse_bool(&on));
    set_optimizer_enabled(on);
    return result;
  }
  if (s.name == "view_routing") {
    bool on;
    OLTAP_RETURN_NOT_OK(parse_bool(&on));
    set_view_routing_enabled(on);
    return result;
  }
  if (s.name == "max_staleness") {
    if (s.value == "off" || s.value == "-1") {
      set_max_staleness_us(-1);
      return result;
    }
    char* end = nullptr;
    long long us = std::strtoll(s.value.c_str(), &end, 10);
    if (end == s.value.c_str() || *end != '\0' || us < 0) {
      return Status::InvalidArgument(
          "SET max_staleness expects microseconds or off, got: " + s.value);
    }
    set_max_staleness_us(us);
    return result;
  }
  if (s.name == "max_dop") {
    if (s.value == "auto" || s.value == "0") {
      set_max_dop(0);
      return result;
    }
    char* end = nullptr;
    long long dop = std::strtoll(s.value.c_str(), &end, 10);
    if (end == s.value.c_str() || *end != '\0' || dop < 1) {
      return Status::InvalidArgument(
          "SET max_dop expects a positive worker count or auto, got: " +
          s.value);
    }
    set_max_dop(static_cast<size_t>(dop));
    return result;
  }
  if (s.name == "checkpoint_interval_us") {
    // 0 or off stops the background daemon; > 0 (re)starts it with the
    // new time trigger.
    if (s.value == "off" || s.value == "0") {
      if (CheckpointDaemon* d = checkpointer()) {
        d->set_interval_us(0);
        d->Stop();
      }
      return result;
    }
    char* end = nullptr;
    long long us = std::strtoll(s.value.c_str(), &end, 10);
    if (end == s.value.c_str() || *end != '\0' || us <= 0) {
      return Status::InvalidArgument(
          "SET checkpoint_interval_us expects microseconds or off, got: " +
          s.value);
    }
    CheckpointDaemon* d = EnsureCheckpointer();
    d->set_interval_us(us);
    d->Start();
    return result;
  }
  if (s.name == "wal_segment_bytes") {
    if (wal() == nullptr) {
      return Status::FailedPrecondition(
          "SET wal_segment_bytes requires a WAL-backed database");
    }
    char* end = nullptr;
    long long bytes = std::strtoll(s.value.c_str(), &end, 10);
    if (end == s.value.c_str() || *end != '\0' || bytes < 0) {
      return Status::InvalidArgument(
          "SET wal_segment_bytes expects a byte count, got: " + s.value);
    }
    wal()->set_segment_bytes(static_cast<uint64_t>(bytes));
    return result;
  }
  return Status::InvalidArgument("unknown setting: " + s.name);
}

CheckpointDaemon* Database::checkpointer() {
  std::lock_guard<std::mutex> lock(checkpointer_mu_);
  return checkpointer_.get();
}

CheckpointDaemon* Database::EnsureCheckpointer() {
  std::lock_guard<std::mutex> lock(checkpointer_mu_);
  if (checkpointer_ == nullptr) {
    CheckpointDaemon::Options options;
    options.interval_us = 0;  // triggers armed by SET / the driver
    checkpointer_ = std::make_unique<CheckpointDaemon>(&catalog_, &txn_,
                                                       wal(), options);
    // Views interact with checkpoints in two ways: their change-log
    // cursors pin WAL truncation (delta-join maintenance re-reads
    // history), and their definitions travel in the image as view
    // records (recovery re-runs them, which rebuilds the unlogged
    // backings from the restored bases).
    checkpointer_->set_extra_pin([this] { return views_.GcHorizon(); });
    checkpointer_->set_view_ddls([this] { return views_.ViewDdls(); });
  }
  return checkpointer_.get();
}

Result<QueryResult> Database::RunCheckpoint() {
  CheckpointDaemon* d = EnsureCheckpointer();
  OLTAP_ASSIGN_OR_RETURN(CheckpointDaemon::CheckpointResult r,
                         d->CheckpointNow());
  QueryResult result;
  result.columns = {"checkpoint_id", "ts", "bytes", "wal_truncated"};
  result.rows.push_back(Row{Value::Int64(static_cast<int64_t>(r.id)),
                            Value::Int64(static_cast<int64_t>(r.ts)),
                            Value::Int64(static_cast<int64_t>(r.bytes)),
                            Value::Int64(static_cast<int64_t>(r.wal_truncated))});
  result.affected = 1;
  return result;
}

Result<QueryResult> Database::RunShowStats() {
  auto* registry = obs::MetricsRegistry::Default();
  // Refresh the storage gauges from this catalog so SHOW STATS reports
  // live freshness even without a merge daemon running.
  int64_t now_us = SystemClock::Get()->NowMicros();
  FreshnessSummary fresh = ProbeFreshness(catalog_, now_us);
  registry->GetGauge("storage.delta_rows")->Set(fresh.delta_rows);
  registry->GetGauge("storage.freshness_lag_us")->Set(fresh.max_lag_us);
  // Refresh wal.sealed from this database's own log (the gauge is also
  // set at seal time, but that write may have come from another Wal).
  if (Wal* w = wal()) {
    registry->GetGauge("wal.sealed")->Set(w->sealed() ? 1 : 0);
    registry->GetGauge("wal.segments")
        ->Set(static_cast<int64_t>(w->num_segments()));
    registry->GetGauge("wal.retained_bytes")
        ->Set(static_cast<int64_t>(w->size()));
  }
  // Checkpoint freshness from this database's own daemon (if created).
  if (CheckpointDaemon* d = checkpointer()) {
    registry->GetGauge("ckpt.age_us")->Set(d->AgeMicros(now_us));
    registry->GetGauge("ckpt.last_ts")
        ->Set(static_cast<int64_t>(d->last_checkpoint_ts()));
  }

  obs::MetricsSnapshot snap = registry->Snapshot();
  QueryResult result;
  result.columns = {"metric", "value"};
  for (const auto& [name, v] : snap.counters) {
    result.rows.push_back(
        Row{Value::String(name), Value::Int64(static_cast<int64_t>(v))});
  }
  for (const auto& [name, v] : snap.gauges) {
    result.rows.push_back(Row{Value::String(name), Value::Int64(v)});
  }
  for (const auto& [name, h] : snap.histograms) {
    auto add = [&](const char* suffix, Value value) {
      result.rows.push_back(
          Row{Value::String(name + suffix), std::move(value)});
    };
    add(".count", Value::Int64(static_cast<int64_t>(h.count)));
    add(".mean", Value::Double(h.mean));
    add(".p50", Value::Int64(static_cast<int64_t>(h.p50)));
    add(".p95", Value::Int64(static_cast<int64_t>(h.p95)));
    add(".p99", Value::Int64(static_cast<int64_t>(h.p99)));
    add(".p999", Value::Int64(static_cast<int64_t>(h.p999)));
    add(".max", Value::Int64(static_cast<int64_t>(h.max)));
  }

  // Per-table optimizer-statistics freshness. `.rows` reports the analyzed
  // row count, so it only appears once a table has been analyzed;
  // `.mods_since_analyze` is live for every table (the full mod count when
  // never analyzed) — it is the staleness signal, and a table that was
  // never analyzed is maximally stale.
  std::vector<std::string> table_names = catalog_.TableNames();
  std::sort(table_names.begin(), table_names.end());
  for (const std::string& name : table_names) {
    std::shared_ptr<const opt::TableStats> stats =
        catalog_.GetTableStats(name);
    Table* table = catalog_.GetTable(name);
    if (stats != nullptr) {
      result.rows.push_back(
          Row{Value::String("stats." + name + ".rows"),
              Value::Int64(static_cast<int64_t>(stats->row_count))});
    }
    uint64_t mods = table->mod_count() -
                    (stats != nullptr ? stats->mod_count_at_analyze : 0);
    result.rows.push_back(
        Row{Value::String("stats." + name + ".mods_since_analyze"),
            Value::Int64(static_cast<int64_t>(mods))});
  }

  // Per-view freshness: row count, pending base changes, staleness.
  views_.AppendStatsRows(&result.rows);
  result.affected = result.rows.size();
  return result;
}

Result<QueryResult> Database::RunInsert(Transaction* txn,
                                        const sql::InsertStmt& s) {
  if (views_.IsView(s.table)) {
    return Status::InvalidArgument("cannot INSERT into materialized view " +
                                   s.table);
  }
  Table* table = catalog_.GetTable(s.table);
  if (table == nullptr) return Status::NotFound("unknown table: " + s.table);
  const Schema& schema = table->schema();
  QueryResult result;
  for (const auto& exprs : s.rows) {
    if (exprs.size() != schema.num_columns()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Row row;
    row.reserve(exprs.size());
    for (size_t c = 0; c < exprs.size(); ++c) {
      // Literal expressions only need an empty scope.
      OLTAP_ASSIGN_OR_RETURN(
          ExprPtr bound, sql::BindOverSchema(*exprs[c], Schema(), s.table));
      Value v = bound->EvalRow(Row{});
      OLTAP_ASSIGN_OR_RETURN(Value coerced,
                             CoerceTo(v, schema.column(c).type));
      if (coerced.is_null() && !schema.column(c).nullable) {
        return Status::InvalidArgument("NULL in NOT NULL column " +
                                       schema.column(c).name);
      }
      row.push_back(std::move(coerced));
    }
    OLTAP_RETURN_NOT_OK(txn->Insert(table, std::move(row)));
    ++result.affected;
  }
  return result;
}

Result<QueryResult> Database::RunUpdate(Transaction* txn,
                                        const sql::UpdateStmt& s) {
  if (views_.IsView(s.table)) {
    return Status::InvalidArgument("cannot UPDATE materialized view " +
                                   s.table);
  }
  Table* table = catalog_.GetTable(s.table);
  if (table == nullptr) return Status::NotFound("unknown table: " + s.table);
  const Schema& schema = table->schema();
  if (!schema.HasKey()) {
    return Status::FailedPrecondition("UPDATE requires a primary key");
  }
  ExprPtr where;
  if (s.where != nullptr) {
    OLTAP_ASSIGN_OR_RETURN(where,
                           sql::BindOverSchema(*s.where, schema, s.table));
  }
  struct SetOp {
    int column;
    ExprPtr expr;
  };
  std::vector<SetOp> sets;
  for (const auto& [col, pe] : s.sets) {
    int idx = schema.FindColumn(col);
    if (idx < 0) return Status::NotFound("unknown column: " + col);
    OLTAP_ASSIGN_OR_RETURN(ExprPtr e,
                           sql::BindOverSchema(*pe, schema, s.table));
    sets.push_back({idx, std::move(e)});
  }

  // Collect matching rows (sees own writes), then apply.
  std::vector<Row> matches;
  ForEachMatch(txn, table, where,
               [&](const Row& row) { matches.push_back(row); });
  QueryResult result;
  for (const Row& old_row : matches) {
    Row new_row = old_row;
    for (const SetOp& op : sets) {
      Value v = op.expr->EvalRow(old_row);
      OLTAP_ASSIGN_OR_RETURN(
          Value coerced, CoerceTo(v, schema.column(op.column).type));
      new_row[op.column] = std::move(coerced);
    }
    if (EncodeKey(schema, new_row) != EncodeKey(schema, old_row)) {
      return Status::InvalidArgument("UPDATE must not modify the primary key");
    }
    OLTAP_RETURN_NOT_OK(txn->Update(table, std::move(new_row)));
    ++result.affected;
  }
  return result;
}

Result<QueryResult> Database::RunDelete(Transaction* txn,
                                        const sql::DeleteStmt& s) {
  if (views_.IsView(s.table)) {
    return Status::InvalidArgument("cannot DELETE from materialized view " +
                                   s.table);
  }
  Table* table = catalog_.GetTable(s.table);
  if (table == nullptr) return Status::NotFound("unknown table: " + s.table);
  const Schema& schema = table->schema();
  if (!schema.HasKey()) {
    return Status::FailedPrecondition("DELETE requires a primary key");
  }
  ExprPtr where;
  if (s.where != nullptr) {
    OLTAP_ASSIGN_OR_RETURN(where,
                           sql::BindOverSchema(*s.where, schema, s.table));
  }
  std::vector<std::string> keys;
  ForEachMatch(txn, table, where, [&](const Row& row) {
    keys.push_back(EncodeKey(schema, row));
  });
  QueryResult result;
  for (std::string& key : keys) {
    OLTAP_RETURN_NOT_OK(txn->DeleteByKey(table, std::move(key)));
    ++result.affected;
  }
  return result;
}

Result<QueryResult> Database::RunCreate(const sql::CreateTableStmt& s) {
  SchemaBuilder builder;
  for (const ColumnDef& c : s.columns) {
    switch (c.type) {
      case ValueType::kInt64:
        builder.AddInt64(c.name, c.nullable);
        break;
      case ValueType::kDouble:
        builder.AddDouble(c.name, c.nullable);
        break;
      case ValueType::kString:
        builder.AddString(c.name, c.nullable);
        break;
    }
  }
  if (!s.key_columns.empty()) builder.SetKey(s.key_columns);
  OLTAP_RETURN_NOT_OK(
      catalog_.CreateTable(s.name, builder.Build(), s.format));
  QueryResult result;
  result.affected = 0;
  return result;
}

Result<Database::RecoveryReport> Database::RecoverFromCheckpointStore(
    const CheckpointStore& store, const std::string& wal_data,
    ThreadPool* pool) {
  RecoveryReport report;
  Result<CheckpointStore::Image> image =
      SelectRecoveryImage(store, &report.fallbacks);
  if (report.fallbacks > 0) {
    obs::MetricsRegistry::Default()
        ->GetCounter("ckpt.fallbacks")
        ->Add(report.fallbacks);
  }
  // No usable image (all torn, or no round ever completed) means full
  // replay of the retained WAL.
  if (!image.ok() && !image.status().IsNotFound()) return image.status();

  // The image's stream, then the WAL tail past the image's timestamp.
  // Replay logs nothing, so recovering into a WAL-backed database leaves
  // its log untouched.
  Wal::ReplayStats ckpt_stats;
  if (image.ok()) {
    std::string_view stream;
    OLTAP_RETURN_NOT_OK(
        CheckpointStream(image->data, &report.checkpoint_ts, &stream));
    OLTAP_ASSIGN_OR_RETURN(ckpt_stats,
                           Wal::Replay(stream, &catalog_, {}, pool));
    report.checkpoint_id = image->id;
  }
  Wal::ReplayOptions options;
  options.skip_through_ts = report.checkpoint_ts;
  OLTAP_ASSIGN_OR_RETURN(Wal::ReplayStats tail_stats,
                         Wal::Replay(wal_data, &catalog_, options, pool));

  report.stats.txns_applied = ckpt_stats.txns_applied + tail_stats.txns_applied;
  report.stats.ops_applied = ckpt_stats.ops_applied + tail_stats.ops_applied;
  report.stats.max_commit_ts =
      std::max({report.checkpoint_ts, ckpt_stats.max_commit_ts,
                tail_stats.max_commit_ts});
  report.stats.truncated_tail = tail_stats.truncated_tail;
  report.stats.view_ddls = std::move(ckpt_stats.view_ddls);
  for (std::string& ddl : tail_stats.view_ddls) {
    report.stats.view_ddls.push_back(std::move(ddl));
  }
  report.tail_txns = tail_stats.txns_applied;
  txn_.AdvanceTo(report.stats.max_commit_ts);

  // Replay bypasses the transaction path, so no change log or view cursor
  // saw the recovered rows: views registered before this call are stale
  // and rebuild from the recovered bases. Then the logged views that do
  // not exist yet are created, which builds them the same way (a view in
  // both the image and the tail is created once).
  OLTAP_RETURN_NOT_OK(views_.RebuildAllAfterRecovery());
  for (const std::string& ddl : report.stats.view_ddls) {
    OLTAP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(ddl));
    if (stmt.kind != sql::Statement::Kind::kCreateView) {
      return Status::Corruption("view record holds a non-view statement: " +
                                ddl);
    }
    if (views_.IsView(stmt.create_view->name)) continue;
    OLTAP_RETURN_NOT_OK(views_.Create(*stmt.create_view));
  }
  return report;
}

size_t Database::MergeAll() {
  size_t total = 0;
  Timestamp merge_ts = txn_.oracle()->CurrentReadTs();
  // Delta-join maintenance reads base pre-states at each view's cursor;
  // merges must not garbage-collect versions those snapshots still need.
  Timestamp horizon =
      std::min(txn_.OldestActiveSnapshot(), views_.GcHorizon());
  for (Table* table : catalog_.AllTables()) {
    if (table->Mergeable()) {
      total += table->MergeDelta(merge_ts, horizon);
    }
  }
  return total;
}

}  // namespace oltap
