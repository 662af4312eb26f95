// E16 — Cost-based optimization (System R [36] lineage: statistics,
// join ordering, access-path selection).
//
// Two A/B comparisons:
//   1. Join order: a star query written in the worst FROM order (fact
//      first), executed with the optimizer off (FROM-order joins, the
//      pre-optimizer planner) vs. on (DPsize order over ANALYZE stats).
//      Expected: the optimizer builds hash tables on the filtered
//      dimensions instead of the fact table and wins by the ratio of
//      build-side sizes.
//   2. Access path: the calibration sweep below. Expected: at every
//      point the cost model's pick runs within 10% of the faster forced
//      side.

#include <benchmark/benchmark.h>

#include "bench_reporter.h"

OLTAP_BENCH_REPORTER("optimizer");

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/operators.h"
#include "opt/cost_model.h"
#include "sql/session.h"
#include "workload/chbench.h"

namespace oltap {
namespace {

// Star schema: a fact table joining two small, selective dimensions.
constexpr int kFactRows = 100000;
constexpr int kDimARows = 100;
constexpr int kDimBRows = 1000;

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    auto ok = [](const Result<QueryResult>& r) {
      if (!r.ok()) std::abort();
    };
    ok(d->Execute("CREATE TABLE fact (id BIGINT NOT NULL, a_id BIGINT, "
                  "b_id BIGINT, amount DOUBLE, PRIMARY KEY (id)) "
                  "FORMAT COLUMN"));
    ok(d->Execute("CREATE TABLE dim_a (a_id BIGINT NOT NULL, region TEXT, "
                  "PRIMARY KEY (a_id)) FORMAT ROW"));
    ok(d->Execute("CREATE TABLE dim_b (b_id BIGINT NOT NULL, grp BIGINT, "
                  "PRIMARY KEY (b_id)) FORMAT ROW"));

    std::string sql;
    for (int i = 0; i < kFactRows; ++i) {
      sql += (sql.empty() ? "INSERT INTO fact VALUES " : ", ");
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % kDimARows) +
             ", " + std::to_string(i % kDimBRows) + ", " +
             std::to_string((i % 97) * 1.5) + ")";
      if (i % 500 == 499) {
        ok(d->Execute(sql));
        sql.clear();
      }
    }
    if (!sql.empty()) ok(d->Execute(sql));
    sql.clear();
    for (int i = 0; i < kDimARows; ++i) {
      sql += (sql.empty() ? "INSERT INTO dim_a VALUES " : ", ");
      sql += "(" + std::to_string(i) + ", 'r" + std::to_string(i % 4) + "')";
    }
    ok(d->Execute(sql));
    sql.clear();
    for (int i = 0; i < kDimBRows; ++i) {
      sql += (sql.empty() ? "INSERT INTO dim_b VALUES " : ", ");
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 10) + ")";
      if (i % 500 == 499) {
        ok(d->Execute(sql));
        sql.clear();
      }
    }
    if (!sql.empty()) ok(d->Execute(sql));
    d->MergeAll();
    ok(d->Execute("ANALYZE"));
    return d;
  }();
  return db;
}

// The star query, deliberately written fact-first so FROM order is the
// worst plan (builds a 100k-row hash table, then another full-width one).
const char* kStarQuery =
    "SELECT dim_b.grp, COUNT(*), SUM(fact.amount) "
    "FROM fact JOIN dim_a ON fact.a_id = dim_a.a_id "
    "JOIN dim_b ON fact.b_id = dim_b.b_id "
    "WHERE dim_a.region = 'r0' AND dim_b.grp = 3 "
    "GROUP BY dim_b.grp";

void BM_StarJoin(benchmark::State& state) {
  Database* db = SharedDb();
  const bool optimize = state.range(0) != 0;
  db->set_optimizer_enabled(optimize);
  size_t rows = 0;
  for (auto _ : state) {
    auto r = db->Execute(kStarQuery);
    if (!r.ok()) std::abort();
    rows = r->rows.size();
  }
  db->set_optimizer_enabled(true);
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations() * kFactRows);
  state.SetLabel(optimize ? "optimizer=on" : "optimizer=off");
  bench::Reporter::Get()->Metric(
      optimize ? "star_join_on_items_s" : "star_join_off_items_s",
      state.iterations() * static_cast<double>(kFactRows));
}
BENCHMARK(BM_StarJoin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Access-path calibration sweep. Each point is one state of a dual-format
// table and one scan over it, run three ways: forced down the row mirror,
// forced down the column mirror, and down the side CostModel::CostScan
// picks given the scan's true output cardinality. The points span the
// states the planner meets between merges: synthetic narrow tables
// (id, k = id % 1000, v) of 40 / 4 000 / 50 000 keys, merged and then
// updated 0, 1, 3 or 200 times per key without a merge (every update
// leaves a dead version in the columnar delta), and the CH customer,
// stock and district tables (4 warehouses) after 4 000 TPC-C transactions
// with no merge. Each point reports its three median scan times, its
// shape (keys, main rows, delta rows, output rows) and the model's pick
// over the faster forced side; the CostModel scan constants are fitted to
// these figures (EXPERIMENTS.md E16).

struct SweepPoint {
  std::string name;
  int shape;       // index into Shapes()
  std::string table;
  bool selective;  // `k = 7` (synthetic) instead of a full projection
  std::vector<std::string> columns;  // projected columns
};

struct Shape {
  int keys = 0;      // synthetic: keys; 0 = the CH database
  int versions = 0;  // synthetic: updates per key after the merge
};

constexpr int kChWarehouses = 4;
constexpr int kChTxns = 4000;

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {40, 0},    {40, 1},    {40, 3},    {40, 200},
      {4000, 0},  {4000, 1},  {4000, 3},  {50000, 0},
      {50000, 1}, {50000, 3}, {0, 0},
  };
  return shapes;
}

const std::vector<SweepPoint>& SweepPoints() {
  static const std::vector<SweepPoint> points = [] {
    std::vector<SweepPoint> out;
    const std::vector<Shape>& shapes = Shapes();
    for (size_t i = 0; i < shapes.size(); ++i) {
      const Shape& sh = shapes[i];
      int s = static_cast<int>(i);
      if (sh.keys == 0) {
        out.push_back({"ch_customer_a8", s, "customer", false,
                       {"c_w_id", "c_d_id", "c_id", "c_last", "c_balance"}});
        out.push_back({"ch_stock_a10", s, "stock", false,
                       {"s_w_id", "s_ytd", "s_quantity"}});
        out.push_back({"ch_district_a11", s, "district", false,
                       {"d_w_id", "d_ytd"}});
        continue;
      }
      std::string base = "k" + std::to_string(sh.keys) + "_v" +
                         std::to_string(sh.versions);
      out.push_back({base + "_full", s, "t", false, {"k", "v"}});
      out.push_back({base + "_sel", s, "t", true, {"id", "v"}});
    }
    return out;
  }();
  return points;
}

// Commits *txn and begins the next transaction in its place.
void CommitAndBegin(Database* db, std::unique_ptr<Transaction>* txn) {
  if (!db->txn_manager()->Commit(txn->get()).ok()) std::abort();
  *txn = db->txn_manager()->Begin();
}

std::unique_ptr<Database> BuildShape(const Shape& sh) {
  auto db = std::make_unique<Database>();
  if (sh.keys == 0) {
    CHConfig config;
    config.warehouses = kChWarehouses;
    config.initial_orders_per_district = 150;
    CHBenchmark ch(db.get(), config);
    if (!ch.CreateTables().ok() || !ch.Load().ok()) std::abort();
    db->MergeAll();
    Rng rng(7);
    CHTxnStats stats;
    for (int i = 0; i < kChTxns; ++i) {
      if (!ch.RunMixed(&rng, &stats).ok()) std::abort();
    }
    return db;
  }
  if (!db->Execute("CREATE TABLE t (id BIGINT NOT NULL, k BIGINT, "
                   "v DOUBLE, PRIMARY KEY (id)) FORMAT DUAL")
           .ok()) {
    std::abort();
  }
  Table* t = db->catalog()->GetTable("t");
  auto row = [](int id, double v) {
    return Row{Value::Int64(id), Value::Int64(id % 1000), Value::Double(v)};
  };
  std::unique_ptr<Transaction> txn = db->txn_manager()->Begin();
  for (int id = 0; id < sh.keys; ++id) {
    if (!txn->Insert(t, row(id, 0)).ok()) std::abort();
    if (id % 1000 == 999) CommitAndBegin(db.get(), &txn);
  }
  CommitAndBegin(db.get(), &txn);
  db->MergeAll();
  for (int round = 1; round <= sh.versions; ++round) {
    for (int id = 0; id < sh.keys; ++id) {
      if (!txn->Update(t, row(id, round)).ok()) std::abort();
      if (id % 1000 == 999) CommitAndBegin(db.get(), &txn);
    }
    CommitAndBegin(db.get(), &txn);
  }
  return db;
}

// One shape's database at a time: points run in registration order, so
// each shape is built once and freed when the sweep moves on.
Database* ShapeDb(int shape) {
  static std::unique_ptr<Database> db;
  static int built = -1;
  if (built != shape) {
    db.reset();
    db = BuildShape(Shapes()[static_cast<size_t>(shape)]);
    built = shape;
  }
  return db.get();
}

enum Arm { kArmRow, kArmColumn, kArmModel, kNumArms };
const char* const kArmNames[kNumArms] = {"row", "column", "model"};

void BM_AccessPath(benchmark::State& state, size_t point, int arm) {
  const SweepPoint& p = SweepPoints()[point];
  Database* db = ShapeDb(p.shape);
  Table* t = db->catalog()->GetTable(p.table);
  if (t == nullptr || t->format() != TableFormat::kDual) std::abort();
  const Schema& schema = t->schema();
  std::vector<int> projection;
  for (const std::string& c : p.columns) {
    projection.push_back(schema.FindColumn(c));
    if (projection.back() < 0) std::abort();
  }
  ExprPtr pred;
  std::vector<Expr::ColumnPredicate> pushed;
  if (p.selective) {
    pred = Expr::Compare(
        CompareOp::kEq,
        Expr::Column(schema.FindColumn("k"), ValueType::kInt64),
        Expr::Constant(Value::Int64(7)));
    Expr::ColumnPredicate cp;
    if (!pred->AsColumnPredicate(&cp)) std::abort();
    pushed.push_back(cp);
  }
  Timestamp ts = db->txn_manager()->oracle()->CurrentReadTs();
  // Drains the scan's batches as a consuming operator would, without
  // boxing rows.
  auto scan_rows = [&](ScanOp::Path path) {
    ScanOp scan(t, ts, pred, projection, path);
    scan.Open();
    size_t n = 0;
    Batch batch;
    while (scan.NextBatch(&batch)) n += batch.num_rows();
    return n;
  };
  const size_t out_rows = scan_rows(ScanOp::Path::kColumn);
  opt::CostModel::ScanDecision d =
      opt::CostModel().CostScan(*t, ts, pushed, static_cast<double>(out_rows));
  ScanOp::Path path = arm == kArmRow      ? ScanOp::Path::kRow
                      : arm == kArmColumn ? ScanOp::Path::kColumn
                      : d.path == opt::AccessPath::kRow
                          ? ScanOp::Path::kRow
                          : ScanOp::Path::kColumn;

  // Per-scan times; the report takes their median, which a shared host's
  // stray slow scans do not move.
  std::vector<int64_t> ns;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    size_t n = scan_rows(path);
    benchmark::DoNotOptimize(n);
    ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    if (n != out_rows) std::abort();  // both mirrors return the same rows
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  std::string label = std::string("path=") +
                      (path == ScanOp::Path::kRow ? "row" : "column");
  state.SetLabel(label);

  // google-benchmark calls this once per trial run; the last (longest)
  // call's figures stand.
  static std::map<std::pair<size_t, int>, double> us;
  const double median_us = static_cast<double>(ns[ns.size() / 2]) / 1e3;
  us[{point, arm}] = median_us;
  bench::Reporter* rep = bench::Reporter::Get();
  const std::string key = "access_path." + p.name + ".";
  rep->Metric(key + kArmNames[arm] + "_us", median_us);
  if (arm != kArmModel) return;
  std::optional<ColumnTable::Snapshot> snap = t->GetColumnSnapshot(ts);
  rep->Metric(key + "keys", static_cast<double>(t->row_table()->num_keys()));
  rep->Metric(key + "main_rows", static_cast<double>(snap->main->num_rows()));
  rep->Metric(key + "delta_rows", static_cast<double>(snap->delta_rows()));
  rep->Metric(key + "out_rows", static_cast<double>(out_rows));
  rep->Metric(key + "model_picks_column",
              d.path == opt::AccessPath::kColumn ? 1 : 0);
  // The model arm re-measures one forced arm's path, so two figures: the
  // picked forced arm over the faster one (the decision's cost), and the
  // model arm over the faster one (that plus the host's noise).
  auto row_it = us.find({point, kArmRow});
  auto col_it = us.find({point, kArmColumn});
  if (row_it != us.end() && col_it != us.end()) {
    const double best = std::min(row_it->second, col_it->second);
    const double picked = d.path == opt::AccessPath::kRow ? row_it->second
                                                          : col_it->second;
    rep->Metric(key + "pick_over_best", picked / best);
    rep->Metric(key + "model_over_best", median_us / best);
  }
}

const bool kAccessPathRegistered = [] {
  std::string host = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      host = line.substr(line.find(':') + 2);
      break;
    }
  }
  bench::Reporter::Get()->Config("host", host);
  bench::Reporter::Get()->Config(
      "nproc", static_cast<double>(std::thread::hardware_concurrency()));
  for (size_t i = 0; i < SweepPoints().size(); ++i) {
    for (int arm = 0; arm < kNumArms; ++arm) {
      std::string name = "BM_AccessPath/" + SweepPoints()[i].name + "/" +
                         kArmNames[arm];
      benchmark::RegisterBenchmark(name.c_str(), BM_AccessPath, i, arm)
          ->Unit(benchmark::kMicrosecond);
    }
  }
  return true;
}();

// Feedback loop: repeated execution of a statement planned from default
// (no-stats) estimates. The first run misestimates, crosses the q-error
// threshold, and re-plans from measured cardinalities; steady state is
// the corrected plan.
void BM_FeedbackReplan(benchmark::State& state) {
  // A private database: no ANALYZE, so planning starts from defaults.
  static Database* db = [] {
    auto* d = new Database();
    auto ok = [](const Result<QueryResult>& r) {
      if (!r.ok()) std::abort();
    };
    ok(d->Execute("CREATE TABLE f2 (id BIGINT NOT NULL, k BIGINT, "
                  "PRIMARY KEY (id)) FORMAT COLUMN"));
    ok(d->Execute("CREATE TABLE d2 (k BIGINT NOT NULL, t TEXT, "
                  "PRIMARY KEY (k)) FORMAT ROW"));
    std::string sql;
    for (int i = 0; i < 20000; ++i) {
      sql += (sql.empty() ? "INSERT INTO f2 VALUES " : ", ");
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 50) + ")";
      if (i % 500 == 499) {
        ok(d->Execute(sql));
        sql.clear();
      }
    }
    if (!sql.empty()) ok(d->Execute(sql));
    sql.clear();
    for (int i = 0; i < 50; ++i) {
      sql += (sql.empty() ? "INSERT INTO d2 VALUES " : ", ");
      sql += "(" + std::to_string(i) + ", 'x')";
    }
    ok(d->Execute(sql));
    return d;
  }();
  size_t rows = 0;
  for (auto _ : state) {
    auto r = db->Execute(
        "SELECT f2.id FROM f2 JOIN d2 ON f2.k = d2.k WHERE d2.t = 'x'");
    if (!r.ok()) std::abort();
    rows = r->rows.size();
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_FeedbackReplan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace oltap
