#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/feedback.h"
#include "opt/join_order.h"
#include "opt/stats.h"
#include "sql/session.h"
#include "workload/chbench.h"

namespace oltap {
namespace {

// ---------------------------------------------------------------------------
// DistinctSketch

TEST(DistinctSketchTest, ExactBelowK) {
  opt::DistinctSketch s;
  for (uint64_t i = 0; i < 500; ++i) s.Add(i * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(s.Estimate(), 500u);
  // Duplicates do not inflate the count.
  for (uint64_t i = 0; i < 500; ++i) s.Add(i * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(s.Estimate(), 500u);
}

TEST(DistinctSketchTest, EstimatesAboveK) {
  opt::DistinctSketch s;
  const uint64_t n = 50000;
  for (uint64_t i = 1; i <= n; ++i) s.Add(i * 0x9e3779b97f4a7c15ULL);
  uint64_t est = s.Estimate();
  // Bottom-k with k=1024 is well within 15% at this scale.
  EXPECT_GT(est, n * 85 / 100);
  EXPECT_LT(est, n * 115 / 100);
}

// ---------------------------------------------------------------------------
// ANALYZE / ColumnStats edge cases (through the SQL surface so the stats
// pass sees exactly what the engine stores).

class OptStatsTest : public ::testing::Test {
 protected:
  opt::TableStats Analyze(const std::string& table) {
    Table* t = db_.catalog()->GetTable(table);
    EXPECT_NE(t, nullptr);
    Timestamp ts = db_.txn_manager()->oracle()->CurrentReadTs();
    return opt::AnalyzeTable(*t, ts);
  }
  Database db_;
};

TEST_F(OptStatsTest, EmptyTable) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE e (a BIGINT NOT NULL, b DOUBLE, "
                  "PRIMARY KEY (a)) FORMAT ROW")
          .ok());
  opt::TableStats st = Analyze("e");
  EXPECT_EQ(st.row_count, 0u);
  ASSERT_EQ(st.columns.size(), 2u);
  for (const auto& c : st.columns) {
    EXPECT_EQ(c.row_count, 0u);
    EXPECT_EQ(c.null_count, 0u);
    EXPECT_EQ(c.ndv, 0u);
    EXPECT_FALSE(c.has_range);
    EXPECT_TRUE(c.bounds.empty());
    EXPECT_DOUBLE_EQ(c.NullFraction(), 0.0);
  }
}

TEST_F(OptStatsTest, SingleRow) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE s1 (a BIGINT NOT NULL, b DOUBLE, "
                          "PRIMARY KEY (a)) FORMAT ROW")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO s1 VALUES (7, 3.5)").ok());
  opt::TableStats st = Analyze("s1");
  EXPECT_EQ(st.row_count, 1u);
  const opt::ColumnStats& a = st.columns[0];
  EXPECT_EQ(a.ndv, 1u);
  EXPECT_TRUE(a.has_range);
  EXPECT_DOUBLE_EQ(a.min, 7.0);
  EXPECT_DOUBLE_EQ(a.max, 7.0);
}

TEST_F(OptStatsTest, AllNullColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE an (a BIGINT NOT NULL, b DOUBLE, "
                          "PRIMARY KEY (a)) FORMAT ROW")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_.Execute("INSERT INTO an VALUES (" + std::to_string(i) + ", NULL)")
            .ok());
  }
  opt::TableStats st = Analyze("an");
  const opt::ColumnStats& b = st.columns[1];
  EXPECT_EQ(b.row_count, 10u);
  EXPECT_EQ(b.null_count, 10u);
  EXPECT_EQ(b.ndv, 0u);
  EXPECT_FALSE(b.has_range);
  EXPECT_DOUBLE_EQ(b.NullFraction(), 1.0);
}

TEST_F(OptStatsTest, AllDistinctVersusSingleValue) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE dv (a BIGINT NOT NULL, b BIGINT, "
                          "PRIMARY KEY (a)) FORMAT ROW")
                  .ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO dv VALUES (" + std::to_string(i) +
                            ", 42)")
                    .ok());
  }
  opt::TableStats st = Analyze("dv");
  EXPECT_EQ(st.columns[0].ndv, 100u);  // primary key: all distinct
  EXPECT_EQ(st.columns[1].ndv, 1u);    // constant column: one value
}

TEST_F(OptStatsTest, SkewedHistogramFractionBelow) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE zipf (a BIGINT NOT NULL, v BIGINT, "
                          "PRIMARY KEY (a)) FORMAT ROW")
                  .ok());
  // Zipf-ish skew: value v appears ~N/v times. 1 dominates.
  int key = 0;
  for (int v = 1; v <= 16; ++v) {
    int copies = 512 / v;
    for (int c = 0; c < copies; ++c) {
      ASSERT_TRUE(db_.Execute("INSERT INTO zipf VALUES (" +
                              std::to_string(key++) + ", " +
                              std::to_string(v) + ")")
                      .ok());
    }
  }
  opt::TableStats st = Analyze("zipf");
  const opt::ColumnStats& v = st.columns[1];
  ASSERT_TRUE(v.has_range);
  EXPECT_DOUBLE_EQ(v.min, 1.0);
  EXPECT_DOUBLE_EQ(v.max, 16.0);
  ASSERT_FALSE(v.bounds.empty());
  // v=1 holds ~30% of the rows; an equi-depth histogram must put the
  // fraction below-or-equal 1 far above the uniform guess (1/16).
  double fle1 = v.FractionBelow(1.0, /*inclusive=*/true);
  EXPECT_GT(fle1, 0.2);
  // FractionBelow is monotone and bounded.
  double prev = 0.0;
  for (double c = 0.0; c <= 17.0; c += 1.0) {
    double f = v.FractionBelow(c, true);
    EXPECT_GE(f, prev - 1e-9);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(v.FractionBelow(0.5, true), 0.0);
  EXPECT_DOUBLE_EQ(v.FractionBelow(16.5, true), 1.0);
}

// ---------------------------------------------------------------------------
// Cardinality estimation

TEST(CardinalityTest, DefaultsWithoutStats) {
  opt::CardinalityEstimator ce(nullptr, 1000.0);
  ExprPtr eq = Expr::Compare(CompareOp::kEq, Expr::Column(0, ValueType::kInt64),
                             Expr::Constant(Value::Int64(5)));
  EXPECT_DOUBLE_EQ(ce.Selectivity(eq), opt::defaults::kEqSelectivity);
  ExprPtr lt = Expr::Compare(CompareOp::kLt, Expr::Column(0, ValueType::kInt64),
                             Expr::Constant(Value::Int64(5)));
  EXPECT_DOUBLE_EQ(ce.Selectivity(lt), opt::defaults::kRangeSelectivity);
  EXPECT_DOUBLE_EQ(ce.EstimateRows(nullptr), 1000.0);
  // Conjunction multiplies.
  EXPECT_NEAR(ce.Selectivity(Expr::And(eq, lt)),
              opt::defaults::kEqSelectivity * opt::defaults::kRangeSelectivity,
              1e-12);
}

TEST(CardinalityTest, EqualityUsesNdv) {
  opt::TableStats st;
  st.row_count = 1000;
  opt::ColumnStats c;
  c.row_count = 1000;
  c.ndv = 50;
  st.columns.push_back(c);
  opt::CardinalityEstimator ce(&st, 1000.0);
  ExprPtr eq = Expr::Compare(CompareOp::kEq, Expr::Column(0, ValueType::kInt64),
                             Expr::Constant(Value::Int64(5)));
  EXPECT_NEAR(ce.EstimateRows(eq), 1000.0 / 50.0, 1.0);
}

TEST(CardinalityTest, EquiJoinSelectivityContainment) {
  opt::TableStats l, r;
  opt::ColumnStats lc, rc;
  lc.ndv = 100;
  rc.ndv = 10;
  l.columns.push_back(lc);
  r.columns.push_back(rc);
  // 1 / max(NDV) = 1/100.
  EXPECT_NEAR(opt::EquiJoinSelectivity(&l, 0, 1000, &r, 0, 50), 0.01, 1e-9);
  // Missing stats: row counts stand in for NDV.
  EXPECT_NEAR(opt::EquiJoinSelectivity(nullptr, 0, 1000, nullptr, 0, 50),
              1.0 / 1000.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Cost model

TEST(CostModelTest, HashJoinCostScalesWithInputs) {
  opt::CostModel cm;
  auto small = cm.CostHashJoin(10, 1000, 100);
  auto big = cm.CostHashJoin(1000, 10, 100);
  // Building on the small side is cheaper (build is the expensive phase).
  EXPECT_LT(small.cost, big.cost);
  EXPECT_GT(big.build_bytes, small.build_bytes);
}

class OptCostScanTest : public ::testing::Test {
 protected:
  Database db_;
};

// The EXPLAIN plan of `sql`, one line per operator.
std::string ExplainText(Database* db, const std::string& sql) {
  auto r = db->Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::string out;
  if (!r.ok()) return out;
  for (const Row& row : r->rows) out += row[0].AsString() + "\n";
  return out;
}

// Both mirrors' sizes as CostScan reads them.
struct MirrorSizes {
  double keys = 0;
  double main = 0;
  double delta = 0;
};
MirrorSizes SizesOf(const Table& t, Timestamp ts) {
  std::optional<ColumnTable::Snapshot> snap = t.GetColumnSnapshot(ts);
  return {static_cast<double>(t.row_table()->num_keys()),
          static_cast<double>(snap->main->num_rows()),
          static_cast<double>(snap->delta_rows())};
}

TEST_F(OptCostScanTest, DualTablePrefersColumnForWideScan) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE d (a BIGINT NOT NULL, b BIGINT, "
                          "PRIMARY KEY (a)) FORMAT DUAL")
                  .ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO d VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i % 4) + ")")
                    .ok());
  }
  Table* t = db_.catalog()->GetTable("d");
  ASSERT_NE(t, nullptr);
  opt::CostModel cm;
  using CM = opt::CostModel;
  // Unmerged, the 64 rows sit in the columnar delta, which prices per
  // appended row well below a row-mirror key visit: the full scan still
  // takes the column mirror.
  Timestamp ts = db_.txn_manager()->oracle()->CurrentReadTs();
  auto unmerged = cm.CostScan(*t, ts, {}, 64.0);
  EXPECT_EQ(unmerged.path, opt::AccessPath::kColumn);
  EXPECT_DOUBLE_EQ(unmerged.cost, CM::kColumnScanPerScan +
                                      64 * CM::kDeltaScanPerRow +
                                      64 * CM::kGatherPerRow);
  // Merged: the packed main is cheaper still, and deterministic.
  db_.MergeAll();
  ts = db_.txn_manager()->oracle()->CurrentReadTs();
  auto merged = cm.CostScan(*t, ts, {}, 64.0);
  EXPECT_EQ(merged.path, opt::AccessPath::kColumn);
  EXPECT_DOUBLE_EQ(merged.cost, CM::kColumnScanPerScan +
                                    64 * CM::kColumnScanPerRow +
                                    64 * CM::kGatherPerRow);
  EXPECT_DOUBLE_EQ(cm.CostScan(*t, ts, {}, 64.0).cost, merged.cost);
  EXPECT_LT(merged.cost, unmerged.cost);
  // A selective scan gathers almost nothing.
  auto sel = cm.CostScan(*t, ts, {}, 1.0);
  EXPECT_EQ(sel.path, opt::AccessPath::kColumn);
  EXPECT_LT(sel.cost, merged.cost);
}

// Updates `keys` rows of `table` (columns id, k) `rounds` times each, one
// transaction per round, so each round leaves one dead version per key.
void UpdateEveryKey(Database* db, Table* table, int keys, int rounds) {
  for (int r = 1; r <= rounds; ++r) {
    auto txn = db->txn_manager()->Begin();
    for (int id = 0; id < keys; ++id) {
      ASSERT_TRUE(
          txn->Update(table, Row{Value::Int64(id), Value::Int64(r)}).ok());
    }
    ASSERT_TRUE(db->txn_manager()->Commit(txn.get()).ok());
  }
}

void LoadKeys(Database* db, const std::string& name, int keys) {
  ASSERT_TRUE(db->Execute("CREATE TABLE " + name +
                          " (id BIGINT NOT NULL, k BIGINT, "
                          "PRIMARY KEY (id)) FORMAT DUAL")
                  .ok());
  Table* t = db->catalog()->GetTable(name);
  auto txn = db->txn_manager()->Begin();
  for (int id = 0; id < keys; ++id) {
    ASSERT_TRUE(txn->Insert(t, Row{Value::Int64(id), Value::Int64(0)}).ok());
  }
  ASSERT_TRUE(db->txn_manager()->Commit(txn.get()).ok());
  db->MergeAll();
}

// Main N and about 2N update versions in the delta, the state of CH's
// customer and stock between merges: the column mirror still prices
// cheaper, where a row-visit price per delta row sent it to the row side.
TEST_F(OptCostScanTest, DeltaHeavyDualTablePricesColumn) {
  constexpr int kKeys = 2000;
  LoadKeys(&db_, "h", kKeys);
  Table* t = db_.catalog()->GetTable("h");
  UpdateEveryKey(&db_, t, kKeys, 2);
  Timestamp ts = db_.txn_manager()->oracle()->CurrentReadTs();
  MirrorSizes sz = SizesOf(*t, ts);
  EXPECT_EQ(sz.main, kKeys);
  EXPECT_EQ(sz.delta, 2 * kKeys);
  auto d = opt::CostModel().CostScan(*t, ts, {}, kKeys);
  EXPECT_EQ(d.path, opt::AccessPath::kColumn);
  // The pricing the columnar delta replaced, per delta row at a row visit.
  EXPECT_GT(sz.main * opt::CostModel::kColumnScanPerRow +
                sz.delta * opt::CostModel::kRowScanPerRow,
            sz.keys);
  std::string plan = ExplainText(&db_, "SELECT k FROM h");
  EXPECT_NE(plan.find("path=column"), std::string::npos) << plan;
}

// 40 keys with about 200 dead versions each (CH's district between
// merges): the chunk visibility pass visits all 8 000 versions, so the
// row mirror's 40 key visits price cheaper.
TEST_F(OptCostScanTest, HotSmallDualTablePricesRow) {
  constexpr int kKeys = 40;
  LoadKeys(&db_, "hot", kKeys);
  Table* t = db_.catalog()->GetTable("hot");
  UpdateEveryKey(&db_, t, kKeys, 200);
  Timestamp ts = db_.txn_manager()->oracle()->CurrentReadTs();
  EXPECT_EQ(SizesOf(*t, ts).delta, 200 * kKeys);
  auto d = opt::CostModel().CostScan(*t, ts, {}, kKeys);
  EXPECT_EQ(d.path, opt::AccessPath::kRow);
  EXPECT_DOUBLE_EQ(d.cost, kKeys * opt::CostModel::kRowScanPerRow);
  std::string plan = ExplainText(&db_, "SELECT k FROM hot");
  EXPECT_NE(plan.find("path=row"), std::string::npos) << plan;
}

// CH after TPC-C transactions with no merge: customer and stock carry
// delta versions past 0.4x their main (where the old pricing flipped them
// to the row mirror) and district thousands. A8 and A10 scan customer and
// stock down the column mirror, A11 scans district down the row mirror,
// and every CH query returns the rows it returns with the optimizer off.
TEST(OptCostScanChTest, HotDualTablesTakeMeasuredPathAndAgreeWithOptimizerOff) {
  Database db;
  CHConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 10;
  config.customers_per_district = 30;
  config.items = 500;
  config.initial_orders_per_district = 20;
  CHBenchmark ch(&db, config);
  ASSERT_TRUE(ch.CreateTables().ok());
  ASSERT_TRUE(ch.Load().ok());
  db.MergeAll();
  Rng rng(5);
  CHTxnStats stats;
  for (int i = 0; i < 1500; ++i) ASSERT_TRUE(ch.RunMixed(&rng, &stats).ok());

  Timestamp ts = db.txn_manager()->oracle()->CurrentReadTs();
  for (const char* name : {"customer", "stock"}) {
    MirrorSizes sz = SizesOf(*db.catalog()->GetTable(name), ts);
    EXPECT_GT(sz.delta, 0.4 * sz.main) << name;
  }
  auto scan_line = [&](size_t q, const std::string& table) {
    std::string plan = ExplainText(&db, CHBenchmark::Queries()[q].sql);
    size_t at = plan.find("Scan(" + table + " ");
    EXPECT_NE(at, std::string::npos) << plan;
    if (at == std::string::npos) return std::string();
    return plan.substr(at, plan.find('\n', at) - at);
  };
  EXPECT_NE(scan_line(7, "customer").find("path=column"), std::string::npos);
  EXPECT_NE(scan_line(9, "stock").find("path=column"), std::string::npos);
  EXPECT_NE(scan_line(10, "district").find("path=row"), std::string::npos);

  const size_t n = CHBenchmark::Queries().size();
  std::vector<std::string> on(n);
  for (size_t q = 0; q < n; ++q) {
    auto r = ch.RunQuery(q);
    ASSERT_TRUE(r.ok()) << CHBenchmark::Queries()[q].name;
    on[q] = r->ToString(100000);
  }
  ASSERT_TRUE(db.Execute("SET optimizer = off").ok());
  for (size_t q = 0; q < n; ++q) {
    auto r = ch.RunQuery(q);
    ASSERT_TRUE(r.ok()) << CHBenchmark::Queries()[q].name;
    EXPECT_EQ(r->ToString(100000), on[q]) << CHBenchmark::Queries()[q].name;
  }
}

// ---------------------------------------------------------------------------
// Join ordering

TEST(JoinOrderTest, SingleAndEmpty) {
  opt::CostModel cm;
  opt::JoinGraph g0;
  auto r0 = opt::OrderJoins(g0, cm);
  EXPECT_TRUE(r0.order.empty());
  opt::JoinGraph g1;
  g1.rel_rows = {42.0};
  auto r1 = opt::OrderJoins(g1, cm);
  ASSERT_EQ(r1.order.size(), 1u);
  EXPECT_EQ(r1.order[0], 0);
  EXPECT_DOUBLE_EQ(r1.total_cost, 0.0);
}

TEST(JoinOrderTest, SmallRelationJoinsFirst) {
  // Chain a - b - c with a huge, c tiny: the cheap plan starts from the
  // small end, not FROM order.
  opt::CostModel cm;
  opt::JoinGraph g;
  g.rel_rows = {100000.0, 1000.0, 10.0};
  g.edges = {{0, 1, 1.0 / 1000.0}, {1, 2, 1.0 / 1000.0}};
  auto r = opt::OrderJoins(g, cm);
  ASSERT_EQ(r.order.size(), 3u);
  EXPECT_TRUE(r.used_dp);
  // The large relation must come last: any prefix containing 0 early
  // carries ~100k-row intermediates.
  EXPECT_EQ(r.order.back(), 0);
  ASSERT_EQ(r.interm_rows.size(), 3u);
  EXPECT_GT(r.total_cost, 0.0);
}

TEST(JoinOrderTest, DeterministicTieBreakIsFromOrder) {
  // Fully symmetric: identical cardinalities, identical edges. FROM order
  // must win the tie, and repeated runs must agree.
  opt::CostModel cm;
  opt::JoinGraph g;
  g.rel_rows = {100.0, 100.0, 100.0};
  g.edges = {{0, 1, 0.01}, {1, 2, 0.01}, {0, 2, 0.01}};
  auto r1 = opt::OrderJoins(g, cm);
  auto r2 = opt::OrderJoins(g, cm);
  EXPECT_EQ(r1.order, r2.order);
  EXPECT_EQ(r1.order, (std::vector<int>{0, 1, 2}));
}

TEST(JoinOrderTest, GreedyFallbackAboveDpLimit) {
  opt::CostModel cm;
  opt::JoinGraph g;
  const int n = opt::kDpMaxRelations + 2;
  for (int i = 0; i < n; ++i) {
    g.rel_rows.push_back(100.0 + i);
    if (i > 0) g.edges.push_back({i - 1, i, 0.01});
  }
  auto r = opt::OrderJoins(g, cm);
  EXPECT_FALSE(r.used_dp);
  ASSERT_EQ(r.order.size(), static_cast<size_t>(n));
  // Every relation appears exactly once.
  std::vector<int> sorted = r.order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(JoinOrderTest, AvoidsCrossProductWhenConnectedOrderExists) {
  // Star: 0 joins 1 and 2; 1-2 have no edge. Any valid order must place 0
  // before both spokes are joined to each other, i.e. never start {1,2}.
  opt::CostModel cm;
  opt::JoinGraph g;
  g.rel_rows = {50.0, 1000.0, 1000.0};
  g.edges = {{0, 1, 0.001}, {0, 2, 0.001}};
  auto r = opt::OrderJoins(g, cm);
  ASSERT_EQ(r.order.size(), 3u);
  // First two relations in the order must share an edge.
  int a = r.order[0], b = r.order[1];
  EXPECT_TRUE((a == 0) || (b == 0)) << "cross product {1,2} chosen first";
}

// ---------------------------------------------------------------------------
// Feedback

TEST(FeedbackTest, ObserveBelowThresholdKeepsOrder) {
  opt::PlanFeedback fb;
  fb.RememberOrder("q1", {1, 0});
  std::vector<opt::OpSample> samples = {{100.0, 90.0, 0}, {50.0, 60.0, -1}};
  double q = fb.Observe("q1", samples);
  EXPECT_LT(q, opt::kQErrorReplanThreshold);
  auto e = fb.Lookup("q1");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->order, (std::vector<int>{1, 0}));
  EXPECT_FALSE(e->has_actuals);
}

TEST(FeedbackTest, ObserveAboveThresholdInvalidatesAndStashesActuals) {
  opt::PlanFeedback fb;
  fb.RememberOrder("q2", {0, 1});
  // Scan 1's estimate is off by 100x.
  std::vector<opt::OpSample> samples = {{1000.0, 1000.0, 0},
                                        {10.0, 1000.0, 1}};
  double q = fb.Observe("q2", samples);
  EXPECT_GE(q, opt::kQErrorReplanThreshold);
  auto e = fb.Lookup("q2");
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->order.empty()) << "stale order must be invalidated";
  EXPECT_TRUE(e->has_actuals);
  ASSERT_GE(e->scan_actual_rows.size(), 2u);
  EXPECT_DOUBLE_EQ(e->scan_actual_rows[1], 1000.0);
}

TEST(FeedbackTest, UnestimatedSamplesAreNeutral) {
  opt::PlanFeedback fb;
  std::vector<opt::OpSample> samples = {{-1.0, 500.0, -1}};
  EXPECT_DOUBLE_EQ(fb.Observe("q3", samples), 1.0);
}

// ---------------------------------------------------------------------------
// SQL surface: ANALYZE, SET optimizer, EXPLAIN annotations, SHOW STATS.

class OptSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE big (id BIGINT NOT NULL, k BIGINT, "
                            "PRIMARY KEY (id)) FORMAT COLUMN")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE small (k BIGINT NOT NULL, tag TEXT, "
                            "PRIMARY KEY (k)) FORMAT COLUMN")
                    .ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 5) + ")")
                      .ok());
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO small VALUES (" +
                              std::to_string(i) + ", 't" + std::to_string(i) +
                              "')")
                      .ok());
    }
  }

  std::string Explain(const std::string& sql) {
    auto r = db_.Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string out;
    for (const Row& row : r->rows) out += row[0].AsString() + "\n";
    return out;
  }

  Database db_;
};

TEST_F(OptSqlTest, AnalyzeReturnsRowCounts) {
  auto r = db_.Execute("ANALYZE big");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns, (std::vector<std::string>{"table", "rows"}));
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "big");
  EXPECT_EQ(r->rows[0][1].AsInt64(), 200);
  // Bare ANALYZE covers every table.
  auto all = db_.Execute("ANALYZE");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 2u);
  // Unknown table errors.
  EXPECT_FALSE(db_.Execute("ANALYZE nope").ok());
}

TEST_F(OptSqlTest, ExplainCarriesEstimatesWhenOptimized) {
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  std::string on = Explain("SELECT * FROM big WHERE k = 3");
  EXPECT_NE(on.find("est_rows="), std::string::npos) << on;
  EXPECT_NE(on.find("cost="), std::string::npos) << on;
}

TEST_F(OptSqlTest, SetOptimizerOffRestoresLegacyExplainByteForByte) {
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  const std::string q =
      "SELECT big.id, small.tag FROM big JOIN small ON big.k = small.k "
      "WHERE big.id < 50";
  std::string on = Explain(q);
  ASSERT_TRUE(db_.Execute("SET optimizer = off").ok());
  std::string off = Explain(q);
  // Off-mode output carries no optimizer annotations at all.
  EXPECT_EQ(off.find("est_rows="), std::string::npos) << off;
  EXPECT_EQ(off.find("cost="), std::string::npos) << off;
  EXPECT_EQ(off.find("path="), std::string::npos) << off;
  // Both modes return identical results.
  ASSERT_TRUE(db_.Execute("SET optimizer = on").ok());
  auto r_on = db_.Execute(q + " ORDER BY big.id");
  ASSERT_TRUE(db_.Execute("SET optimizer = off").ok());
  auto r_off = db_.Execute(q + " ORDER BY big.id");
  ASSERT_TRUE(r_on.ok());
  ASSERT_TRUE(r_off.ok());
  ASSERT_EQ(r_on->rows.size(), r_off->rows.size());
  for (size_t i = 0; i < r_on->rows.size(); ++i) {
    for (size_t j = 0; j < r_on->rows[i].size(); ++j) {
      EXPECT_EQ(r_on->rows[i][j].ToString(), r_off->rows[i][j].ToString());
    }
  }
  // Bad knob values are rejected.
  EXPECT_FALSE(db_.Execute("SET optimizer = sideways").ok());
  EXPECT_FALSE(db_.Execute("SET banana = on").ok());
}

TEST_F(OptSqlTest, OptimizerReordersJoinToSmallBuildSide) {
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  // FROM order puts `big` first; the cost-based order builds on `small`.
  std::string plan = Explain(
      "SELECT big.id FROM big JOIN small ON big.k = small.k");
  size_t scan_small = plan.find("Scan(small");
  size_t scan_big = plan.find("Scan(big");
  ASSERT_NE(scan_small, std::string::npos) << plan;
  ASSERT_NE(scan_big, std::string::npos) << plan;
  // EXPLAIN prints the build (left) child before the probe child; the
  // small relation must be the build side.
  EXPECT_LT(scan_small, scan_big) << plan;
}

TEST_F(OptSqlTest, ShowStatsSurfacesFreshness) {
  ASSERT_TRUE(db_.Execute("ANALYZE big").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (1000, 1)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (1001, 2)").ok());
  auto r = db_.Execute("SHOW STATS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, int64_t> m;
  for (const Row& row : r->rows) {
    if (row[1].type() == ValueType::kInt64 && !row[1].is_null()) {
      m[row[0].AsString()] = row[1].AsInt64();
    }
  }
  ASSERT_TRUE(m.count("stats.big.rows"));
  EXPECT_EQ(m["stats.big.rows"], 200);
  ASSERT_TRUE(m.count("stats.big.mods_since_analyze"));
  EXPECT_EQ(m["stats.big.mods_since_analyze"], 2);
  // Never-analyzed tables do not appear.
  EXPECT_FALSE(m.count("stats.small.rows"));
}

TEST_F(OptSqlTest, ExplainAnalyzeShowsEstimateVersusActual) {
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  auto r = db_.Execute("EXPLAIN ANALYZE SELECT * FROM big WHERE k = 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns,
            (std::vector<std::string>{"operator", "est_rows", "rows",
                                      "batches", "time_ms"}));
  bool saw_estimated_scan = false;
  for (const Row& row : r->rows) {
    if (row[0].AsString().find("Scan(big") == std::string::npos) continue;
    saw_estimated_scan = !row[1].is_null();
    // k has 5 distinct values over 200 rows: the estimate should be close
    // to the actual 40.
    EXPECT_NEAR(static_cast<double>(row[1].AsInt64()),
                static_cast<double>(row[2].AsInt64()), 20.0);
  }
  EXPECT_TRUE(saw_estimated_scan);
}

TEST_F(OptSqlTest, FeedbackInvalidatesBadPlans) {
  // No ANALYZE: the planner runs on defaults and misestimates the
  // selective scan badly enough to cross the q-error threshold.
  const std::string q =
      "SELECT big.id FROM big JOIN small ON big.k = small.k";
  auto r1 = db_.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GE(db_.plan_feedback()->size(), 1u);
  // Re-running still succeeds and returns the same rows (re-plan path).
  auto r2 = db_.Execute(q);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->rows.size(), r2->rows.size());
}

// An int64 and a double join key compare as doubles, as the same equality
// in a Filter does: the optimizer turns the WHERE equality into a hash key
// and SET optimizer = off filters it, and both must return the same rows.
TEST(OptJoinKeyTest, BigintEqualsDoubleJoinsInBothModes) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE a (id BIGINT NOT NULL, x BIGINT, "
                         "i BIGINT, PRIMARY KEY (id)) FORMAT COLUMN")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE b (id BIGINT NOT NULL, x BIGINT, "
                         "d DOUBLE, PRIMARY KEY (id)) FORMAT COLUMN")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO a VALUES (1, 7, 5)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO b VALUES (2, 7, 5.0)").ok());
  // A NULL never joins, not even a NULL.
  ASSERT_TRUE(db.Execute("INSERT INTO a VALUES (3, 7, NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO b VALUES (4, 7, NULL)").ok());
  for (const char* mode : {"on", "off"}) {
    ASSERT_TRUE(db.Execute(std::string("SET optimizer = ") + mode).ok());
    for (const std::string q :
         {"SELECT a.id, b.id FROM a JOIN b ON a.x = b.x WHERE a.i = b.d",
          "SELECT a.id, b.id FROM a JOIN b ON a.i = b.d"}) {
      auto r = db.Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->rows.size(), 1u) << q << " optimizer=" << mode;
      EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
      EXPECT_EQ(r->rows[0][1].AsInt64(), 2);
    }
    // A cross-table filter that is no hash key runs above the join on
    // columns nothing else names.
    auto r = db.Execute(
        "SELECT a.id FROM a JOIN b ON a.x = b.x WHERE a.i < b.d + 1");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << "optimizer=" << mode;
    EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  }
}

// The optimizer prunes every scan to the columns read above it and EXPLAIN
// lists them; SET optimizer = off keeps full-width scans.
TEST(OptPruningTest, ScansListOnlyReferencedColumns) {
  Database db;
  CHConfig config;
  config.warehouses = 1;
  config.customers_per_district = 20;
  config.items = 100;
  config.initial_orders_per_district = 10;
  CHBenchmark bench(&db, config);
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  const std::string& a4 = CHBenchmark::Queries()[3].sql;
  ASSERT_NE(a4.find("c_state"), std::string::npos);
  auto explain = [&] {
    auto r = db.Execute("EXPLAIN " + a4);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::map<std::string, std::string> cols;  // table -> cols= list
    for (const Row& row : r->rows) {
      const std::string& line = row[0].AsString();
      size_t scan = line.find("Scan(");
      if (scan == std::string::npos) continue;
      std::string table = line.substr(scan + 5, line.find(' ', scan) - scan - 5);
      size_t c = line.find("cols=");
      cols[table] = c == std::string::npos
                        ? ""
                        : line.substr(c + 5, line.find(')', c) - c - 5);
    }
    return cols;
  };
  std::map<std::string, std::string> on = explain();
  EXPECT_EQ(on, (std::map<std::string, std::string>{
                    {"customer", "c_w_id,c_d_id,c_id,c_state"},
                    {"orders", "o_w_id,o_d_id,o_id,o_c_id"},
                    {"orderline", "ol_w_id,ol_d_id,ol_o_id,ol_amount"}}));
  ASSERT_TRUE(db.Execute("SET optimizer = off").ok());
  std::map<std::string, std::string> off = explain();
  EXPECT_EQ(off, (std::map<std::string, std::string>{
                     {"customer", ""}, {"orders", ""}, {"orderline", ""}}));
}

}  // namespace
}  // namespace oltap
