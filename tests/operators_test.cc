#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/fused_kernels.h"
#include "exec/operators.h"
#include "storage/table.h"

namespace oltap {
namespace {

Schema SalesSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddInt64("region", false)
      .AddString("product")
      .AddDouble("amount")
      .SetKey({"id"})
      .Build();
}

// Builds a deterministic sales table with `n` rows in the given format.
std::unique_ptr<Table> MakeSales(size_t n, TableFormat format,
                                 bool via_delta = false) {
  auto table = std::make_unique<Table>("sales", SalesSchema(), format);
  const char* products[] = {"ant", "bee", "cat", "dog"};
  Rng rng(99);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int64(static_cast<int64_t>(i)),
                       Value::Int64(static_cast<int64_t>(i % 5)),
                       Value::String(products[i % 4]),
                       Value::Double(static_cast<double>(i) * 0.5)});
  }
  if (!via_delta && format != TableFormat::kRow) {
    OLTAP_CHECK(table->BulkLoadToMain(rows, 1).ok());
  } else {
    for (const Row& r : rows) {
      OLTAP_CHECK(table->InsertCommitted(r, 1).ok());
    }
  }
  return table;
}

// Serial execution is DOP 1. The scan, filter, join and aggregate cases
// below also run their inputs at DOP 4 on a shared pool, where the row
// stream must be the DOP-1 one.
ThreadPool* Pool() {
  static ThreadPool pool(3);
  return &pool;
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  return out;
}

// Builds the plan at DOP 1 and at DOP 4 and expects identical row streams.
void ExpectSameAtDop4(
    const std::function<PhysicalOpPtr(ParallelContext)>& build) {
  PhysicalOpPtr serial = build(ParallelContext{});
  PhysicalOpPtr parallel = build(ParallelContext{Pool(), 4});
  EXPECT_EQ(ExplainPlan(serial.get()).find("dop="), std::string::npos);
  EXPECT_NE(ExplainPlan(parallel.get()).find("dop=4"), std::string::npos);
  EXPECT_EQ(Render(CollectRows(serial.get())),
            Render(CollectRows(parallel.get())));
}

TEST(ScanOpTest, FullScanAllFormats) {
  for (TableFormat f :
       {TableFormat::kRow, TableFormat::kColumn, TableFormat::kDual}) {
    auto table = MakeSales(100, f);
    ScanOp scan(table.get(), 10, nullptr);
    std::vector<Row> rows = CollectRows(&scan);
    EXPECT_EQ(rows.size(), 100u) << TableFormatToString(f);
    if (f == TableFormat::kRow) continue;  // morsels split a column main
    ExpectSameAtDop4([&](ParallelContext ctx) {
      return std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                      std::vector<int>{},
                                      ScanOp::Path::kAuto, ctx);
    });
  }
}

TEST(ScanOpTest, PushedPredicateMatchesRowFilter) {
  auto table = MakeSales(1000, TableFormat::kColumn);
  ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kLt, Expr::Column(1, ValueType::kInt64),
                    Expr::Constant(Value::Int64(2))),
      Expr::Compare(CompareOp::kEq, Expr::Column(2, ValueType::kString),
                    Expr::Constant(Value::String("ant"))));
  ScanOp scan(table.get(), 10, pred);
  std::vector<Row> rows = CollectRows(&scan);
  size_t expected = 0;
  for (size_t i = 0; i < 1000; ++i) {
    if (i % 5 < 2 && i % 4 == 0) ++expected;
  }
  EXPECT_EQ(rows.size(), expected);
  for (const Row& r : rows) {
    EXPECT_LT(r[1].AsInt64(), 2);
    EXPECT_EQ(r[2].AsString(), "ant");
  }
  ExpectSameAtDop4([&](ParallelContext ctx) {
    return std::make_unique<ScanOp>(table.get(), 10, pred, std::vector<int>{},
                                    ScanOp::Path::kAuto, ctx);
  });
}

TEST(ScanOpTest, ResidualPredicateApplied) {
  auto table = MakeSales(500, TableFormat::kColumn);
  // amount > id*0.4 is not a pushable (col op const) term.
  ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::Column(3, ValueType::kDouble),
      Expr::Arith(Expr::Kind::kMul, Expr::Column(0, ValueType::kInt64),
                  Expr::Constant(Value::Double(0.4))));
  ScanOp scan(table.get(), 10, pred);
  std::vector<Row> rows = CollectRows(&scan);
  // amount = id*0.5 > id*0.4 for id > 0.
  EXPECT_EQ(rows.size(), 499u);
  // A projected column the residual does not read comes from the same
  // passing rows.
  ScanOp narrow(table.get(), 10, pred, {0, 2});
  std::vector<Row> kept = CollectRows(&narrow);
  ASSERT_EQ(kept.size(), 499u);
  const char* products[] = {"ant", "bee", "cat", "dog"};
  for (const Row& r : kept) {
    EXPECT_EQ(r[1].AsString(), products[r[0].AsInt64() % 4]);
  }
  ExpectSameAtDop4([&](ParallelContext ctx) {
    return std::make_unique<ScanOp>(table.get(), 10, pred, std::vector<int>{},
                                    ScanOp::Path::kAuto, ctx);
  });
}

TEST(ScanOpTest, ProjectionSelectsAndOrders) {
  auto table = MakeSales(10, TableFormat::kColumn);
  ScanOp scan(table.get(), 10, nullptr, {3, 0});
  scan.Open();
  Batch batch;
  ASSERT_TRUE(scan.NextBatch(&batch));
  ASSERT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.columns[0].type(), ValueType::kDouble);
  EXPECT_EQ(batch.columns[1].type(), ValueType::kInt64);
  EXPECT_DOUBLE_EQ(batch.columns[0].GetDouble(4), 2.0);
  EXPECT_EQ(batch.columns[1].GetInt64(4), 4);
  ExpectSameAtDop4([&](ParallelContext ctx) {
    return std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                    std::vector<int>{3, 0},
                                    ScanOp::Path::kAuto, ctx);
  });
}

TEST(ScanOpTest, ScansDeltaAndMainTogether) {
  // 100 main rows (one morsel), then 20000 (three morsels at DOP 4).
  for (int64_t n : {100, 20000}) {
    auto table = MakeSales(static_cast<size_t>(n), TableFormat::kColumn);
    // 20 more rows into the delta.
    for (int64_t i = n; i < n + 20; ++i) {
      ASSERT_TRUE(table
                      ->InsertCommitted(Row{Value::Int64(i), Value::Int64(1),
                                            Value::String("new"),
                                            Value::Double(1.0)},
                                        5)
                      .ok());
    }
    ScanOp scan(table.get(), 10, nullptr);
    EXPECT_EQ(CollectRows(&scan).size(), static_cast<size_t>(n + 20));
    // At an older timestamp the delta rows are invisible.
    ScanOp old_scan(table.get(), 2, nullptr);
    EXPECT_EQ(CollectRows(&old_scan).size(), static_cast<size_t>(n));
    ExprPtr pred = Expr::Compare(CompareOp::kNe,
                                 Expr::Column(2, ValueType::kString),
                                 Expr::Constant(Value::String("cat")));
    for (Timestamp ts : {Timestamp{10}, Timestamp{2}}) {
      ExpectSameAtDop4([&](ParallelContext ctx) {
        return std::make_unique<ScanOp>(table.get(), ts, pred,
                                        std::vector<int>{0, 2},
                                        ScanOp::Path::kAuto, ctx);
      });
    }
  }
}

TEST(ScanOpTest, ZonePruningSkipsImpossiblePredicates) {
  auto table = MakeSales(8192, TableFormat::kColumn);
  ExprPtr pred = Expr::Compare(CompareOp::kGt,
                               Expr::Column(0, ValueType::kInt64),
                               Expr::Constant(Value::Int64(1'000'000)));
  ScanOp scan(table.get(), 10, pred);
  EXPECT_EQ(CollectRows(&scan).size(), 0u);
  EXPECT_GT(scan.zones_pruned(), 0u);
  ScanOp parallel(table.get(), 10, pred, {}, ScanOp::Path::kAuto,
                  ParallelContext{Pool(), 4});
  EXPECT_EQ(CollectRows(&parallel).size(), 0u);
  EXPECT_EQ(parallel.zones_pruned(), scan.zones_pruned());
}

TEST(FilterOpTest, FiltersBatches) {
  auto table = MakeSales(100, TableFormat::kColumn);
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  ExprPtr pred = Expr::Compare(CompareOp::kGe,
                               Expr::Column(0, ValueType::kInt64),
                               Expr::Constant(Value::Int64(90)));
  FilterOp filter(std::move(scan), pred);
  EXPECT_EQ(CollectRows(&filter).size(), 10u);
  ExpectSameAtDop4([&](ParallelContext ctx) {
    auto child = std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                          std::vector<int>{},
                                          ScanOp::Path::kAuto, ctx);
    return std::make_unique<FilterOp>(std::move(child), pred, ctx);
  });
}

TEST(ProjectOpTest, ComputesExpressions) {
  auto table = MakeSales(10, TableFormat::kColumn);
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  std::vector<ExprPtr> exprs = {
      Expr::Arith(Expr::Kind::kAdd, Expr::Column(0, ValueType::kInt64),
                  Expr::Constant(Value::Int64(1000))),
  };
  ProjectOp project(std::move(scan), std::move(exprs));
  std::vector<Row> rows = CollectRows(&project);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[3][0].AsInt64(), 1003);
}

TEST(HashAggOpTest, GlobalAggregates) {
  auto table = MakeSales(100, TableFormat::kColumn);
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  std::vector<AggSpec> aggs(5);
  aggs[0].fn = AggSpec::Fn::kCountStar;
  aggs[1].fn = AggSpec::Fn::kSum;
  aggs[1].arg = Expr::Column(3, ValueType::kDouble);
  aggs[2].fn = AggSpec::Fn::kMin;
  aggs[2].arg = Expr::Column(0, ValueType::kInt64);
  aggs[3].fn = AggSpec::Fn::kMax;
  aggs[3].arg = Expr::Column(0, ValueType::kInt64);
  aggs[4].fn = AggSpec::Fn::kAvg;
  aggs[4].arg = Expr::Column(0, ValueType::kInt64);
  // SUM(double) and AVG are not mergeable: at DOP 4 they fold at DOP 1
  // over the parallel scan.
  ASSERT_FALSE(AggsParallelMergeable(aggs));
  ExpectSameAtDop4([&](ParallelContext ctx) {
    auto child = std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                          std::vector<int>{},
                                          ScanOp::Path::kAuto, ctx);
    return std::make_unique<HashAggOp>(std::move(child),
                                       std::vector<ExprPtr>{}, aggs);
  });
  HashAggOp agg(std::move(scan), {}, std::move(aggs));
  std::vector<Row> rows = CollectRows(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 100);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 99.0 * 100 / 2 * 0.5);
  EXPECT_EQ(rows[0][2].AsInt64(), 0);
  EXPECT_EQ(rows[0][3].AsInt64(), 99);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 49.5);
}

TEST(HashAggOpTest, GroupByWithNullSkipping) {
  Schema schema = SchemaBuilder().AddInt64("g").AddInt64("v").Build();
  auto table = std::make_unique<Table>("t", schema, TableFormat::kColumn);
  ASSERT_TRUE(table->InsertCommitted({Value::Int64(1), Value::Int64(10)}, 1).ok());
  ASSERT_TRUE(table->InsertCommitted({Value::Int64(1), Value::Null()}, 1).ok());
  ASSERT_TRUE(table->InsertCommitted({Value::Int64(2), Value::Int64(5)}, 1).ok());
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  std::vector<AggSpec> aggs(3);
  aggs[0].fn = AggSpec::Fn::kCountStar;
  aggs[1].fn = AggSpec::Fn::kCount;
  aggs[1].arg = Expr::Column(1, ValueType::kInt64);
  aggs[2].fn = AggSpec::Fn::kSum;
  aggs[2].arg = Expr::Column(1, ValueType::kInt64);
  ASSERT_TRUE(AggsParallelMergeable(aggs));
  ExpectSameAtDop4([&](ParallelContext ctx) {
    auto child = std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                          std::vector<int>{},
                                          ScanOp::Path::kAuto, ctx);
    return std::make_unique<HashAggOp>(
        std::move(child),
        std::vector<ExprPtr>{Expr::Column(0, ValueType::kInt64)}, aggs, ctx);
  });
  HashAggOp agg(std::move(scan), {Expr::Column(0, ValueType::kInt64)},
                std::move(aggs));
  std::vector<Row> rows = CollectRows(&agg);
  ASSERT_EQ(rows.size(), 2u);
  std::map<int64_t, Row> by_group;
  for (Row& r : rows) by_group[r[0].AsInt64()] = r;
  EXPECT_EQ(by_group[1][1].AsInt64(), 2);  // COUNT(*)
  EXPECT_EQ(by_group[1][2].AsInt64(), 1);  // COUNT(v) skips NULL
  EXPECT_EQ(by_group[1][3].AsInt64(), 10);
  EXPECT_EQ(by_group[2][3].AsInt64(), 5);
}

TEST(HashAggOpTest, EmptyInputGlobalAggregate) {
  auto table = MakeSales(0, TableFormat::kColumn, /*via_delta=*/true);
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  std::vector<AggSpec> aggs(2);
  aggs[0].fn = AggSpec::Fn::kCountStar;
  aggs[1].fn = AggSpec::Fn::kSum;
  aggs[1].arg = Expr::Column(3, ValueType::kDouble);
  ExpectSameAtDop4([&](ParallelContext ctx) {
    auto child = std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                          std::vector<int>{},
                                          ScanOp::Path::kAuto, ctx);
    return std::make_unique<HashAggOp>(std::move(child),
                                       std::vector<ExprPtr>{}, aggs);
  });
  // COUNT(*) alone merges: one synthesized row at DOP 4 too.
  ExpectSameAtDop4([&](ParallelContext ctx) {
    auto child = std::make_unique<ScanOp>(table.get(), 10, nullptr,
                                          std::vector<int>{},
                                          ScanOp::Path::kAuto, ctx);
    return std::make_unique<HashAggOp>(std::move(child),
                                       std::vector<ExprPtr>{},
                                       std::vector<AggSpec>{aggs[0]}, ctx);
  });
  HashAggOp agg(std::move(scan), {}, std::move(aggs));
  std::vector<Row> rows = CollectRows(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(rows[0][1].is_null());  // SUM of nothing is NULL
}

// A table keyed on (k1 INT64, k2 STRING), each NULL now and then, with a
// payload v = row number: `n` rows in the main fragment and a short delta
// tail, so a DOP-4 scan has several morsels and a trailing delta slot.
std::unique_ptr<Table> MakeKeyed(const std::string& name, size_t n,
                                 int64_t k1_mod) {
  Schema schema =
      SchemaBuilder().AddInt64("k1").AddString("k2").AddInt64("v").Build();
  auto table = std::make_unique<Table>(name, schema, TableFormat::kColumn);
  auto row = [&](size_t i) {
    return Row{i % 23 == 0 ? Value::Null()
                           : Value::Int64(static_cast<int64_t>(i * 7919) %
                                          k1_mod),
               i % 29 == 0 ? Value::Null(ValueType::kString)
                           : Value::String("s" + std::to_string(i % 3)),
               Value::Int64(static_cast<int64_t>(i))};
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(row(i));
  OLTAP_CHECK(table->BulkLoadToMain(rows, 1).ok());
  for (size_t i = n; i < n + 50; ++i) {
    OLTAP_CHECK(table->InsertCommitted(row(i), 1).ok());
  }
  return table;
}

// SQL key equality: both sides non-NULL and equal.
bool KeysMatch(const Row& a, const Row& b, const std::vector<int>& ka,
               const std::vector<int>& kb) {
  for (size_t k = 0; k < ka.size(); ++k) {
    const Value& x = a[ka[k]];
    const Value& y = b[kb[k]];
    if (x.is_null() || y.is_null() || x.Compare(y) != 0) return false;
  }
  return true;
}

TEST(HashAggOpTest, TypedGroupKeysFirstSeenOrder) {
  // (int64, string) group keys with NULLs; rows whose keys are both NULL
  // form one group. Output follows first-seen order at any DOP.
  auto table = MakeKeyed("t", 3 * kMorselRows, 40);
  std::vector<AggSpec> aggs(4);
  aggs[0].fn = AggSpec::Fn::kCountStar;
  aggs[1].fn = AggSpec::Fn::kSum;
  aggs[1].arg = Expr::Column(2, ValueType::kInt64);
  aggs[2].fn = AggSpec::Fn::kMin;
  aggs[2].arg = Expr::Column(1, ValueType::kString);
  aggs[3].fn = AggSpec::Fn::kMax;
  aggs[3].arg = Expr::Column(2, ValueType::kInt64);
  ASSERT_TRUE(AggsParallelMergeable(aggs));

  std::vector<Row> expected;
  std::map<std::string, size_t> index;
  ScanOp scan(table.get(), 10, nullptr);
  for (const Row& r : CollectRows(&scan)) {
    std::string key = r[0].ToString() + "|" + r[1].ToString();
    auto [it, fresh] = index.emplace(key, expected.size());
    if (fresh) {
      expected.push_back({r[0], r[1], Value::Int64(0), Value::Int64(0),
                          Value::Null(ValueType::kString),
                          Value::Null(ValueType::kInt64)});
    }
    Row& g = expected[it->second];
    g[2] = Value::Int64(g[2].AsInt64() + 1);
    g[3] = Value::Int64(g[3].AsInt64() + r[2].AsInt64());
    if (!r[1].is_null() && (g[4].is_null() || r[1].Compare(g[4]) < 0)) {
      g[4] = r[1];
    }
    if (g[5].is_null() || r[2].Compare(g[5]) > 0) g[5] = r[2];
  }
  ASSERT_EQ(index.count("NULL|NULL"), 1u);

  auto plan = [&](ParallelContext ctx) {
    return std::make_unique<HashAggOp>(
        std::make_unique<ScanOp>(table.get(), 10, nullptr, std::vector<int>{},
                                 ScanOp::Path::kAuto, ctx),
        std::vector<ExprPtr>{Expr::Column(0, ValueType::kInt64),
                             Expr::Column(1, ValueType::kString)},
        aggs, ctx);
  };
  ExpectSameAtDop4(plan);
  EXPECT_EQ(Render(CollectRows(plan(ParallelContext{}).get())),
            Render(expected));
}

TEST(HashJoinOpTest, InnerEquiJoin) {
  Schema left_schema = SchemaBuilder().AddInt64("k").AddString("l").Build();
  Schema right_schema = SchemaBuilder().AddInt64("k").AddInt64("r").Build();
  auto left = std::make_unique<Table>("l", left_schema, TableFormat::kColumn);
  auto right = std::make_unique<Table>("r", right_schema, TableFormat::kColumn);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(left->InsertCommitted(
                        {Value::Int64(i), Value::String("L" + std::to_string(i))},
                        1)
                    .ok());
  }
  // Right side: keys 5..14, with key 5 duplicated.
  for (int64_t i = 5; i < 15; ++i) {
    ASSERT_TRUE(
        right->InsertCommitted({Value::Int64(i), Value::Int64(i * 100)}, 1)
            .ok());
  }
  ASSERT_TRUE(
      right->InsertCommitted({Value::Int64(5), Value::Int64(999)}, 1).ok());

  auto lscan = std::make_unique<ScanOp>(left.get(), 10, nullptr);
  auto rscan = std::make_unique<ScanOp>(right.get(), 10, nullptr);
  HashJoinOp join(std::move(lscan), std::move(rscan), {0}, {0});
  std::vector<Row> rows = CollectRows(&join);
  // Matching keys 5..9 (5 keys), key 5 matches twice → 6 rows.
  EXPECT_EQ(rows.size(), 6u);
  std::multiset<int64_t> right_vals;
  for (const Row& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0].AsInt64(), r[2].AsInt64());  // join keys equal
    right_vals.insert(r[3].AsInt64());
  }
  EXPECT_EQ(right_vals.count(999), 1u);
  EXPECT_EQ(right_vals.count(500), 1u);

  // Both orientations at DOP 4: with `right` as the build side, key 5 is
  // a duplicate build key whose matches keep build-row order.
  for (bool right_builds : {false, true}) {
    ExpectSameAtDop4([&](ParallelContext ctx) {
      const Table* build = right_builds ? right.get() : left.get();
      const Table* probe = right_builds ? left.get() : right.get();
      return std::make_unique<HashJoinOp>(
          std::make_unique<ScanOp>(build, 10, nullptr),
          std::make_unique<ScanOp>(probe, 10, nullptr, std::vector<int>{},
                                   ScanOp::Path::kAuto, ctx),
          std::vector<int>{0}, std::vector<int>{0}, ctx);
    });
  }
}

TEST(HashJoinOpTest, NullKeysNeverJoin) {
  Schema schema = SchemaBuilder().AddInt64("k").Build();
  auto left = std::make_unique<Table>("l", schema, TableFormat::kColumn);
  auto right = std::make_unique<Table>("r", schema, TableFormat::kColumn);
  ASSERT_TRUE(left->InsertCommitted({Value::Null()}, 1).ok());
  ASSERT_TRUE(right->InsertCommitted({Value::Null()}, 1).ok());
  auto lscan = std::make_unique<ScanOp>(left.get(), 10, nullptr);
  auto rscan = std::make_unique<ScanOp>(right.get(), 10, nullptr);
  HashJoinOp join(std::move(lscan), std::move(rscan), {0}, {0});
  EXPECT_EQ(CollectRows(&join).size(), 0u);
  // NULL and duplicate build keys beside matching ones.
  for (int64_t k : {1, 1, 2}) {
    ASSERT_TRUE(left->InsertCommitted({Value::Int64(k)}, 1).ok());
    ASSERT_TRUE(right->InsertCommitted({Value::Int64(k)}, 1).ok());
  }
  ASSERT_TRUE(left->InsertCommitted({Value::Null()}, 1).ok());
  ExpectSameAtDop4([&](ParallelContext ctx) {
    return std::make_unique<HashJoinOp>(
        std::make_unique<ScanOp>(left.get(), 10, nullptr),
        std::make_unique<ScanOp>(right.get(), 10, nullptr, std::vector<int>{},
                                 ScanOp::Path::kAuto, ctx),
        std::vector<int>{0}, std::vector<int>{0}, ctx);
  });
}

TEST(HashJoinOpTest, TypedKeysMatchNestedLoopReference) {
  // Multi-column (int64, string) keys; the 60 build rows repeat keys, and
  // NULLs sit on both sides.
  auto build = MakeKeyed("b", 60, 20);
  auto probe = MakeKeyed("p", 3 * kMorselRows, 25);
  const std::vector<int> keys = {0, 1};
  auto scan_rows = [](const Table* t) {
    ScanOp scan(t, 10, nullptr);
    return CollectRows(&scan);
  };
  // Probe order outside, build-row order inside: the DOP-1 match order.
  std::vector<Row> build_rows = scan_rows(build.get());
  std::vector<Row> expected;
  for (const Row& p : scan_rows(probe.get())) {
    for (const Row& b : build_rows) {
      if (!KeysMatch(b, p, keys, keys)) continue;
      Row out = b;
      out.insert(out.end(), p.begin(), p.end());
      expected.push_back(std::move(out));
    }
  }
  ASSERT_GT(expected.size(), 3 * kMorselRows);
  auto plan = [&](ParallelContext ctx) {
    return std::make_unique<HashJoinOp>(
        std::make_unique<ScanOp>(build.get(), 10, nullptr),
        std::make_unique<ScanOp>(probe.get(), 10, nullptr, std::vector<int>{},
                                 ScanOp::Path::kAuto, ctx),
        keys, keys, ctx);
  };
  ExpectSameAtDop4(plan);
  EXPECT_EQ(Render(CollectRows(plan(ParallelContext{}).get())),
            Render(expected));
}

TEST(HashJoinOpTest, MixedIntDoubleKeysCompareAsDouble) {
  Schema ints = SchemaBuilder().AddInt64("k").Build();
  Schema doubles = SchemaBuilder().AddDouble("k").Build();
  auto i_table = std::make_unique<Table>("i", ints, TableFormat::kColumn);
  auto d_table = std::make_unique<Table>("d", doubles, TableFormat::kColumn);
  for (Value v : {Value::Int64(1), Value::Int64(2), Value::Int64(3),
                  Value::Int64(5), Value::Null()}) {
    ASSERT_TRUE(i_table->InsertCommitted({v}, 1).ok());
  }
  for (Value v : {Value::Double(1.0), Value::Double(2.5), Value::Double(3.0),
                  Value::Null(ValueType::kDouble), Value::Double(5.0),
                  Value::Double(5.0)}) {
    ASSERT_TRUE(d_table->InsertCommitted({v}, 1).ok());
  }
  for (bool ints_build : {true, false}) {
    const Table* b = ints_build ? i_table.get() : d_table.get();
    const Table* p = ints_build ? d_table.get() : i_table.get();
    auto plan = [&](ParallelContext ctx) {
      return std::make_unique<HashJoinOp>(
          std::make_unique<ScanOp>(b, 10, nullptr),
          std::make_unique<ScanOp>(p, 10, nullptr, std::vector<int>{},
                                   ScanOp::Path::kAuto, ctx),
          std::vector<int>{0}, std::vector<int>{0}, ctx);
    };
    ExpectSameAtDop4(plan);
    std::vector<Row> rows = CollectRows(plan(ParallelContext{}).get());
    ASSERT_EQ(rows.size(), 4u);  // 1, 3, 5 and 5 again
    for (const Row& r : rows) EXPECT_EQ(r[0].AsDouble(), r[1].AsDouble());
  }
}

TEST(SortOpTest, MultiKeyWithDescending) {
  auto table = MakeSales(20, TableFormat::kColumn);
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  // Sort by region asc, id desc.
  SortOp sort(std::move(scan),
              {{1, false}, {0, true}});
  std::vector<Row> rows = CollectRows(&sort);
  ASSERT_EQ(rows.size(), 20u);
  for (size_t i = 1; i < rows.size(); ++i) {
    int64_t pr = rows[i - 1][1].AsInt64(), cr = rows[i][1].AsInt64();
    EXPECT_LE(pr, cr);
    if (pr == cr) {
      EXPECT_GT(rows[i - 1][0].AsInt64(), rows[i][0].AsInt64());
    }
  }
}

TEST(SortOpTest, NullsSortFirst) {
  Schema schema = SchemaBuilder().AddInt64("v").Build();
  auto table = std::make_unique<Table>("t", schema, TableFormat::kColumn);
  ASSERT_TRUE(table->InsertCommitted({Value::Int64(5)}, 1).ok());
  ASSERT_TRUE(table->InsertCommitted({Value::Null()}, 1).ok());
  ASSERT_TRUE(table->InsertCommitted({Value::Int64(1)}, 1).ok());
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  SortOp sort(std::move(scan), {{0, false}});
  std::vector<Row> rows = CollectRows(&sort);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[1][0].AsInt64(), 1);
  // TopN compares the same way on typed cells.
  TopNOp topn(std::make_unique<ScanOp>(table.get(), 10, nullptr),
              {{0, false}}, 2);
  std::vector<Row> top = CollectRows(&topn);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_TRUE(top[0][0].is_null());
  EXPECT_EQ(top[1][0].AsInt64(), 1);
}

TEST(TopNOpTest, MatchesSortThenLimit) {
  auto table = MakeSales(500, TableFormat::kColumn);
  std::vector<SortOp::SortKey> keys = {{1, false}, {0, true}};
  auto reference = [&] {
    auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
    SortOp sort(std::move(scan), keys);
    std::vector<Row> all = CollectRows(&sort);
    all.resize(std::min<size_t>(all.size(), 17));
    return all;
  }();
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  TopNOp topn(std::move(scan), keys, 17);
  std::vector<Row> rows = CollectRows(&topn);
  ASSERT_EQ(rows.size(), reference.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt64(), reference[i][0].AsInt64()) << i;
    EXPECT_EQ(rows[i][1].AsInt64(), reference[i][1].AsInt64()) << i;
  }
}

TEST(TopNOpTest, EdgeLimits) {
  auto table = MakeSales(50, TableFormat::kColumn);
  std::vector<SortOp::SortKey> keys = {{0, true}};
  {
    auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
    TopNOp zero(std::move(scan), keys, 0);
    EXPECT_EQ(CollectRows(&zero).size(), 0u);
  }
  {
    auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
    TopNOp bigger(std::move(scan), keys, 500);
    std::vector<Row> rows = CollectRows(&bigger);
    ASSERT_EQ(rows.size(), 50u);
    EXPECT_EQ(rows[0][0].AsInt64(), 49);  // descending
    EXPECT_EQ(rows[49][0].AsInt64(), 0);
  }
}

TEST(LimitOpTest, TruncatesOutput) {
  auto table = MakeSales(100, TableFormat::kColumn);
  auto scan = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  LimitOp limit(std::move(scan), 7);
  EXPECT_EQ(CollectRows(&limit).size(), 7u);

  auto scan2 = std::make_unique<ScanOp>(table.get(), 10, nullptr);
  LimitOp limit0(std::move(scan2), 0);
  EXPECT_EQ(CollectRows(&limit0).size(), 0u);
}

TEST(ExecutionModeTest, AllModesAgree) {
  auto table = MakeSales(5000, TableFormat::kColumn);
  auto snap = table->GetColumnSnapshot(10);
  ASSERT_TRUE(snap.has_value());
  for (int64_t threshold : {0, 1, 2, 4, 5}) {
    SimpleAggQuery q;
    q.filter_col = 1;  // region
    q.op = CompareOp::kLt;
    q.constant = threshold;
    q.agg_col = 3;  // amount
    double tuple = RunSimpleAgg(*snap->main, q, ExecutionMode::kTupleAtATime);
    double vec = RunSimpleAgg(*snap->main, q, ExecutionMode::kVectorized);
    double fused = RunSimpleAgg(*snap->main, q, ExecutionMode::kFused);
    EXPECT_DOUBLE_EQ(tuple, vec) << "threshold " << threshold;
    EXPECT_DOUBLE_EQ(tuple, fused) << "threshold " << threshold;
  }
}

TEST(FusedKernelTest, CountAndSumProduct) {
  auto table = MakeSales(1000, TableFormat::kColumn);
  auto snap = table->GetColumnSnapshot(10);
  const MainFragment& main = *snap->main;
  int64_t count = fused::CountWhereInt64(main.column(1), CompareOp::kEq, 3);
  EXPECT_EQ(count, 200);  // region==3 hits every 5th row
  double sp = fused::SumProductWhereInt64(main.column(1), CompareOp::kGe, 0,
                                          main.column(0), main.column(3));
  double expected = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    expected += static_cast<double>(i) * (static_cast<double>(i) * 0.5);
  }
  EXPECT_DOUBLE_EQ(sp, expected);
}

}  // namespace
}  // namespace oltap
