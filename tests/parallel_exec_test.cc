#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "exec/parallel/morsel.h"
#include "obs/metrics.h"
#include "sched/workload_manager.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "storage/row.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

// ---------------------------------------------------------------------
// RunOnWorkers: the one pool fan-out primitive.
// ---------------------------------------------------------------------

TEST(ParallelExecWorkersTest, RunOnWorkersAllParticipate) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<size_t> ids;
  std::thread::id caller = std::this_thread::get_id();
  bool caller_was_worker0 = false;
  RunOnWorkers(&pool, 4, [&](size_t w) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(w);
    if (w == 0 && std::this_thread::get_id() == caller) {
      caller_was_worker0 = true;
    }
  });
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_TRUE(caller_was_worker0);

  // dop <= 1 or no pool: inline on the caller.
  std::atomic<size_t> solo{0};
  RunOnWorkers(nullptr, 8, [&](size_t w) {
    EXPECT_EQ(w, 0u);
    solo.fetch_add(1);
  });
  RunOnWorkers(&pool, 1, [&](size_t w) {
    EXPECT_EQ(w, 0u);
    solo.fetch_add(1);
  });
  EXPECT_EQ(solo.load(), 2u);
}

// ---------------------------------------------------------------------
// SQL-level determinism: parallel execution must be byte-identical to
// serial at any DOP.
// ---------------------------------------------------------------------

std::vector<std::string> Render(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) out.push_back(RowToString(row));
  return out;
}

// Runs `sql` serial (max_dop=1) and parallel (max_dop=dop) and expects
// byte-identical row streams.
void ExpectSameResult(Database* db, const std::string& sql, size_t dop) {
  ASSERT_TRUE(db->Execute("SET max_dop = 1").ok());
  auto serial = db->Execute(sql);
  ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
  ASSERT_TRUE(db->Execute("SET max_dop = " + std::to_string(dop)).ok());
  auto parallel = db->Execute(sql);
  ASSERT_TRUE(parallel.ok()) << sql << ": " << parallel.status().ToString();
  EXPECT_EQ(Render(*serial), Render(*parallel)) << sql;
}

class ParallelExecSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(3);
    db_.set_exec_pool(pool_.get());
    ASSERT_TRUE(db_.Execute("CREATE TABLE big (k INT, grp INT, v INT, "
                            "d DOUBLE, s STRING, PRIMARY KEY (k)) "
                            "FORMAT COLUMN")
                    .ok());
    // 6000 rows in one transaction: values with duplicates, negatives,
    // NULLs in both group and value columns.
    auto txn = db_.txn_manager()->Begin();
    for (int i = 0; i < 6000; ++i) {
      std::string grp =
          (i % 97 == 0) ? "NULL" : std::to_string(i % 7);
      std::string v = (i % 53 == 0) ? "NULL" : std::to_string(i % 101 - 50);
      std::string row = "(" + std::to_string(i) + ", " + grp + ", " + v +
                        ", " + std::to_string((i % 13) * 0.25) + ", 's" +
                        std::to_string(i % 11) + "')";
      ASSERT_TRUE(
          db_.ExecuteIn(txn.get(), "INSERT INTO big VALUES " + row).ok());
    }
    ASSERT_TRUE(db_.txn_manager()->Commit(txn.get()).ok());
    // Move the bulk into the main fragment, then leave a small tail in
    // the delta so every scan exercises the trailing delta slot too.
    db_.MergeAll();
    for (int i = 6000; i < 6100; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (" +
                              std::to_string(i) + ", 3, 7, 0.5, 'tail')")
                      .ok());
    }
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  std::unique_ptr<ThreadPool> pool_;
  Database db_;
};

TEST_F(ParallelExecSqlTest, ScanDeterministic) {
  ExpectSameResult(&db_, "SELECT k, v, s FROM big", 4);
  ExpectSameResult(&db_,
                   "SELECT k, d FROM big WHERE v > 10 AND k < 5500", 4);
  // Residual predicate the pushdown cannot absorb (column vs column).
  ExpectSameResult(&db_, "SELECT k FROM big WHERE v > grp", 4);
  // DOP larger than the pool still works (extra morsel claims queue).
  ExpectSameResult(&db_, "SELECT k, v FROM big WHERE v >= 0", 16);
}

TEST_F(ParallelExecSqlTest, ScanParallelPlanShape) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0");
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_NE(text.find("ParallelScan"), std::string::npos) << text;
  EXPECT_NE(text.find("dop=4"), std::string::npos) << text;

  // Serial knob: no parallel operators.
  ASSERT_TRUE(db_.Execute("SET max_dop = 1").ok());
  plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0");
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;

  // Legacy planner path must stay serial even with the knob up.
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  ASSERT_TRUE(db_.Execute("SET optimizer = off").ok());
  plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0");
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;
  ASSERT_TRUE(db_.Execute("SET optimizer = on").ok());
}

TEST_F(ParallelExecSqlTest, AggDeterministic) {
  // Mergeable: parallel pre-aggregation with slot-ordered merge.
  ExpectSameResult(&db_,
                   "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(s) FROM big "
                   "GROUP BY grp",
                   4);
  // Group order must match serial first-seen order (no ORDER BY).
  ExpectSameResult(&db_, "SELECT s, COUNT(v) FROM big GROUP BY s", 4);
  // Global aggregate, including over zero rows.
  ExpectSameResult(&db_, "SELECT COUNT(*), MIN(k), MAX(k) FROM big", 4);
  ExpectSameResult(&db_,
                   "SELECT COUNT(*), SUM(v) FROM big WHERE k < 0", 4);
  // Order-sensitive float folds stay serial over the parallel child and
  // must still be bit-exact (same row stream, same fold order).
  ExpectSameResult(&db_, "SELECT grp, AVG(v), SUM(d) FROM big GROUP BY grp",
                   4);
  ExpectSameResult(&db_, "SELECT AVG(d) FROM big", 4);
}

TEST_F(ParallelExecSqlTest, AggPlanGating) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto plan = db_.Execute(
      "EXPLAIN SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp");
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_NE(text.find("ParallelHashAggregate"), std::string::npos) << text;

  // AVG is not mergeable: serial aggregate over the parallel scan.
  plan = db_.Execute("EXPLAIN SELECT grp, AVG(v) FROM big GROUP BY grp");
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("ParallelHashAggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("HashAggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("ParallelScan"), std::string::npos) << text;
}

TEST_F(ParallelExecSqlTest, JoinDeterministicWithDuplicateBuildKeys) {
  // Build side with duplicate keys: every s value repeats, so the join
  // fan-out exercises duplicate-match emission order.
  ASSERT_TRUE(db_.Execute("CREATE TABLE tags (s STRING, w INT, "
                          "PRIMARY KEY (s)) FORMAT ROW")
                  .ok());
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO tags VALUES ('s" +
                            std::to_string(i) + "', " +
                            std::to_string(i * 10) + ")")
                    .ok());
  }
  ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  ExpectSameResult(&db_,
                   "SELECT t.w, b.k FROM tags t JOIN big b ON t.s = b.s "
                   "WHERE b.k < 300",
                   4);
  ExpectSameResult(&db_,
                   "SELECT t.s, COUNT(*), SUM(b.v) FROM tags t "
                   "JOIN big b ON t.s = b.s GROUP BY t.s",
                   4);
}

TEST_F(ParallelExecSqlTest, OrderByLimitDeterministic) {
  ExpectSameResult(&db_,
                   "SELECT grp, COUNT(*) AS n FROM big GROUP BY grp "
                   "ORDER BY n DESC, grp LIMIT 5",
                   4);
  ExpectSameResult(&db_, "SELECT k, v FROM big ORDER BY v DESC LIMIT 20",
                   4);
  ExpectSameResult(&db_, "SELECT DISTINCT s FROM big", 4);
}

TEST_F(ParallelExecSqlTest, ExplainAnalyzeReportsDopAndRows) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  auto r = db_.Execute("EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM big "
                       "GROUP BY grp");
  ASSERT_TRUE(r.ok());
  bool saw_parallel_scan = false;
  for (const Row& row : r->rows) {
    std::string op = row[0].AsString();
    if (op.find("ParallelScan") != std::string::npos) {
      saw_parallel_scan = true;
      EXPECT_NE(op.find("dop=4"), std::string::npos) << op;
      // Worker-produced rows are accounted even though the operator is
      // driven (never pulled through NextBatchTimed).
      EXPECT_GT(row[2].AsInt64(), 0) << op;
    }
  }
  EXPECT_TRUE(saw_parallel_scan);
}

// A parallel parent prepares its driven scan before driving it. The
// scan's preparation (snapshot walk, main visibility mask, pushdown
// kernels) is accounted in the scan's own op_stats, so EXPLAIN ANALYZE
// does not charge it to the parent's self time.
TEST_F(ParallelExecSqlTest, DrivenScanAccountsItsPreparation) {
  Table* t = db_.catalog()->GetTable("big");
  ASSERT_NE(t, nullptr);
  const Timestamp ts = db_.txn_manager()->oracle()->CurrentReadTs();
  const ParallelContext ctx{pool_.get(), 3};
  auto scan = std::make_unique<ScanOp>(
      t, ts,
      Expr::Compare(CompareOp::kGe, Expr::Column(2, ValueType::kInt64),
                    Expr::Constant(Value::Int64(0))),
      std::vector<int>{1}, ScanOp::Path::kAuto, ctx);
  const ScanOp* driven = scan.get();
  HashAggOp agg(std::move(scan), {Expr::Column(0, ValueType::kInt64)},
                {AggSpec{}}, ctx);
  EXPECT_FALSE(CollectRows(&agg).empty());
  EXPECT_GT(driven->op_stats().rows, 0u);
  EXPECT_GT(driven->op_stats().open_ns, 0u);
}

TEST_F(ParallelExecSqlTest, MorselCountersAdvance) {
  auto* reg = obs::MetricsRegistry::Default();
  uint64_t q0 = reg->GetCounter("exec.morsel.parallel_queries")->Value();
  uint64_t d0 = reg->GetCounter("exec.morsel.dispatched")->Value();
  uint64_t r0 = reg->GetCounter("exec.morsel.rows")->Value();
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());
  ASSERT_TRUE(db_.Execute("SELECT COUNT(*) FROM big").ok());
  EXPECT_GT(reg->GetCounter("exec.morsel.parallel_queries")->Value(), q0);
  EXPECT_GT(reg->GetCounter("exec.morsel.dispatched")->Value(), d0);
  EXPECT_GT(reg->GetCounter("exec.morsel.rows")->Value(), r0);
}

// ---------------------------------------------------------------------
// Admission-governed DOP.
// ---------------------------------------------------------------------

TEST_F(ParallelExecSqlTest, GrantCapsDop) {
  ASSERT_TRUE(db_.Execute("SET max_dop = 4").ok());

  QueryGrant serial_grant;
  serial_grant.max_dop = 1;
  auto plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0",
                          serial_grant);
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_EQ(text.find("Parallel"), std::string::npos) << text;

  QueryGrant capped;
  capped.max_dop = 2;
  uint64_t limited0 = obs::MetricsRegistry::Default()
                          ->GetCounter("exec.morsel.dop_limited")
                          ->Value();
  plan = db_.Execute("EXPLAIN SELECT k FROM big WHERE v > 0", capped);
  ASSERT_TRUE(plan.ok());
  text.clear();
  for (const Row& r : plan->rows) text += r[0].AsString() + "\n";
  EXPECT_NE(text.find("dop=2"), std::string::npos) << text;
  EXPECT_GT(obs::MetricsRegistry::Default()
                ->GetCounter("exec.morsel.dop_limited")
                ->Value(),
            limited0);

  // An uncapped grant leaves the session knob in charge.
  QueryGrant open;
  auto result = db_.Execute("SELECT COUNT(*) FROM big", open);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt64(), 6100);
}

// ---------------------------------------------------------------------
// Estimation feedback is the same at any DOP.
// ---------------------------------------------------------------------

struct FeedbackOutcome {
  bool parallel_plan = false;
  bool has_actuals = false;
  uint64_t replans = 0;
};

// Runs a join of two large columnar tables, one of whose scans is
// misestimated (a and b are perfectly correlated, the estimator assumes
// independence: 60 rows estimated, 600 actual), twice at `dop`. Reports
// whether the first run stashed scan actuals and how many feedback
// re-plans the second planning counted.
FeedbackOutcome RunMisestimatedJoin(size_t dop) {
  FeedbackOutcome outcome;
  ThreadPool pool(3);
  Database db;
  db.set_exec_pool(&pool);
  EXPECT_TRUE(db.Execute("CREATE TABLE corr (k INT, a INT, b INT, "
                         "PRIMARY KEY (k)) FORMAT COLUMN")
                  .ok());
  EXPECT_TRUE(db.Execute("CREATE TABLE other (k INT, w INT, "
                         "PRIMARY KEY (k)) FORMAT COLUMN")
                  .ok());
  auto txn = db.txn_manager()->Begin();
  for (int i = 0; i < 6000; ++i) {
    std::string k = std::to_string(i);
    std::string a = std::to_string(i % 10);
    EXPECT_TRUE(db.ExecuteIn(txn.get(), "INSERT INTO corr VALUES (" + k +
                                            ", " + a + ", " + a + ")")
                    .ok());
    EXPECT_TRUE(db.ExecuteIn(txn.get(), "INSERT INTO other VALUES (" + k +
                                            ", " + std::to_string(i * 7) +
                                            ")")
                    .ok());
  }
  EXPECT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
  db.MergeAll();
  EXPECT_TRUE(db.Execute("ANALYZE").ok());
  EXPECT_TRUE(db.Execute("SET max_dop = " + std::to_string(dop)).ok());

  const std::string q =
      "SELECT c.k, o.w FROM corr c JOIN other o ON c.k = o.k "
      "WHERE c.a = 1 AND c.b = 1";
  auto plan = db.Execute("EXPLAIN " + q);
  EXPECT_TRUE(plan.ok());
  // Both scans must run at the plan's DOP: any DOP-1 scan would be a
  // second source of actuals.
  int parallel_scans = 0;
  for (const Row& r : plan->rows) {
    if (r[0].AsString().find("ParallelScan(") != std::string::npos) {
      ++parallel_scans;
    }
  }
  outcome.parallel_plan = parallel_scans == 2;
  auto first = db.Execute(q);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first->rows.size(), 600u);

  auto stmt = sql::Parse(q);
  EXPECT_TRUE(stmt.ok());
  auto entry =
      db.plan_feedback()->Lookup(sql::StatementFingerprint(*stmt->select));
  outcome.has_actuals = entry.has_value() && entry->has_actuals;

  obs::Counter* replans =
      obs::MetricsRegistry::Default()->GetCounter("opt.feedback_replans");
  const uint64_t before = replans->Value();
  auto second = db.Execute(q);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(Render(*first), Render(*second));
  outcome.replans = replans->Value() - before;
  return outcome;
}

TEST(ParallelExecFeedbackTest, ScanActualsReachFeedbackAtAnyDop) {
  FeedbackOutcome serial = RunMisestimatedJoin(1);
  EXPECT_FALSE(serial.parallel_plan);
  EXPECT_TRUE(serial.has_actuals);
  EXPECT_EQ(serial.replans, 1u);

  FeedbackOutcome parallel = RunMisestimatedJoin(4);
  EXPECT_TRUE(parallel.parallel_plan);
  EXPECT_TRUE(parallel.has_actuals);
  EXPECT_EQ(parallel.replans, 1u);
}

// ---------------------------------------------------------------------
// Differential scan: the columnar delta's vectorized predicate (typed
// compare loops for pushed terms, EvalPredicate for the residual) must
// return the rows the row engine's EvalRow returns, at every DOP, with the
// optimizer on and off, and before, during and after a merge.
// ---------------------------------------------------------------------

struct DiffQuery {
  std::string where;  // SQL predicate over t
  ExprPtr pred;       // the same predicate over t's schema indices
};

std::vector<DiffQuery> DeltaDiffQueries() {
  auto col = [](int c, ValueType t) { return Expr::Column(c, t); };
  auto lit = [](Value v) { return Expr::Constant(std::move(v)); };
  const ExprPtr i = col(1, ValueType::kInt64);
  const ExprPtr d = col(2, ValueType::kDouble);
  const ExprPtr s = col(3, ValueType::kString);
  const ExprPtr j = col(4, ValueType::kInt64);
  return {
      // NULL cells in an int column.
      {"i > 40", Expr::Compare(CompareOp::kGt, i, lit(Value::Int64(40)))},
      // An int column against a double literal.
      {"i >= 12.5",
       Expr::Compare(CompareOp::kGe, i, lit(Value::Double(12.5)))},
      // A double column with NULLs against an int literal.
      {"d <> 2", Expr::Compare(CompareOp::kNe, d, lit(Value::Int64(2)))},
      // String equality and a string range.
      {"s = 's7'",
       Expr::Compare(CompareOp::kEq, s, lit(Value::String("s7")))},
      {"s >= 's3' AND s < 's6'",
       Expr::And(Expr::Compare(CompareOp::kGe, s, lit(Value::String("s3"))),
                 Expr::Compare(CompareOp::kLt, s, lit(Value::String("s6"))))},
      // Non-pushable residual terms: arithmetic over two nullable
      // columns, and an OR beside a pushed term.
      {"i + j > 50",
       Expr::Compare(CompareOp::kGt, Expr::Arith(Expr::Kind::kAdd, i, j),
                     lit(Value::Int64(50)))},
      // NOT over NULL comparisons: NULL, so the row is dropped.
      {"NOT (i > 40)",
       Expr::Not(Expr::Compare(CompareOp::kGt, i, lit(Value::Int64(40))))},
      {"NOT (s = 's3' OR d < 1)",
       Expr::Not(Expr::Or(
           Expr::Compare(CompareOp::kEq, s, lit(Value::String("s3"))),
           Expr::Compare(CompareOp::kLt, d, lit(Value::Int64(1)))))},
      {"k > 100 AND (i < 10 OR s = 's2')",
       Expr::And(Expr::Compare(CompareOp::kGt, col(0, ValueType::kInt64),
                               lit(Value::Int64(100))),
                 Expr::Or(Expr::Compare(CompareOp::kLt, i,
                                        lit(Value::Int64(10))),
                          Expr::Compare(CompareOp::kEq, s,
                                        lit(Value::String("s2")))))},
  };
}

// Row k of the differential table; `salt` varies the non-key cells.
Row DiffRow(int k, int salt) {
  const int n = k + salt;
  return Row{Value::Int64(k),
             n % 9 == 0 ? Value::Null(ValueType::kInt64)
                        : Value::Int64(n % 61 - 5),
             n % 11 == 0 ? Value::Null(ValueType::kDouble)
                         : Value::Double((n % 8) * 0.5),
             n % 13 == 0 ? Value::Null(ValueType::kString)
                         : Value::String("s" + std::to_string(n % 10)),
             n % 7 == 0 ? Value::Null(ValueType::kInt64)
                        : Value::Int64(n % 23)};
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

class ParallelExecDeltaScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(3);
    db_.set_exec_pool(pool_.get());
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (k INT, i INT, d DOUBLE, "
                            "s STRING, j INT, PRIMARY KEY (k)) FORMAT DUAL")
                    .ok());
    Load(0, 3000);
    db_.MergeAll();
    Dirty(3000);
    ASSERT_TRUE(db_.Execute("ANALYZE").ok());
  }

  // Runs `op(txn, table, k)` for k in [first, end) step `step` in one
  // committed transaction; a key an earlier round deleted is skipped.
  template <typename Op>
  void Write(int first, int end, int step, Op op) {
    auto txn = db_.txn_manager()->Begin();
    Table* t = db_.catalog()->GetTable("t");
    for (int k = first; k < end; k += step) {
      Status st = op(txn.get(), t, k);
      ASSERT_TRUE(st.ok() || st.IsNotFound()) << k << ": " << st.ToString();
    }
    ASSERT_TRUE(db_.txn_manager()->Commit(txn.get()).ok());
  }

  void Load(int first, int count) {
    Write(first, first + count, 1, [](Transaction* txn, Table* t, int k) {
      return txn->Insert(t, DiffRow(k, 0));
    });
  }

  // A live delta of more than three chunks: fresh rows, and updates and
  // deletes of main and delta rows.
  void Dirty(int first) {
    const int fresh = 3 * static_cast<int>(DeltaStore::kChunkRows) + 300;
    Load(first, fresh);
    const int end = first + fresh;
    Write(first - 2999, end, 17, [](Transaction* txn, Table* t, int k) {
      return txn->Update(t, DiffRow(k, 5));
    });
    Write(first - 2995, end, 29, [](Transaction* txn, Table* t, int k) {
      return txn->Delete(t, DiffRow(k, 0));
    });
  }

  const Table* table() { return db_.catalog()->GetTable("t"); }
  Timestamp now() { return db_.txn_manager()->oracle()->CurrentReadTs(); }

  std::vector<std::string> Scan(const ExprPtr& pred, ScanOp::Path path,
                                size_t dop) {
    ScanOp scan(table(), now(), pred, {}, path, {pool_.get(), dop});
    return RenderRows(CollectRows(&scan));
  }

  // Every access path, DOP and optimizer mode against the row engine.
  // Returns the column path's row stream, whose order is the snapshot
  // walk's: main by rowid, then the delta in insertion order.
  std::vector<std::string> CheckAllPaths(const DiffQuery& q) {
    const std::vector<std::string> want =
        Sorted(Scan(q.pred, ScanOp::Path::kRow, 1));
    const std::vector<std::string> column =
        Scan(q.pred, ScanOp::Path::kColumn, 1);
    EXPECT_EQ(Sorted(column), want) << q.where;
    for (size_t dop = 2; dop <= 4; ++dop) {
      EXPECT_EQ(Scan(q.pred, ScanOp::Path::kColumn, dop), column)
          << q.where << " dop " << dop;
    }
    const std::string sql = "SELECT k, i, d, s, j FROM t WHERE " + q.where;
    for (const char* optimizer : {"on", "off"}) {
      EXPECT_TRUE(
          db_.Execute(std::string("SET optimizer = ") + optimizer).ok());
      std::vector<std::string> first;
      for (size_t dop = 1; dop <= 4; ++dop) {
        EXPECT_TRUE(
            db_.Execute("SET max_dop = " + std::to_string(dop)).ok());
        auto r = db_.Execute(sql);
        EXPECT_TRUE(r.ok()) << sql;
        if (!r.ok()) continue;
        std::vector<std::string> got = Render(*r);
        EXPECT_EQ(Sorted(got), want) << sql << " optimizer " << optimizer;
        if (dop == 1) {
          first = got;
        } else {
          EXPECT_EQ(got, first) << sql << " optimizer " << optimizer
                                << " dop " << dop;
        }
      }
    }
    return column;
  }

  std::unique_ptr<ThreadPool> pool_;
  Database db_;
};

TEST_F(ParallelExecDeltaScanTest, VectorizedDeltaMatchesRowEngine) {
  ASSERT_GT(table()->column_table()->delta_size(),
            3 * DeltaStore::kChunkRows);
  std::vector<std::vector<std::string>> before;
  for (const DiffQuery& q : DeltaDiffQueries()) {
    before.push_back(CheckAllPaths(q));
    EXPECT_FALSE(before.back().empty()) << q.where;
  }
  db_.MergeAll();
  ASSERT_EQ(table()->column_table()->delta_size(), 0u);
  const std::vector<DiffQuery> queries = DeltaDiffQueries();
  for (size_t n = 0; n < queries.size(); ++n) {
    // Merging keeps the walk order, so even the row stream is unchanged.
    EXPECT_EQ(CheckAllPaths(queries[n]), before[n]) << queries[n].where;
  }
}

// Scans racing a merge of a multi-chunk delta: snapshots taken while the
// merge runs read the frozen delta's chunks, those taken after read the
// new main; every one returns the pre-merge rows in the pre-merge order.
TEST_F(ParallelExecDeltaScanTest, ScansDuringMergeMatch) {
  const std::vector<DiffQuery> queries = DeltaDiffQueries();
  size_t frozen_seen = 0;
  for (int round = 0; round < 3; ++round) {
    if (round > 0) Dirty(3000 + 7000 * round);
    std::vector<std::vector<std::string>> want;
    for (const DiffQuery& q : queries) {
      want.push_back(Scan(q.pred, ScanOp::Path::kColumn, 1));
    }
    std::atomic<bool> started{false}, merged{false};
    std::thread merger([&] {
      started.store(true);
      db_.MergeAll();
      merged.store(true);
    });
    while (!started.load()) std::this_thread::yield();
    for (size_t n = 0; !merged.load(); n = (n + 1) % queries.size()) {
      if (table()->GetColumnSnapshot(now())->frozen != nullptr) {
        ++frozen_seen;
      }
      const size_t dop = 1 + n % 4;
      EXPECT_EQ(Scan(queries[n].pred, ScanOp::Path::kColumn, dop), want[n])
          << queries[n].where << " dop " << dop;
    }
    merger.join();
  }
  RecordProperty("frozen_seen", static_cast<int>(frozen_seen));
}

TEST(ParallelExecGrantTest, WorkloadManagerStampsDop) {
  WorkloadManager::Options opts;
  opts.num_workers = 1;
  opts.max_parallel_dop = 6;
  opts.degraded_dop = 1;
  opts.olap_degrade_threshold = 1;  // degrade when >= 1 already queued
  WorkloadManager wm(opts);

  std::mutex mu;
  std::vector<QueryGrant> grants;
  auto record = [&](const CancellationToken&, const QueryGrant& g) {
    std::lock_guard<std::mutex> lock(mu);
    grants.push_back(g);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::OK();
  };
  // First submission occupies the worker; the next ones queue deep
  // enough to be admitted degraded.
  std::vector<WorkloadManager::Submission> subs;
  for (int i = 0; i < 4; ++i) {
    subs.push_back(wm.SubmitBudgeted(QueryClass::kOlap,
                                     WorkloadManager::QuerySpec{}, record));
  }
  for (auto& s : subs) ASSERT_TRUE(s.done.get().ok());
  wm.Drain();

  ASSERT_EQ(grants.size(), 4u);
  size_t degraded = 0;
  for (const QueryGrant& g : grants) {
    if (g.degraded) {
      ++degraded;
      EXPECT_EQ(g.max_dop, 1u);
    } else {
      EXPECT_EQ(g.max_dop, 6u);
    }
  }
  EXPECT_GE(degraded, 1u);
}

// ---------------------------------------------------------------------
// CH analytic suite: byte-identical parallel vs serial, quiesced and
// under concurrent TPC-C DML.
// ---------------------------------------------------------------------

CHConfig ParallelCHConfig() {
  CHConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 5;
  config.customers_per_district = 40;
  config.items = 200;
  config.initial_orders_per_district = 50;
  // Disjoint write sets for the concurrent test.
  config.remote_item_prob = 0.0;
  config.remote_payment_prob = 0.0;
  return config;
}

TEST(ParallelExecCHTest, AllQueriesDeterministicQuiesced) {
  Database db;
  CHBenchmark bench(&db, ParallelCHConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  ThreadPool pool(3);
  db.set_exec_pool(&pool);

  // The comparison is only meaningful if the suite actually plans
  // parallel operators at this scale.
  ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
  bool any_parallel_plan = false;
  for (const auto& aq : CHBenchmark::Queries()) {
    auto plan = db.Execute("EXPLAIN " + aq.sql);
    ASSERT_TRUE(plan.ok()) << aq.name;
    for (const Row& r : plan->rows) {
      if (r[0].AsString().find("Parallel") != std::string::npos) {
        any_parallel_plan = true;
      }
    }
  }
  EXPECT_TRUE(any_parallel_plan);

  const size_t n = CHBenchmark::Queries().size();
  for (size_t q = 0; q < n; ++q) {
    ASSERT_TRUE(db.Execute("SET max_dop = 1").ok());
    auto serial = bench.RunQuery(q);
    ASSERT_TRUE(serial.ok()) << CHBenchmark::Queries()[q].name;
    ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
    auto parallel = bench.RunQuery(q);
    ASSERT_TRUE(parallel.ok()) << CHBenchmark::Queries()[q].name;
    EXPECT_EQ(Render(*serial), Render(*parallel))
        << CHBenchmark::Queries()[q].name;
  }
}

// Pruned scans (optimizer on, DOP 4) against full-width ones (optimizer
// off) over unmerged delta rows and NULL o_carrier_id / ol_delivery_d.
// Join order changes the order of float folds, so doubles may differ in
// the last bits; every other cell must be equal.
TEST(ParallelExecCHTest, PrunedPlansMatchFullWidthPlans) {
  Database db;
  CHConfig config = ParallelCHConfig();
  config.undelivered_fraction = 0.5;
  CHBenchmark bench(&db, config);
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  // New orders (NULL carrier, undelivered lines) stay in the delta.
  Rng rng(3);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(bench.NewOrder(&rng).ok());
  auto nulls = db.Execute(
      "SELECT COUNT(*) FROM orderline WHERE ol_delivery_d IS NULL");
  ASSERT_TRUE(nulls.ok());
  ASSERT_GT(nulls->rows[0][0].AsInt64(), 0);

  ThreadPool pool(3);
  db.set_exec_pool(&pool);
  ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
  for (const auto& aq : CHBenchmark::Queries()) {
    ASSERT_TRUE(db.Execute("SET optimizer = on").ok());
    auto plan = db.Execute("EXPLAIN " + aq.sql);
    ASSERT_TRUE(plan.ok()) << aq.name;
    bool pruned = false;
    for (const Row& r : plan->rows) {
      pruned |= r[0].AsString().find("cols=") != std::string::npos;
    }
    EXPECT_TRUE(pruned) << aq.name;
    auto on = db.Execute(aq.sql);
    ASSERT_TRUE(db.Execute("SET optimizer = off").ok());
    auto off = db.Execute(aq.sql);
    ASSERT_TRUE(on.ok() && off.ok()) << aq.name;
    ASSERT_EQ(on->rows.size(), off->rows.size()) << aq.name;
    for (size_t i = 0; i < on->rows.size(); ++i) {
      const Row& a = on->rows[i];
      const Row& b = off->rows[i];
      ASSERT_EQ(a.size(), b.size()) << aq.name;
      for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].is_null(), b[c].is_null()) << aq.name;
        if (!a[c].is_null() && a[c].type() == ValueType::kDouble) {
          double x = a[c].AsDouble(), y = b[c].AsDouble();
          EXPECT_LE(std::fabs(x - y),
                    1e-9 * std::max(std::fabs(x), std::fabs(y)))
              << aq.name << " row " << i << " col " << c;
        } else {
          EXPECT_EQ(a[c].ToString(), b[c].ToString())
              << aq.name << " row " << i << " col " << c;
        }
      }
    }
  }
}

TEST(ParallelExecCHTest, DeterministicUnderConcurrentTpcc) {
  Database db;
  CHBenchmark bench(&db, ParallelCHConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  db.MergeAll();
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  ThreadPool pool(3);
  db.set_exec_pool(&pool);

  // Concurrent TPC-C DML through the full driver (merge daemon included),
  // long enough to overlap every snapshot pair below.
  DriverOptions dopts;
  dopts.oltp_workers = 3;
  dopts.olap_workers = 0;
  dopts.wm_workers = 3;
  dopts.duration_ms = 4000;
  dopts.bind_home_warehouse = true;
  dopts.seed = 11;
  ConcurrentDriver driver(&bench, dopts);
  DriverReport report;
  std::thread churn([&] { report = driver.Run(); });

  // Same-snapshot pairs: both executions run inside one transaction, so
  // they see the same MVCC snapshot while the driver commits around them.
  // The session DOP knob is toggled between the two runs.
  // One full pass over the suite is guaranteed even when sanitizers slow
  // execution below the driver's pace; extra pairs fill the time window.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
  const size_t n = CHBenchmark::Queries().size();
  size_t q = 0;
  size_t pairs = 0;
  while (pairs < n || std::chrono::steady_clock::now() < deadline) {
    const std::string& sql = CHBenchmark::Queries()[q].sql;
    auto txn = db.txn_manager()->Begin();
    ASSERT_TRUE(db.Execute("SET max_dop = 1").ok());
    auto serial = db.ExecuteIn(txn.get(), sql);
    ASSERT_TRUE(db.Execute("SET max_dop = 4").ok());
    auto parallel = db.ExecuteIn(txn.get(), sql);
    ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
    ASSERT_TRUE(serial.ok()) << CHBenchmark::Queries()[q].name;
    ASSERT_TRUE(parallel.ok()) << CHBenchmark::Queries()[q].name;
    ASSERT_EQ(Render(*serial), Render(*parallel))
        << CHBenchmark::Queries()[q].name << " under concurrent DML";
    q = (q + 1) % n;
    ++pairs;
  }
  churn.join();
  EXPECT_GE(pairs, n);
  EXPECT_GT(report.txns.total(), 0u);
}

}  // namespace
}  // namespace oltap
