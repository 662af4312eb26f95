#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace oltap {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = sql::Lex("SELECT a1, 'it''s' FROM t WHERE x >= 3.5e2");
  ASSERT_TRUE(tokens.ok());
  const auto& v = *tokens;
  EXPECT_TRUE(v[0].IsKeyword("SELECT"));
  EXPECT_EQ(v[1].text, "a1");
  EXPECT_TRUE(v[2].IsSymbol(","));
  EXPECT_EQ(v[3].kind, sql::Token::Kind::kString);
  EXPECT_EQ(v[3].text, "it's");
  EXPECT_TRUE(v[4].IsKeyword("FROM"));
  EXPECT_EQ(v[7].text, "x");
  EXPECT_TRUE(v[8].IsSymbol(">="));
  EXPECT_EQ(v[9].kind, sql::Token::Kind::kDouble);
  EXPECT_DOUBLE_EQ(v[9].double_val, 350.0);
  EXPECT_EQ(v.back().kind, sql::Token::Kind::kEnd);
}

TEST(LexerTest, NotEqualsNormalized) {
  auto tokens = sql::Lex("a != b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(sql::Lex("SELECT 'unterminated").ok());
  EXPECT_FALSE(sql::Lex("SELECT #").ok());
}

TEST(ParserTest, SelectWithAllClauses) {
  auto stmt = sql::Parse(
      "SELECT a, SUM(b) AS total FROM t JOIN u ON t.k = u.k "
      "WHERE a > 3 AND u.c = 'x' GROUP BY a ORDER BY total DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const sql::SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "total");
  ASSERT_EQ(s.tables.size(), 2u);
  EXPECT_EQ(s.tables[1].name, "u");
  ASSERT_NE(s.tables[1].join_on, nullptr);
  ASSERT_NE(s.where, nullptr);
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit, 5);
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = sql::ParseExpression("a + b * 2 > 10 OR NOT c = 1 AND d < 5");
  ASSERT_TRUE(e.ok());
  // OR binds loosest: ((a+(b*2))>10) OR ((NOT (c=1)) AND (d<5))
  EXPECT_EQ((*e)->ToString(),
            "(((a + (b * 2)) > 10) OR (NOT (c = 1) AND (d < 5)))");
}

TEST(ParserTest, IsNullAndIsNotNull) {
  auto e1 = sql::ParseExpression("x IS NULL");
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ((*e1)->kind, sql::ParseExpr::Kind::kIsNull);
  auto e2 = sql::ParseExpression("x IS NOT NULL");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->kind, sql::ParseExpr::Kind::kUnaryNot);
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = sql::Parse("INSERT INTO t VALUES (1, 'a'), (2, NULL)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->insert->rows.size(), 2u);
  EXPECT_EQ(stmt->insert->rows[1][1]->kind, sql::ParseExpr::Kind::kNullLit);
}

TEST(ParserTest, CreateTableWithKeyAndFormat) {
  auto stmt = sql::Parse(
      "CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR(16), score DOUBLE, "
      "PRIMARY KEY (id)) FORMAT DUAL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const sql::CreateTableStmt& c = *stmt->create;
  ASSERT_EQ(c.columns.size(), 3u);
  EXPECT_FALSE(c.columns[0].nullable);
  EXPECT_EQ(c.columns[1].type, ValueType::kString);
  EXPECT_EQ(c.key_columns, std::vector<std::string>{"id"});
  EXPECT_EQ(c.format, TableFormat::kDual);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(sql::Parse("SELECT").ok());
  EXPECT_FALSE(sql::Parse("SELECT a FROM").ok());
  EXPECT_FALSE(sql::Parse("BOGUS STATEMENT").ok());
  EXPECT_FALSE(sql::Parse("SELECT a FROM t extra garbage ,").ok());
  EXPECT_FALSE(sql::Parse("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(sql::Parse("CREATE TABLE t (x WIDGET)").ok());
}

class SqlEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE emp (id BIGINT NOT NULL, "
                            "dept TEXT, salary DOUBLE, PRIMARY KEY (id)) "
                            "FORMAT COLUMN")
                    .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES "
                            "(1, 'eng', 100.0), (2, 'eng', 120.0), "
                            "(3, 'sales', 80.0), (4, 'sales', 90.0), "
                            "(5, 'hr', 70.0)")
                    .ok());
  }

  Database db_;
};

TEST_F(SqlEndToEndTest, SelectStar) {
  auto r = db_.Execute("SELECT * FROM emp ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->columns, (std::vector<std::string>{"id", "dept", "salary"}));
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r->rows[4][1].AsString(), "hr");
}

TEST_F(SqlEndToEndTest, WhereAndProjection) {
  auto r = db_.Execute(
      "SELECT id, salary FROM emp WHERE dept = 'eng' ORDER BY salary DESC");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 2);
}

TEST_F(SqlEndToEndTest, GroupByAggregates) {
  auto r = db_.Execute(
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS avg_s "
      "FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsString(), "eng");
  EXPECT_EQ(r->rows[0][1].AsInt64(), 2);
  EXPECT_DOUBLE_EQ(r->rows[0][2].AsDouble(), 220.0);
  EXPECT_DOUBLE_EQ(r->rows[0][3].AsDouble(), 110.0);
}

TEST_F(SqlEndToEndTest, GlobalAggregate) {
  auto r = db_.Execute("SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 5);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 70.0);
  EXPECT_DOUBLE_EQ(r->rows[0][2].AsDouble(), 120.0);
}

TEST_F(SqlEndToEndTest, Join) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE dept (name TEXT NOT NULL, "
                          "budget DOUBLE, PRIMARY KEY (name))")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO dept VALUES ('eng', 1000.0), "
                          "('sales', 500.0)")
                  .ok());
  auto r = db_.Execute(
      "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name "
      "ORDER BY e.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);  // hr has no dept row
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(r->rows[3][1].AsDouble(), 500.0);
}

TEST_F(SqlEndToEndTest, JoinWithGroupBy) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE dept (name TEXT NOT NULL, "
                          "region TEXT, PRIMARY KEY (name))")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO dept VALUES ('eng', 'west'), "
                          "('sales', 'east'), ('hr', 'west')")
                  .ok());
  auto r = db_.Execute(
      "SELECT d.region, SUM(e.salary) AS total FROM emp e "
      "JOIN dept d ON e.dept = d.name GROUP BY d.region ORDER BY d.region");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsString(), "east");
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 170.0);
  EXPECT_DOUBLE_EQ(r->rows[1][1].AsDouble(), 290.0);
}

TEST_F(SqlEndToEndTest, UpdateAndDelete) {
  auto u = db_.Execute("UPDATE emp SET salary = salary + 10.0 "
                       "WHERE dept = 'eng'");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->affected, 2u);
  auto r = db_.Execute("SELECT SUM(salary) FROM emp");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), 480.0);

  auto d = db_.Execute("DELETE FROM emp WHERE salary < 90.0");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->affected, 2u);  // hr 70 and sales 80
  auto count = db_.Execute("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(count->rows[0][0].AsInt64(), 3);
}

TEST_F(SqlEndToEndTest, UpdateCannotChangeKey) {
  auto u = db_.Execute("UPDATE emp SET id = 99 WHERE id = 1");
  EXPECT_FALSE(u.ok());
}

TEST_F(SqlEndToEndTest, OrderByPosition) {
  auto r = db_.Execute("SELECT dept, salary FROM emp ORDER BY 2 DESC LIMIT 1");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 120.0);
}

TEST_F(SqlEndToEndTest, IsNullPredicate) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (6, NULL, 50.0)").ok());
  auto r = db_.Execute("SELECT id FROM emp WHERE dept IS NULL");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 6);
  auto r2 = db_.Execute("SELECT COUNT(*) FROM emp WHERE dept IS NOT NULL");
  EXPECT_EQ(r2->rows[0][0].AsInt64(), 5);
}

TEST_F(SqlEndToEndTest, TransactionalDmlVisibleOnCommitOnly) {
  auto txn = db_.txn_manager()->Begin();
  ASSERT_TRUE(
      db_.ExecuteIn(txn.get(), "INSERT INTO emp VALUES (10, 'x', 1.0)").ok());
  // Not committed: a separate statement does not see it.
  auto before = db_.Execute("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(before->rows[0][0].AsInt64(), 5);
  ASSERT_TRUE(db_.txn_manager()->Commit(txn.get()).ok());
  auto after = db_.Execute("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(after->rows[0][0].AsInt64(), 6);
}

TEST_F(SqlEndToEndTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(db_.Execute("SELECT nope FROM emp").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM nothere").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (1)").ok());
  // Duplicate key.
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (1, 'a', 1.0)").ok());
  // Aggregate in WHERE.
  EXPECT_FALSE(db_.Execute("SELECT id FROM emp WHERE SUM(salary) > 1").ok());
  // Non-grouped select item.
  EXPECT_FALSE(
      db_.Execute("SELECT dept, salary FROM emp GROUP BY dept").ok());
}

TEST_F(SqlEndToEndTest, BetweenPredicate) {
  auto r = db_.Execute(
      "SELECT id FROM emp WHERE salary BETWEEN 80.0 AND 100.0 ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);  // 100, 80, 90
  auto n = db_.Execute(
      "SELECT COUNT(*) FROM emp WHERE salary NOT BETWEEN 80.0 AND 100.0");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt64(), 2);  // 120 and 70
}

TEST_F(SqlEndToEndTest, InPredicate) {
  auto r = db_.Execute(
      "SELECT id FROM emp WHERE dept IN ('eng', 'hr') ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  auto n = db_.Execute(
      "SELECT COUNT(*) FROM emp WHERE id NOT IN (1, 2, 3)");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt64(), 2);
  // Single-element IN.
  auto one = db_.Execute("SELECT COUNT(*) FROM emp WHERE id IN (4)");
  EXPECT_EQ(one->rows[0][0].AsInt64(), 1);
}

TEST(ParserRewriteTest, BetweenAndInDesugar) {
  auto between = sql::ParseExpression("x BETWEEN 1 AND 5");
  ASSERT_TRUE(between.ok());
  EXPECT_EQ((*between)->ToString(), "((x >= 1) AND (x <= 5))");
  auto in = sql::ParseExpression("x IN (1, 2, 3)");
  ASSERT_TRUE(in.ok());
  EXPECT_EQ((*in)->ToString(), "(((x = 1) OR (x = 2)) OR (x = 3))");
  auto not_in = sql::ParseExpression("x NOT IN (7)");
  ASSERT_TRUE(not_in.ok());
  EXPECT_EQ((*not_in)->ToString(), "NOT (x = 7)");
  // BETWEEN binds tighter than logical AND.
  auto mixed = sql::ParseExpression("x BETWEEN 1 AND 5 AND y = 2");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ((*mixed)->ToString(),
            "(((x >= 1) AND (x <= 5)) AND (y = 2))");
}

TEST_F(SqlEndToEndTest, HavingFiltersGroups) {
  auto r = db_.Execute(
      "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept "
      "HAVING COUNT(*) > 1 ORDER BY dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);  // eng and sales have 2 each, hr has 1
  EXPECT_EQ(r->rows[0][0].AsString(), "eng");
  EXPECT_EQ(r->rows[1][0].AsString(), "sales");

  // HAVING on an aggregate that is not in the select list (hidden agg).
  auto r2 = db_.Execute(
      "SELECT dept FROM emp GROUP BY dept HAVING SUM(salary) > 150.0 "
      "ORDER BY dept");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->rows.size(), 2u);
  ASSERT_EQ(r2->columns.size(), 1u);  // hidden aggregate not projected

  // HAVING referencing the group key and combining conditions.
  auto r3 = db_.Execute(
      "SELECT dept, AVG(salary) AS a FROM emp GROUP BY dept "
      "HAVING AVG(salary) >= 85.0 AND dept <> 'hr' ORDER BY dept");
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  ASSERT_EQ(r3->rows.size(), 2u);

  // HAVING without aggregation context is rejected.
  EXPECT_FALSE(db_.Execute("SELECT id FROM emp HAVING id > 1").ok());
  // Bare non-grouped column inside HAVING is rejected.
  EXPECT_FALSE(db_.Execute("SELECT dept, COUNT(*) FROM emp GROUP BY dept "
                           "HAVING salary > 1")
                   .ok());
}

TEST_F(SqlEndToEndTest, SelectDistinct) {
  auto r = db_.Execute("SELECT DISTINCT dept FROM emp ORDER BY dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsString(), "eng");
  // Multi-column DISTINCT.
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (6, 'eng', 100.0)").ok());
  auto r2 = db_.Execute(
      "SELECT DISTINCT dept, salary FROM emp ORDER BY dept, salary");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 5u);  // (eng,100) deduped
  // DISTINCT respects LIMIT.
  auto r3 = db_.Execute("SELECT DISTINCT dept FROM emp LIMIT 2");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, ExplainShowsPlanShape) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE dept (name TEXT NOT NULL, "
                          "budget DOUBLE, PRIMARY KEY (name))")
                  .ok());
  auto r = db_.Execute(
      "EXPLAIN SELECT dept, SUM(salary) AS total FROM emp "
      "JOIN dept d ON emp.dept = d.name WHERE salary > 50.0 "
      "GROUP BY dept ORDER BY total DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string plan;
  for (const Row& row : r->rows) plan += row[0].AsString() + "\n";
  // Top-N fusion, projection, aggregation, join, and pushed scans all
  // appear, in pipeline order.
  EXPECT_NE(plan.find("TopN(limit=3"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Scan(emp"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Scan(dept"), std::string::npos) << plan;
  // The salary predicate was pushed into the emp scan.
  EXPECT_NE(plan.find("pred=($2 > 50"), std::string::npos) << plan;
  // EXPLAIN executes nothing.
  EXPECT_FALSE(db_.Execute("EXPLAIN DELETE FROM emp").ok());
}

TEST_F(SqlEndToEndTest, ConcurrentSqlTransactionsConflict) {
  auto t1 = db_.txn_manager()->Begin();
  auto t2 = db_.txn_manager()->Begin();
  ASSERT_TRUE(
      db_.ExecuteIn(t1.get(), "UPDATE emp SET salary = 1.0 WHERE id = 1")
          .ok());
  ASSERT_TRUE(
      db_.ExecuteIn(t2.get(), "UPDATE emp SET salary = 2.0 WHERE id = 1")
          .ok());
  ASSERT_TRUE(db_.txn_manager()->Commit(t1.get()).ok());
  EXPECT_TRUE(db_.txn_manager()->Commit(t2.get()).IsAborted());
  auto r = db_.Execute("SELECT salary FROM emp WHERE id = 1");
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), 1.0);  // first committer won
}

TEST_F(SqlEndToEndTest, AutocommitConflictSurfacesAsAborted) {
  // Autocommit UPDATE retries are the caller's job; the engine must
  // surface kAborted when a conflicting commit slips in between the
  // statement's snapshot and its commit. Simulate by racing two threads.
  std::atomic<int> aborted{0}, committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        auto r = db_.Execute("UPDATE emp SET salary = salary + 1.0 "
                             "WHERE id = 2");
        if (r.ok()) {
          committed.fetch_add(1);
        } else if (r.status().IsAborted()) {
          aborted.fetch_add(1);
        } else {
          ADD_FAILURE() << r.status().ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exactly the committed increments are reflected: no lost updates.
  auto r = db_.Execute("SELECT salary FROM emp WHERE id = 2");
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), 120.0 + committed.load());
  EXPECT_EQ(committed.load() + aborted.load(), 100);
}

TEST_F(SqlEndToEndTest, QueryResultToString) {
  auto r = db_.Execute("SELECT id, dept FROM emp ORDER BY id LIMIT 2");
  ASSERT_TRUE(r.ok());
  std::string s = r->ToString();
  EXPECT_NE(s.find("id"), std::string::npos);
  EXPECT_NE(s.find("eng"), std::string::npos);
}

TEST_F(SqlEndToEndTest, MergeAllKeepsResultsStable) {
  auto before = db_.Execute("SELECT dept, COUNT(*) FROM emp GROUP BY dept "
                            "ORDER BY dept");
  ASSERT_TRUE(before.ok());
  size_t merged = db_.MergeAll();
  EXPECT_GT(merged, 0u);
  auto after = db_.Execute("SELECT dept, COUNT(*) FROM emp GROUP BY dept "
                           "ORDER BY dept");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->rows.size(), after->rows.size());
  for (size_t i = 0; i < before->rows.size(); ++i) {
    EXPECT_EQ(before->rows[i][0].AsString(), after->rows[i][0].AsString());
    EXPECT_EQ(before->rows[i][1].AsInt64(), after->rows[i][1].AsInt64());
  }
}

TEST_F(SqlEndToEndTest, ExplainAnalyzeReportsOperatorStats) {
  auto r = db_.Execute(
      "EXPLAIN ANALYZE SELECT dept, COUNT(*), AVG(salary) FROM emp "
      "WHERE salary > 75 GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns, (std::vector<std::string>{"operator", "est_rows",
                                                  "rows", "batches",
                                                  "time_ms"}));
  ASSERT_GE(r->rows.size(), 2u);  // at least sort/agg over a scan
  // The root operator emitted the query's 3 group rows; the scan produced
  // the 4 rows passing the filter.
  bool saw_nonzero_rows = false;
  bool saw_scan = false;
  for (const Row& row : r->rows) {
    ASSERT_EQ(row.size(), 5u);
    if (row[2].AsInt64() > 0) saw_nonzero_rows = true;
    if (row[0].AsString().find("Scan(emp") != std::string::npos) {
      saw_scan = true;
      EXPECT_EQ(row[2].AsInt64(), 4);  // rows out of the filtered scan
      EXPECT_GE(row[3].AsInt64(), 1);  // at least one batch
    }
  }
  EXPECT_TRUE(saw_nonzero_rows);
  EXPECT_TRUE(saw_scan);
#ifndef OLTAP_OBS_DISABLED
  // Some operator must have measured non-zero wall time.
  bool saw_nonzero_time = false;
  for (const Row& row : r->rows) {
    if (row[4].AsDouble() > 0) saw_nonzero_time = true;
  }
  EXPECT_TRUE(saw_nonzero_time);
#endif
}

TEST_F(SqlEndToEndTest, ExplainAnalyzeParseErrors) {
  EXPECT_FALSE(db_.Execute("EXPLAIN ANALYZE INSERT INTO emp VALUES "
                           "(9, 'x', 1.0)")
                   .ok());
}

TEST_F(SqlEndToEndTest, ShowStatsExposesEngineMetrics) {
  // The SetUp inserts committed through the transaction manager, so the
  // global commit counter is non-zero by the time SHOW STATS runs.
  auto r = db_.Execute("SHOW STATS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns, (std::vector<std::string>{"metric", "value"}));
  std::map<std::string, Value> by_name;
  for (const Row& row : r->rows) {
    ASSERT_EQ(row.size(), 2u);
    by_name[row[0].AsString()] = row[1];
  }
  // Core metrics are pre-registered, so they appear even at zero — the
  // dashboard contract. (The registry is process-global and shared across
  // tests, so only presence and monotonicity are asserted.)
  for (const char* name :
       {"txn.commits", "txn.aborts", "txn.write_conflicts",
        "wal.records", "wal.batches", "wal.fsyncs", "wal.sealed",
        "wal.batch_size.count", "wal.group_wait_us.count", "merge.runs",
        "2pc.commits", "net.messages",
        "raft.messages", "storage.freshness_lag_us", "storage.delta_rows",
        "wm.queue_depth.oltp", "wal.fsync_ns.p99", "wal.append_ns.count",
        "wm.latency_us.oltp.p99", "wm.latency_us.olap.p99",
        "txn.commit_ns.count"}) {
    EXPECT_TRUE(by_name.count(name)) << "missing metric: " << name;
  }
#ifndef OLTAP_OBS_DISABLED
  EXPECT_GT(by_name["txn.commits"].AsInt64(), 0);
  // This database holds unmerged delta rows, so freshness lag is live.
  EXPECT_GT(by_name["storage.delta_rows"].AsInt64(), 0);
  EXPECT_GT(by_name["storage.freshness_lag_us"].AsInt64(), 0);
#endif
}

// A torn append seals the database's log; SHOW STATS surfaces it as
// wal.sealed = 1 (refreshed from this database's own Wal), so an operator
// sees the dead log before the next commit fails.
TEST(SqlShowStatsTest, SealedWalSurfacesInShowStats) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT NOT NULL, v VARCHAR(8), "
                         "PRIMARY KEY (id))")
                  .ok());

  auto stat_value = [&](const char* name) {
    auto r = db.Execute("SHOW STATS");
    EXPECT_TRUE(r.ok());
    for (const Row& row : r->rows) {
      if (row[0].AsString() == name) return row[1].AsInt64();
    }
    ADD_FAILURE() << "metric missing: " << name;
    return int64_t{-1};
  };
  EXPECT_EQ(stat_value("wal.sealed"), 0);

  {
    FailpointConfig cfg;
    cfg.status = Status::Unavailable("injected torn append");
    ScopedFailpoint armed("wal.append.torn", cfg);
    EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (1, 'x')").ok());
  }
  ASSERT_TRUE(wal.sealed());
  EXPECT_EQ(stat_value("wal.sealed"), 1);
}

// UPDATE and DELETE whose WHERE pins every primary-key column to a
// constant fetch that row by key; the same statements with the key columns
// hidden behind `+ 0` scan the table. Both databases run one seeded
// statement stream and must agree on every affected-row count and on the
// final table: own writes in the same transaction (updates of rows it
// inserted, deletes then re-inserts), missing keys, extra non-key
// conjuncts, partial keys and aborted transactions included.
class DmlPointPathTest : public ::testing::TestWithParam<TableFormat> {};

TEST_P(DmlPointPathTest, MatchesScanSemantics) {
  Database point;
  Database scan;
  for (Database* db : {&point, &scan}) {
    ASSERT_TRUE(db->Execute("CREATE TABLE t (w BIGINT NOT NULL, d BIGINT "
                            "NOT NULL, v BIGINT, s TEXT, PRIMARY KEY (w, d)) "
                            "FORMAT " +
                            std::string(TableFormatToString(GetParam())))
                    .ok());
  }
  Rng rng(17);
  size_t point_hits = 0;
  for (int round = 0; round < 80; ++round) {
    auto tp = point.txn_manager()->Begin();
    auto ts = scan.txn_manager()->Begin();
    const int stmts = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < stmts; ++i) {
      const std::string w = std::to_string(rng.UniformRange(1, 3));
      const std::string d = std::to_string(rng.UniformRange(1, 6));
      const std::string v = std::to_string(rng.UniformRange(0, 9));
      const std::string extra = rng.Bernoulli(0.4) ? " AND v > " + v : "";
      const std::string pinned = "w = " + w + " AND " + d + " = d" + extra;
      const std::string hidden = "w + 0 = " + w + " AND d + 0 = " + d + extra;
      std::string a, b;
      switch (rng.Uniform(5)) {
        case 0:
        case 1:
          a = b = "INSERT INTO t VALUES (" + w + ", " + d + ", " + v +
                  ", 's" + v + "')";
          break;
        case 2:
          a = "UPDATE t SET v = v + 1, s = 'u' WHERE " + pinned;
          b = "UPDATE t SET v = v + 1, s = 'u' WHERE " + hidden;
          break;
        case 3:
          a = "DELETE FROM t WHERE " + pinned;
          b = "DELETE FROM t WHERE " + hidden;
          break;
        case 4:  // only part of the key: both scan
          a = b = "UPDATE t SET v = v * 2 WHERE w = " + w + extra;
          break;
      }
      Result<QueryResult> ra = point.ExecuteIn(tp.get(), a);
      Result<QueryResult> rb = scan.ExecuteIn(ts.get(), b);
      ASSERT_EQ(ra.ok(), rb.ok()) << a;
      if (!ra.ok()) continue;
      EXPECT_EQ(ra->affected, rb->affected) << a;
      if (a != b && ra->affected > 0) ++point_hits;
    }
    if (rng.Bernoulli(0.8)) {
      Status ca = point.txn_manager()->Commit(tp.get());
      Status cb = scan.txn_manager()->Commit(ts.get());
      ASSERT_EQ(ca.ok(), cb.ok());
    } else {
      point.txn_manager()->Abort(tp.get());
      scan.txn_manager()->Abort(ts.get());
    }
  }
  EXPECT_GT(point_hits, 20u);  // the stream does reach existing keys
  const std::string all = "SELECT w, d, v, s FROM t ORDER BY w, d";
  Result<QueryResult> fa = point.Execute(all);
  Result<QueryResult> fb = scan.Execute(all);
  ASSERT_TRUE(fa.ok() && fb.ok());
  EXPECT_GT(fa->rows.size(), 0u);
  EXPECT_EQ(fa->ToString(1000), fb->ToString(1000));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, DmlPointPathTest,
                         ::testing::Values(TableFormat::kRow,
                                           TableFormat::kColumn,
                                           TableFormat::kDual),
                         [](const auto& info) {
                           return TableFormatToString(info.param);
                         });

}  // namespace
}  // namespace oltap
