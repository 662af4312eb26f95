#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "sql/session.h"
#include "storage/row.h"
#include "failpoint_fixture.h"
#include "txn/wal.h"
#include "view/view.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

QueryResult Exec(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? *r : QueryResult{};
}

// Order-independent rendering of a result set.
std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

// The routed and unrouted executions of the same SQL must agree cell for
// cell (and on output column names).
void ExpectRoutedEquals(Database* db, const std::string& sql) {
  Exec(db, "SET view_routing = off");
  QueryResult base = Exec(db, sql);
  Exec(db, "SET view_routing = on");
  QueryResult routed = Exec(db, sql);
  EXPECT_EQ(base.columns, routed.columns) << sql;
  EXPECT_EQ(Canon(base), Canon(routed)) << sql;
}

class ViewFailpointTest : public FailpointTest {};

bool ExplainRouted(Database* db, const std::string& sql) {
  QueryResult r = Exec(db, "EXPLAIN " + sql);
  for (const Row& row : r.rows) {
    for (const Value& v : row) {
      if (!v.is_null() && v.type() == ValueType::kString &&
          v.AsString().find("routed via materialized view") !=
              std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Validation / DDL surface.

TEST(ViewTest, CreateValidation) {
  Database db;
  Exec(&db, "CREATE TABLE t (a INT NOT NULL, g INT, v INT, PRIMARY KEY (a))");
  Exec(&db, "CREATE TABLE u (b INT NOT NULL, w INT, PRIMARY KEY (b))");

  // Unknown base table.
  EXPECT_FALSE(
      db.Execute("CREATE MATERIALIZED VIEW v1 AS SELECT x FROM nosuch").ok());
  // ORDER BY / LIMIT / DISTINCT in the definition.
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT a, v FROM t ORDER BY a")
                   .ok());
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT a, v FROM t LIMIT 3")
                   .ok());
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT DISTINCT g FROM t")
                   .ok());
  // Aggregate view without GROUP BY.
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT SUM(v) AS s FROM t")
                   .ok());
  // Join view whose select list misses a base primary key (u.b).
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT t.a, t.v FROM t JOIN u ON t.g = u.b")
                   .ok());
  // SELECT *, whatever the table's width.
  Exec(&db, "CREATE TABLE one (k INT NOT NULL, PRIMARY KEY (k))");
  EXPECT_FALSE(
      db.Execute("CREATE MATERIALIZED VIEW v1 AS SELECT * FROM one").ok());
  EXPECT_FALSE(
      db.Execute("CREATE MATERIALIZED VIEW v1 AS SELECT * FROM t").ok());
  // Disconnected join (no edge between t and u).
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT t.a, u.b FROM t, u WHERE t.a > 0")
                   .ok());

  Exec(&db,
       "CREATE MATERIALIZED VIEW v1 AS "
       "SELECT t.a, u.b, t.v, u.w FROM t JOIN u ON t.g = u.b");
  // Duplicate name.
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v1 AS "
                          "SELECT g FROM t GROUP BY g")
                   .ok());
  // Views over views.
  EXPECT_FALSE(db.Execute("CREATE MATERIALIZED VIEW v2 AS "
                          "SELECT a FROM v1 GROUP BY a")
                   .ok());
  // Direct DML against a view.
  EXPECT_FALSE(db.Execute("INSERT INTO v1 VALUES (1, 1, 1, 1)").ok());
  EXPECT_FALSE(db.Execute("UPDATE v1 SET v = 0 WHERE a = 1").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM v1 WHERE a = 1").ok());
  // View DDL inside an explicit transaction.
  std::unique_ptr<Transaction> txn = db.txn_manager()->Begin();
  EXPECT_FALSE(
      db.ExecuteIn(txn.get(), "CREATE MATERIALIZED VIEW v3 AS SELECT a FROM t")
          .ok());
  db.txn_manager()->Abort(txn.get());
  // REFRESH of an unknown view.
  EXPECT_FALSE(db.Execute("REFRESH MATERIALIZED VIEW nosuch").ok());

  EXPECT_TRUE(db.view_manager()->IsView("v1"));
  EXPECT_EQ(db.view_manager()->num_views(), 1u);
}

// ---------------------------------------------------------------------------
// Synchronous incremental maintenance.

TEST(ViewTest, JoinViewSyncMaintenance) {
  Database db;
  Exec(&db, "CREATE TABLE t (a INT NOT NULL, j INT, v INT, PRIMARY KEY (a))");
  Exec(&db, "CREATE TABLE u (b INT NOT NULL, w INT, PRIMARY KEY (b))");
  Exec(&db,
       "CREATE MATERIALIZED VIEW tv SYNC AS "
       "SELECT t.a, u.b, t.v, u.w FROM t JOIN u ON t.j = u.b "
       "WHERE t.v > 0");

  const std::string view_q = "SELECT a, b, v, w FROM tv";
  const std::string def_q =
      "SELECT t.a, u.b, t.v, u.w FROM t JOIN u ON t.j = u.b WHERE t.v > 0";
  auto check = [&] {
    Exec(&db, "SET view_routing = off");
    EXPECT_EQ(Canon(Exec(&db, view_q)), Canon(Exec(&db, def_q)));
    Exec(&db, "SET view_routing = on");
  };

  Exec(&db, "INSERT INTO u VALUES (10, 100), (20, 200), (30, 300)");
  check();
  Exec(&db, "INSERT INTO t VALUES (1, 10, 5), (2, 20, 7), (3, 10, -1)");
  check();  // a=3 filtered by the view predicate
  // NULL join key never matches (null-rejecting equality).
  Exec(&db, "INSERT INTO t VALUES (4, NULL, 9)");
  check();
  // Update that moves a row across the join (j 10 -> 20) and across the
  // local predicate (v 5 -> -5).
  Exec(&db, "UPDATE t SET j = 20 WHERE a = 1");
  check();
  Exec(&db, "UPDATE t SET v = -5 WHERE a = 2");
  check();
  Exec(&db, "UPDATE t SET v = 6 WHERE a = 2");
  check();
  // Delete on either side of the join.
  Exec(&db, "DELETE FROM t WHERE a = 1");
  check();
  Exec(&db, "DELETE FROM u WHERE b = 20");
  check();
  // Re-insert a previously deleted key (positional delete then reuse).
  Exec(&db, "INSERT INTO t VALUES (1, 30, 11)");
  check();
  // Delete the whole probe side.
  Exec(&db, "DELETE FROM u WHERE b > 0");
  check();
  EXPECT_TRUE(Exec(&db, view_q).rows.empty());
}

TEST(ViewTest, AggViewSyncMaintenance) {
  Database db;
  Exec(&db,
       "CREATE TABLE m (k INT NOT NULL, g INT, v INT, PRIMARY KEY (k))");
  Exec(&db,
       "CREATE MATERIALIZED VIEW magg SYNC AS "
       "SELECT g, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv, "
       "AVG(v) AS av, MIN(v) AS mn, MAX(v) AS mx FROM m GROUP BY g");

  const std::string view_q = "SELECT g, n, nv, sv, av, mn, mx FROM magg";
  const std::string def_q =
      "SELECT g, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv, "
      "AVG(v) AS av, MIN(v) AS mn, MAX(v) AS mx FROM m GROUP BY g";
  auto check = [&] {
    Exec(&db, "SET view_routing = off");
    EXPECT_EQ(Canon(Exec(&db, view_q)), Canon(Exec(&db, def_q)));
    Exec(&db, "SET view_routing = on");
  };

  Exec(&db, "INSERT INTO m VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30)");
  check();
  Exec(&db, "INSERT INTO m VALUES (4, 1, NULL), (5, 3, 7)");
  check();  // NULL v: counted by n, not by nv/sv
  Exec(&db, "UPDATE m SET v = 25 WHERE k = 2");
  check();
  // Delete the group max (forces recompute) and the group min.
  Exec(&db, "DELETE FROM m WHERE k = 2");
  check();
  Exec(&db, "DELETE FROM m WHERE k = 1");
  check();
  // Group vanishes entirely.
  Exec(&db, "DELETE FROM m WHERE k = 3");
  check();
  // Group moves: update the group key.
  Exec(&db, "INSERT INTO m VALUES (6, 4, 1), (7, 4, 2)");
  Exec(&db, "UPDATE m SET g = 5 WHERE k = 6");
  check();
  // Row whose every aggregate input is NULL, then its deletion.
  Exec(&db, "INSERT INTO m VALUES (8, 6, NULL)");
  check();
  Exec(&db, "DELETE FROM m WHERE k = 8");
  check();
}

TEST(ViewTest, MinMaxDeleteRecomputes) {
  Database db;
  Exec(&db, "CREATE TABLE r (k INT NOT NULL, g INT, v INT, PRIMARY KEY (k))");
  Exec(&db,
       "CREATE MATERIALIZED VIEW rmm SYNC AS "
       "SELECT g, MIN(v) AS mn, MAX(v) AS mx FROM r GROUP BY g");
  Exec(&db, "INSERT INTO r VALUES (1, 1, 5), (2, 1, 9), (3, 1, 1)");

  uint64_t recomputes_before =
      obs::MetricsRegistry::Default()->GetCounter("view.group_recomputes")
          ->Value();
  Exec(&db, "DELETE FROM r WHERE k = 2");  // deletes the max
  QueryResult q = Exec(&db, "SELECT g, mn, mx FROM rmm");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0][1].AsInt64(), 1);
  EXPECT_EQ(q.rows[0][2].AsInt64(), 5);
  Exec(&db, "DELETE FROM r WHERE k = 3");  // deletes the min
  q = Exec(&db, "SELECT g, mn, mx FROM rmm");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0][1].AsInt64(), 5);
  EXPECT_EQ(q.rows[0][2].AsInt64(), 5);
  uint64_t recomputes_after =
      obs::MetricsRegistry::Default()->GetCounter("view.group_recomputes")
          ->Value();
  EXPECT_GT(recomputes_after, recomputes_before);
}

TEST(ViewTest, DoubleSumWithDeletes) {
  Database db;
  Exec(&db, "CREATE TABLE d (k INT NOT NULL, g INT, x DOUBLE, "
            "PRIMARY KEY (k))");
  Exec(&db,
       "CREATE MATERIALIZED VIEW dagg SYNC AS "
       "SELECT g, SUM(x) AS sx, COUNT(*) AS n FROM d GROUP BY g");
  Exec(&db, "INSERT INTO d VALUES (1, 1, 1.5), (2, 1, 2.25), (3, 1, 4.0)");
  // Double SUM is recomputed on delete, so the result is exact, not a
  // drifting subtraction.
  Exec(&db, "DELETE FROM d WHERE k = 2");
  QueryResult q = Exec(&db, "SELECT g, sx, n FROM dagg");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(q.rows[0][1].AsDouble(), 5.5);
  EXPECT_EQ(q.rows[0][2].AsInt64(), 2);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: a seeded insert/update/delete stream against a
// deferred join view and a deferred aggregate view, compared to full
// recomputation at checkpoints. Covers positional deletes (delta-store
// tombstones), key reuse, group churn, and MIN/MAX delete paths.

TEST(ViewTest, RandomizedStreamEquivalence) {
  Database db;
  Exec(&db, "CREATE TABLE ft (a INT NOT NULL, j INT, g INT, v INT, "
            "PRIMARY KEY (a))");
  Exec(&db, "CREATE TABLE dt (b INT NOT NULL, w INT, PRIMARY KEY (b))");
  for (int b = 0; b < 8; ++b) {
    Exec(&db, "INSERT INTO dt VALUES (" + std::to_string(b) + ", " +
                  std::to_string(b * 10) + ")");
  }
  Exec(&db,
       "CREATE MATERIALIZED VIEW rj DEFERRED AS "
       "SELECT ft.a, dt.b, ft.v, dt.w FROM ft JOIN dt ON ft.j = dt.b");
  Exec(&db,
       "CREATE MATERIALIZED VIEW ra DEFERRED AS "
       "SELECT g, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx "
       "FROM ft GROUP BY g");

  Rng stream(20260807);
  std::set<int64_t> live;
  int64_t next_key = 0;
  const int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    int pick = static_cast<int>(stream.UniformRange(0, 9));
    if (pick < 5 || live.empty()) {
      int64_t a = next_key++;
      // Key reuse: occasionally resurrect an old key.
      if (pick == 0 && !live.empty() && next_key > 4) {
        a = next_key - 2;
        if (live.count(a)) a = next_key++;
      }
      int64_t j = stream.UniformRange(0, 9);  // 8,9 dangle (no dt match)
      int64_t g = stream.UniformRange(0, 4);
      int64_t v = stream.UniformRange(-50, 50);
      std::string vs = (v == 0) ? "NULL" : std::to_string(v);
      if (db.Execute("INSERT INTO ft VALUES (" + std::to_string(a) + ", " +
                     std::to_string(j) + ", " + std::to_string(g) + ", " +
                     vs + ")")
              .ok()) {
        live.insert(a);
      }
    } else if (pick < 8) {
      auto it = live.begin();
      std::advance(it, stream.UniformRange(0, live.size() - 1));
      int64_t g = stream.UniformRange(0, 4);
      int64_t v = stream.UniformRange(-50, 50);
      Exec(&db, "UPDATE ft SET g = " + std::to_string(g) + ", v = " +
                    std::to_string(v) + " WHERE a = " + std::to_string(*it));
    } else {
      auto it = live.begin();
      std::advance(it, stream.UniformRange(0, live.size() - 1));
      Exec(&db, "DELETE FROM ft WHERE a = " + std::to_string(*it));
      live.erase(it);
    }

    if (i % 40 == 39 || i == kOps - 1) {
      EXPECT_GT(db.view_manager()->MaintainAll(), 0u);
      Exec(&db, "SET view_routing = off");
      EXPECT_EQ(
          Canon(Exec(&db, "SELECT a, b, v, w FROM rj")),
          Canon(Exec(&db, "SELECT ft.a, dt.b, ft.v, dt.w FROM ft "
                          "JOIN dt ON ft.j = dt.b")))
          << "op " << i;
      EXPECT_EQ(
          Canon(Exec(&db, "SELECT g, n, sv, mn, mx FROM ra")),
          Canon(Exec(&db, "SELECT g, COUNT(*) AS n, SUM(v) AS sv, "
                          "MIN(v) AS mn, MAX(v) AS mx FROM ft GROUP BY g")))
          << "op " << i;
      Exec(&db, "SET view_routing = on");
    }
  }
  // REFRESH produces the same contents the incremental path maintained.
  Exec(&db, "SET view_routing = off");
  std::vector<std::string> incr = Canon(Exec(&db, "SELECT g, n, sv, mn, mx "
                                                  "FROM ra"));
  Exec(&db, "REFRESH MATERIALIZED VIEW ra");
  EXPECT_EQ(incr, Canon(Exec(&db, "SELECT g, n, sv, mn, mx FROM ra")));
}

// ---------------------------------------------------------------------------
// Routing: shape matching, EXPLAIN surface, staleness gating, knobs.

TEST(ViewTest, RoutingAndStalenessGate) {
  Database db;
  Exec(&db, "CREATE TABLE f (k INT NOT NULL, g INT, v INT, PRIMARY KEY (k))");
  Exec(&db, "INSERT INTO f VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30)");
  Exec(&db,
       "CREATE MATERIALIZED VIEW fa DEFERRED AS "
       "SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM f GROUP BY g");

  const std::string q = "SELECT g, SUM(v) AS sv FROM f GROUP BY g";
  EXPECT_TRUE(ExplainRouted(&db, q));
  ExpectRoutedEquals(&db, q);
  ExpectRoutedEquals(&db, q + " ORDER BY sv DESC");
  ExpectRoutedEquals(&db,
                     "SELECT g, COUNT(*) AS n FROM f GROUP BY g ORDER BY g");
  // Residual predicate on the group column.
  ExpectRoutedEquals(&db, "SELECT g, SUM(v) AS sv FROM f WHERE g = 1 "
                          "GROUP BY g");

  // Shapes that must NOT route: different grain, non-group filter,
  // aggregate the view does not carry.
  EXPECT_FALSE(ExplainRouted(&db, "SELECT k, SUM(v) AS sv FROM f "
                                  "GROUP BY k"));
  EXPECT_FALSE(ExplainRouted(&db, "SELECT g, SUM(v) AS sv FROM f "
                                  "WHERE v > 10 GROUP BY g"));
  EXPECT_FALSE(ExplainRouted(&db, "SELECT g, MIN(v) AS mn FROM f "
                                  "GROUP BY g"));

  // A pending base change makes the deferred view stale; a zero session
  // staleness bound must keep the query off the view until maintenance.
  Exec(&db, "INSERT INTO f VALUES (4, 2, 40)");
  Exec(&db, "SET max_staleness = 0");
  EXPECT_FALSE(ExplainRouted(&db, q));
  QueryResult fresh = Exec(&db, q);  // answered from the base, sees k=4
  ASSERT_EQ(fresh.rows.size(), 2u);
  db.view_manager()->MaintainAll();
  EXPECT_TRUE(ExplainRouted(&db, q));
  ExpectRoutedEquals(&db, q);
  Exec(&db, "SET max_staleness = off");

  // The routing knob itself.
  Exec(&db, "SET view_routing = off");
  EXPECT_FALSE(ExplainRouted(&db, q));
  Exec(&db, "SET view_routing = on");
  EXPECT_TRUE(ExplainRouted(&db, q));

  uint64_t routed =
      obs::MetricsRegistry::Default()->GetCounter("view.routed")->Value();
  EXPECT_GT(routed, 0u);

  // Constants match as typed values, not as text: both bounds below print
  // as 0.000000 at six decimals, yet a view over v > 1e-7 cannot answer
  // v > 4e-7.
  Database ddb;
  Exec(&ddb, "CREATE TABLE t (k INT NOT NULL, j INT, v DOUBLE, "
             "PRIMARY KEY (k))");
  for (int k = 0; k < 20; ++k) {
    Exec(&ddb, "INSERT INTO t VALUES (" + std::to_string(k) + ", " +
                   std::to_string(k % 4) + ", " +
                   (k % 5 == 0 ? "0.0000002" : "0.0000005") + ")");
  }
  Exec(&ddb,
       "CREATE MATERIALIZED VIEW tv SYNC AS "
       "SELECT j, COUNT(*) AS n FROM t WHERE v > 0.0000001 GROUP BY j");
  const std::string narrower =
      "SELECT j, COUNT(*) AS n FROM t WHERE v > 0.0000004 GROUP BY j";
  EXPECT_FALSE(ExplainRouted(&ddb, narrower));
  ExpectRoutedEquals(&ddb, narrower);
  const std::string same =
      "SELECT j, COUNT(*) AS n FROM t WHERE v > 0.0000001 GROUP BY j";
  EXPECT_TRUE(ExplainRouted(&ddb, same));
  ExpectRoutedEquals(&ddb, same);
}

TEST(ViewTest, JoinViewRouting) {
  Database db;
  Exec(&db, "CREATE TABLE o (oid INT NOT NULL, cid INT, amt INT, "
            "PRIMARY KEY (oid))");
  Exec(&db, "CREATE TABLE c (cid INT NOT NULL, seg INT, PRIMARY KEY (cid))");
  Exec(&db, "INSERT INTO c VALUES (1, 7), (2, 8)");
  Exec(&db, "INSERT INTO o VALUES (10, 1, 100), (11, 1, 50), (12, 2, 30)");
  Exec(&db,
       "CREATE MATERIALIZED VIEW oc SYNC AS "
       "SELECT o.oid, c.cid, o.amt, c.seg FROM o JOIN c ON o.cid = c.cid");

  // Plain join query routes onto the view (case A).
  ExpectRoutedEquals(&db, "SELECT o.oid, o.amt, c.seg FROM o "
                          "JOIN c ON o.cid = c.cid ORDER BY o.oid");
  // Aggregate over the join routes too (case B): the view stores the
  // join, the aggregation runs over the backing table.
  ExpectRoutedEquals(&db, "SELECT c.seg, SUM(o.amt) AS total FROM o "
                          "JOIN c ON o.cid = c.cid GROUP BY c.seg");
  EXPECT_TRUE(ExplainRouted(&db, "SELECT c.seg, SUM(o.amt) AS total FROM o "
                                 "JOIN c ON o.cid = c.cid GROUP BY c.seg"));
  // Residual filter the view does not carry is applied on top.
  ExpectRoutedEquals(&db, "SELECT o.oid, c.seg FROM o JOIN c "
                          "ON o.cid = c.cid WHERE o.amt > 40 ORDER BY o.oid");
  // Different join graph must not route.
  EXPECT_FALSE(ExplainRouted(&db, "SELECT o.oid, c.seg FROM o JOIN c "
                                  "ON o.amt = c.cid"));

  // Matching is independent of spelling: against a view with two local
  // predicates, aliases, FROM order, qualification, conjunct order and a
  // predicate written in ON all denote the same bound query.
  Database sdb;
  Exec(&sdb, "CREATE TABLE o (oid INT NOT NULL, cid INT, amt INT, "
             "PRIMARY KEY (oid))");
  Exec(&sdb, "CREATE TABLE c (cid INT NOT NULL, seg INT, PRIMARY KEY (cid))");
  Exec(&sdb, "INSERT INTO c VALUES (1, 7), (2, 8), (3, 7)");
  Exec(&sdb, "INSERT INTO o VALUES (10, 1, 100), (11, 1, 50), (12, 2, 30), "
             "(13, 3, 45), (14, 3, 20), (15, 2, 90)");
  Exec(&sdb,
       "CREATE MATERIALIZED VIEW ocf SYNC AS "
       "SELECT o.oid, c.cid, o.amt, c.seg FROM o JOIN c ON o.cid = c.cid "
       "WHERE o.amt > 40 AND c.seg = 7");
  for (const char* sql :
       {"SELECT o.oid, o.amt, c.seg FROM o JOIN c ON o.cid = c.cid "
        "WHERE o.amt > 40 AND c.seg = 7",
        "SELECT x.oid, x.amt, y.seg FROM o x JOIN c y ON x.cid = y.cid "
        "WHERE x.amt > 40 AND y.seg = 7",
        "SELECT o.oid, o.amt, c.seg FROM c JOIN o ON o.cid = c.cid "
        "WHERE o.amt > 40 AND c.seg = 7",
        "SELECT oid, amt, seg FROM o JOIN c ON o.cid = c.cid "
        "WHERE amt > 40 AND seg = 7",
        "SELECT o.oid, o.amt, c.seg FROM o JOIN c ON o.cid = c.cid "
        "WHERE c.seg = 7 AND o.amt > 40",
        "SELECT o.oid, o.amt, c.seg FROM o JOIN c "
        "ON o.cid = c.cid AND o.amt > 40 WHERE c.seg = 7"}) {
    EXPECT_TRUE(ExplainRouted(&sdb, sql)) << sql;
    ExpectRoutedEquals(&sdb, sql);
  }
}

// The headline acceptance: a CH-style aggregate over a wide fact table is
// at least 3x faster when routed onto the materialized view, at equal
// results.
TEST(ViewTest, RoutedSpeedupAtLeast3x) {
  Database db;
  Exec(&db, "CREATE TABLE fact (k INT NOT NULL, g INT, v INT, "
            "PRIMARY KEY (k))");
  // Bulk-load through the transaction API (SQL INSERT per row would
  // dominate the test's runtime).
  Table* fact = db.catalog()->GetTable("fact");
  constexpr int kRows = 40000, kGroups = 64;
  for (int base = 0; base < kRows; base += 2000) {
    std::unique_ptr<Transaction> txn = db.txn_manager()->Begin();
    for (int k = base; k < base + 2000; ++k) {
      Row row{Value::Int64(k), Value::Int64(k % kGroups),
              Value::Int64(k % 997)};
      ASSERT_TRUE(txn->Insert(fact, std::move(row)).ok());
    }
    ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
  }
  Exec(&db,
       "CREATE MATERIALIZED VIEW factg SYNC AS "
       "SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY g");
  Exec(&db, "ANALYZE");

  const std::string q =
      "SELECT g, SUM(v) AS sv FROM fact GROUP BY g ORDER BY g";
  ASSERT_TRUE(ExplainRouted(&db, q));

  auto time_best_us = [&](const char* knob) {
    Exec(&db, knob);
    int64_t best = INT64_MAX;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      QueryResult r = Exec(&db, q);
      auto t1 = std::chrono::steady_clock::now();
      EXPECT_EQ(r.rows.size(), static_cast<size_t>(kGroups));
      best = std::min<int64_t>(
          best, std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                    .count());
    }
    return best;
  };

  ExpectRoutedEquals(&db, q);
  int64_t base_us = time_best_us("SET view_routing = off");
  int64_t view_us = time_best_us("SET view_routing = on");
  EXPECT_GE(base_us, 3 * view_us)
      << "base " << base_us << "us vs routed " << view_us << "us";
}

// ---------------------------------------------------------------------------
// Recovery: views are rebuilt from the recovered bases; a maintenance
// round that fails mid-flight leaves no torn state.

TEST(ViewTest, RecoveryRebuildsViews) {
  Wal wal;
  std::string log;
  std::vector<std::string> expect_join, expect_agg;
  {
    Database db(&wal);
    Exec(&db, "CREATE TABLE t (a INT NOT NULL, j INT, v INT, "
              "PRIMARY KEY (a))");
    Exec(&db, "CREATE TABLE u (b INT NOT NULL, w INT, PRIMARY KEY (b))");
    Exec(&db,
         "CREATE MATERIALIZED VIEW jv SYNC AS "
         "SELECT t.a, u.b, t.v, u.w FROM t JOIN u ON t.j = u.b");
    Exec(&db,
         "CREATE MATERIALIZED VIEW av SYNC AS "
         "SELECT j, COUNT(*) AS n, SUM(v) AS sv FROM t GROUP BY j");
    Exec(&db, "INSERT INTO u VALUES (1, 10), (2, 20)");
    Exec(&db, "INSERT INTO t VALUES (1, 1, 5), (2, 2, 7), (3, 1, 9)");
    Exec(&db, "UPDATE t SET v = 6 WHERE a = 1");
    Exec(&db, "DELETE FROM t WHERE a = 2");
    Exec(&db, "SET view_routing = off");
    expect_join = Canon(Exec(&db, "SELECT a, b, v, w FROM jv"));
    expect_agg = Canon(Exec(&db, "SELECT j, n, sv FROM av"));
    log = wal.buffer();
  }

  // Recovery: recreate the schema (catalog DDL is not WAL-logged),
  // replay, and the views come back rebuilt, not torn.
  Database db2;
  Exec(&db2, "CREATE TABLE t (a INT NOT NULL, j INT, v INT, "
             "PRIMARY KEY (a))");
  Exec(&db2, "CREATE TABLE u (b INT NOT NULL, w INT, PRIMARY KEY (b))");
  Exec(&db2,
       "CREATE MATERIALIZED VIEW jv SYNC AS "
       "SELECT t.a, u.b, t.v, u.w FROM t JOIN u ON t.j = u.b");
  Exec(&db2,
       "CREATE MATERIALIZED VIEW av SYNC AS "
       "SELECT j, COUNT(*) AS n, SUM(v) AS sv FROM t GROUP BY j");
  ASSERT_TRUE(db2.RecoverFromCheckpointStore({}, log).ok());
  Exec(&db2, "SET view_routing = off");
  EXPECT_EQ(Canon(Exec(&db2, "SELECT a, b, v, w FROM jv")), expect_join);
  EXPECT_EQ(Canon(Exec(&db2, "SELECT j, n, sv FROM av")), expect_agg);
  // And they keep maintaining after recovery.
  Exec(&db2, "INSERT INTO t VALUES (9, 2, 100)");
  EXPECT_EQ(Canon(Exec(&db2, "SELECT j, n, sv FROM av")),
            Canon(Exec(&db2, "SELECT j, COUNT(*) AS n, SUM(v) AS sv FROM t "
                             "GROUP BY j")));
}

TEST_F(ViewFailpointTest, CrashMidMaintenanceLeavesNoTornState) {
  Wal wal;
  Database db(&wal);
  Exec(&db, "CREATE TABLE t (a INT NOT NULL, g INT, v INT, PRIMARY KEY (a))");
  Exec(&db,
       "CREATE MATERIALIZED VIEW ag DEFERRED AS "
       "SELECT g, COUNT(*) AS n, SUM(v) AS sv, MAX(v) AS mx FROM t "
       "GROUP BY g");
  Exec(&db, "INSERT INTO t VALUES (1, 1, 10), (2, 1, 20)");
  db.view_manager()->MaintainAll();
  Exec(&db, "SET view_routing = off");
  std::vector<std::string> before =
      Canon(Exec(&db, "SELECT g, n, sv, mx FROM ag"));

  // New base change, then the maintenance transaction fails at commit:
  // the round must abort without touching the backing table or cursor.
  Exec(&db, "INSERT INTO t VALUES (3, 1, 30), (4, 2, 5)");
  {
    ScopedFailpoint fp("view.maintain.error", FailpointConfig{});
    EXPECT_FALSE(db.view_manager()->Maintain("ag").ok());
  }
  EXPECT_EQ(Canon(Exec(&db, "SELECT g, n, sv, mx FROM ag")), before)
      << "failed maintenance must not leave partial deltas";

  // The next round replays the same window and converges.
  ASSERT_TRUE(db.view_manager()->Maintain("ag").ok());
  EXPECT_EQ(Canon(Exec(&db, "SELECT g, n, sv, mx FROM ag")),
            Canon(Exec(&db, "SELECT g, COUNT(*) AS n, SUM(v) AS sv, "
                            "MAX(v) AS mx FROM t GROUP BY g")));
}

// A SYNC view whose maintenance fails at commit time must not fail the
// client's (already durable) transaction; the pending change is applied
// by the next successful round.
TEST_F(ViewFailpointTest, SyncMaintenanceFailureDoesNotFailClientCommit) {
  Wal wal;
  Database db(&wal);
  Exec(&db, "CREATE TABLE t (a INT NOT NULL, g INT, v INT, PRIMARY KEY (a))");
  Exec(&db,
       "CREATE MATERIALIZED VIEW sv SYNC AS "
       "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g");
  Exec(&db, "INSERT INTO t VALUES (1, 1, 10)");

  {
    // The client commit succeeds; the synchronous maintenance commit it
    // triggers fails.
    FailpointConfig cfg;
    cfg.max_fires = 1;
    ScopedFailpoint fp("view.maintain.error", cfg);
    Exec(&db, "INSERT INTO t VALUES (2, 1, 20)");  // client commit acked
  }
  // The row is durable and visible even though the view lagged.
  Exec(&db, "SET view_routing = off");
  QueryResult base = Exec(&db, "SELECT COUNT(*) AS n FROM t");
  EXPECT_EQ(base.rows[0][0].AsInt64(), 2);
  // Next maintenance round catches the view up.
  db.view_manager()->MaintainAll();
  EXPECT_EQ(Canon(Exec(&db, "SELECT g, n, s FROM sv")),
            Canon(Exec(&db, "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t "
                            "GROUP BY g")));
}

// ---------------------------------------------------------------------------
// Concurrency: a SYNC aggregate view over TPC-C orderline stays exactly
// consistent under the multi-threaded driver, while analytic queries
// route onto it concurrently.

TEST(ViewTest, ConcurrentMaintenanceUnderDriver) {
  Database db;
  CHConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 10;
  config.items = 50;
  config.initial_orders_per_district = 5;
  CHBenchmark bench(&db, config);
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  Exec(&db,
       "CREATE MATERIALIZED VIEW ol_by_wh SYNC AS "
       "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
       "FROM orderline GROUP BY ol_w_id");

  DriverOptions opts;
  opts.oltp_workers = 4;
  opts.olap_workers = 2;
  opts.ops_per_worker = 40;
  opts.seed = 20260807;
  opts.merge_delta_threshold = 64;
  opts.merge_interval_ms = 1;
  ConcurrentDriver driver(&bench, opts);
  DriverReport report = driver.Run();
  EXPECT_GT(report.txns.total(), 0u);

  // SYNC views are exact at quiescence: identical to full recomputation.
  Exec(&db, "SET view_routing = off");
  EXPECT_EQ(
      Canon(Exec(&db, "SELECT ol_w_id, n, qty FROM ol_by_wh")),
      Canon(Exec(&db, "SELECT ol_w_id, COUNT(*) AS n, "
                      "SUM(ol_quantity) AS qty FROM orderline "
                      "GROUP BY ol_w_id")));
  Exec(&db, "SET view_routing = on");
  ExpectRoutedEquals(&db, "SELECT ol_w_id, SUM(ol_quantity) AS qty "
                          "FROM orderline GROUP BY ol_w_id");
}

// Optional torture: many rounds of concurrent DML + maintenance + routing
// checks. OLTAP_VIEW_TORTURE_ROUNDS scales it up in the nightly job.
TEST(ViewTest, ViewTortureRounds) {
  int rounds = 1;
  if (const char* env = std::getenv("OLTAP_VIEW_TORTURE_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }
  for (int round = 0; round < rounds; ++round) {
    Database db;
    CHConfig config;
    config.warehouses = 2;
    config.districts_per_warehouse = 2;
    config.customers_per_district = 10;
    config.items = 50;
    config.initial_orders_per_district = 5;
    CHBenchmark bench(&db, config);
    ASSERT_TRUE(bench.CreateTables().ok());
    ASSERT_TRUE(bench.Load().ok());
    Exec(&db,
         "CREATE MATERIALIZED VIEW t_ol SYNC AS "
         "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, SUM(ol_quantity) AS q "
         "FROM orderline GROUP BY ol_w_id, ol_d_id");
    Exec(&db,
         "CREATE MATERIALIZED VIEW t_no DEFERRED AS "
         "SELECT no_w_id, COUNT(*) AS n FROM neworder GROUP BY no_w_id");

    DriverOptions opts;
    opts.oltp_workers = 4;
    opts.olap_workers = 1;
    opts.ops_per_worker = 30;
    opts.seed = 1000 + round;
    opts.merge_delta_threshold = 64;
    opts.merge_interval_ms = 1;
    ConcurrentDriver driver(&bench, opts);
    (void)driver.Run();

    db.view_manager()->MaintainAll();
    Exec(&db, "SET view_routing = off");
    EXPECT_EQ(Canon(Exec(&db, "SELECT ol_w_id, ol_d_id, n, q FROM t_ol")),
              Canon(Exec(&db, "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, "
                              "SUM(ol_quantity) AS q FROM orderline "
                              "GROUP BY ol_w_id, ol_d_id")))
        << "round " << round;
    EXPECT_EQ(Canon(Exec(&db, "SELECT no_w_id, n FROM t_no")),
              Canon(Exec(&db, "SELECT no_w_id, COUNT(*) AS n FROM neworder "
                              "GROUP BY no_w_id")))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Observability: SHOW STATS rows and live modification counters.

TEST(ViewTest, ShowStatsViewsAndLiveMods) {
  Database db;
  Exec(&db, "CREATE TABLE s1 (k INT NOT NULL, v INT, PRIMARY KEY (k))");
  Exec(&db, "CREATE TABLE s2 (k INT NOT NULL, v INT, PRIMARY KEY (k))");
  Exec(&db, "INSERT INTO s1 VALUES (1, 10), (2, 20)");
  Exec(&db, "INSERT INTO s2 VALUES (1, 1)");
  Exec(&db, "ANALYZE s1");
  Exec(&db, "INSERT INTO s1 VALUES (3, 30)");
  Exec(&db,
       "CREATE MATERIALIZED VIEW sv DEFERRED AS "
       "SELECT v, COUNT(*) AS n FROM s1 GROUP BY v");
  Exec(&db, "INSERT INTO s1 VALUES (4, 40)");  // pending for the view

  std::map<std::string, int64_t> stats;
  for (const Row& row : Exec(&db, "SHOW STATS").rows) {
    stats[row[0].AsString()] = row[1].AsInt64();
  }
  // Analyzed table: analyzed rowcount + live mods since then.
  EXPECT_EQ(stats.at("stats.s1.rows"), 2);
  EXPECT_EQ(stats.at("stats.s1.mods_since_analyze"), 2);
  // Never-analyzed table still reports live mods (and no .rows row).
  EXPECT_EQ(stats.count("stats.s2.rows"), 0u);
  EXPECT_EQ(stats.at("stats.s2.mods_since_analyze"), 1);
  // View rows: contents, pending changes, staleness.
  EXPECT_EQ(stats.at("view.sv.rows"), 3);  // v=10,20,30 groups at build
  EXPECT_EQ(stats.at("view.sv.pending"), 1);
  EXPECT_GE(stats.at("view.sv.staleness_us"), 0);

  db.view_manager()->MaintainAll();
  stats.clear();
  for (const Row& row : Exec(&db, "SHOW STATS").rows) {
    stats[row[0].AsString()] = row[1].AsInt64();
  }
  EXPECT_EQ(stats.at("view.sv.rows"), 4);
  EXPECT_EQ(stats.at("view.sv.pending"), 0);
  EXPECT_GT(stats.at("view.maintain_runs"), 0);
}

}  // namespace
}  // namespace oltap
