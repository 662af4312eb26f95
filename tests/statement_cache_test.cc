#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sql/session.h"
#include "storage/row.h"
#include "txn/checkpoint_daemon.h"
#include "txn/wal.h"

namespace oltap {
namespace {

uint64_t Count(const char* name) {
  return obs::MetricsRegistry::Default()->GetCounter(name)->Value();
}

QueryResult Exec(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? *r : QueryResult{};
}

// Order-independent rendering of a result set.
std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

// EXPLAIN output as one string, byte for byte.
std::string Text(const QueryResult& r) {
  std::string out;
  for (const Row& row : r.rows) out += row[0].AsString() + "\n";
  return out;
}

bool Routed(const std::string& explain) {
  return explain.find("routed via materialized view") != std::string::npos;
}

class StatementCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec(&db_, "CREATE TABLE f (k INT NOT NULL, g INT, v INT, "
               "PRIMARY KEY (k)) FORMAT DUAL");
    Exec(&db_, "CREATE TABLE d (g INT NOT NULL, name TEXT, "
               "PRIMARY KEY (g)) FORMAT DUAL");
    for (int k = 0; k < 200; ++k) {
      Exec(&db_, "INSERT INTO f VALUES (" + std::to_string(k) + ", " +
                     std::to_string(k % 4) + ", " + std::to_string(k * 3) +
                     ")");
    }
    for (int g = 0; g < 4; ++g) {
      Exec(&db_, "INSERT INTO d VALUES (" + std::to_string(g) + ", 'g" +
                     std::to_string(g) + "')");
    }
  }

  // The same statement under a whitespace variant never seen before: a
  // separate cache key, so it is parsed, bound and routed cold.
  std::string Cold(const std::string& sql) {
    return std::string(++pad_, ' ') + sql;
  }

  // Runs `sql` three times — a text enters the cache on its second
  // sighting, so the third run must be a cache hit — and once cold, and
  // expects the cached run to match the cold one: same columns and rows
  // for the query, same bytes for its EXPLAIN. Returns the cached EXPLAIN
  // text.
  std::string ExpectCachedEqualsCold(Database* db, const std::string& sql) {
    const std::string explain = "EXPLAIN " + sql;
    for (int i = 0; i < 2; ++i) {
      Exec(db, sql);
      Exec(db, explain);
    }
    const uint64_t hits = Count("sql.stmt_cache.hits");
    const uint64_t misses = Count("sql.stmt_cache.misses");
    QueryResult cached = Exec(db, sql);
    std::string cached_plan = Text(Exec(db, explain));
    EXPECT_EQ(Count("sql.stmt_cache.hits"), hits + 2) << sql;
    EXPECT_EQ(Count("sql.stmt_cache.misses"), misses) << sql;

    QueryResult cold = Exec(db, Cold(sql));
    std::string cold_plan = Text(Exec(db, Cold(explain)));
    EXPECT_EQ(Count("sql.stmt_cache.misses"), misses + 2) << sql;
    EXPECT_EQ(cached.columns, cold.columns) << sql;
    EXPECT_EQ(Canon(cached), Canon(cold)) << sql;
    EXPECT_EQ(cached_plan, cold_plan) << sql;
    return cached_plan;
  }

  Database db_;
  size_t pad_ = 0;
};

const char kAgg[] = "SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM f GROUP BY g";
const char kJoin[] =
    "SELECT d.name, f.v FROM f JOIN d ON f.g = d.g WHERE f.k < 40";

TEST_F(StatementCacheTest, HitsServeTheSameRowsAndPlan) {
  const uint64_t misses = Count("sql.stmt_cache.misses");
  const uint64_t hits = Count("sql.stmt_cache.hits");
  Exec(&db_, kAgg);
  Exec(&db_, kAgg);  // the second sighting enters the cache
  EXPECT_EQ(Count("sql.stmt_cache.misses"), misses + 2);
  EXPECT_EQ(Count("sql.stmt_cache.hits"), hits);
  Exec(&db_, kAgg);
  Exec(&db_, kAgg);
  EXPECT_EQ(Count("sql.stmt_cache.hits"), hits + 2);
  ExpectCachedEqualsCold(&db_, kAgg);
  ExpectCachedEqualsCold(&db_, kJoin);
  ExpectCachedEqualsCold(&db_, std::string(kJoin) + " ORDER BY f.v LIMIT 5");

  // A cached SELECT reads the data of its own snapshot, not the fill's.
  const size_t before = Exec(&db_, "SELECT k FROM f").rows.size();
  Exec(&db_, "INSERT INTO f VALUES (1000, 1, 1)");
  EXPECT_EQ(Exec(&db_, "SELECT k FROM f").rows.size(), before + 1);
}

// A routed text plans the base query and the rewrite once, on the first
// execution that reaches the view (as an uncached read plans every time);
// from then on each execution plans only the chosen side.
TEST_F(StatementCacheTest, CostChoiceIsMadeOnceThenOnePlanPerExecution) {
  Exec(&db_, "CREATE MATERIALIZED VIEW fa SYNC AS " + std::string(kAgg));
  auto plans_for = [&] {
    const uint64_t before = Count("opt.plans");
    Exec(&db_, kAgg);
    return Count("opt.plans") - before;
  };
  const uint64_t routed = Count("view.routed");
  EXPECT_EQ(plans_for(), 2u);  // first sighting: a private entry
  EXPECT_EQ(plans_for(), 2u);  // second sighting: enters the cache
  EXPECT_EQ(plans_for(), 1u);
  EXPECT_EQ(plans_for(), 1u);
  EXPECT_EQ(Count("view.routed"), routed + 4);
}

TEST_F(StatementCacheTest, OverflowClearsTheWholeCache) {
  Exec(&db_, kAgg);
  Exec(&db_, kAgg);
  // More distinct repeated SELECT texts than the cache holds (1024
  // entries).
  for (int k = 0; k < 1100; ++k) {
    const std::string q = "SELECT v FROM f WHERE k = " + std::to_string(k);
    Exec(&db_, q);
    Exec(&db_, q);
  }
  const uint64_t hits = Count("sql.stmt_cache.hits");
  const uint64_t misses = Count("sql.stmt_cache.misses");
  Exec(&db_, kAgg);
  EXPECT_EQ(Count("sql.stmt_cache.misses"), misses + 1);
  Exec(&db_, kAgg);
  Exec(&db_, kAgg);
  EXPECT_GE(Count("sql.stmt_cache.hits"), hits + 1);
}

// Texts that never repeat — a literal that changes per request — are run
// uncached: they neither enter the cache nor flush the texts that do
// repeat.
TEST_F(StatementCacheTest, TextsSeenOnceStayOut) {
  Exec(&db_, kAgg);
  Exec(&db_, kAgg);
  const uint64_t hits = Count("sql.stmt_cache.hits");
  const uint64_t misses = Count("sql.stmt_cache.misses");
  for (int k = 0; k < 3000; ++k) {
    Exec(&db_, "SELECT v FROM f WHERE k = " + std::to_string(k));
  }
  EXPECT_EQ(Count("sql.stmt_cache.misses"), misses + 3000);
  EXPECT_EQ(Count("sql.stmt_cache.hits"), hits);
  Exec(&db_, kAgg);
  EXPECT_EQ(Count("sql.stmt_cache.hits"), hits + 1);
}

TEST_F(StatementCacheTest, DmlTextsNeverCreateEntries) {
  const uint64_t hits = Count("sql.stmt_cache.hits");
  const uint64_t misses = Count("sql.stmt_cache.misses");
  for (int i = 0; i < 3; ++i) {
    Exec(&db_, "INSERT INTO f VALUES (5000, 1, 1)");
    Exec(&db_, "UPDATE f SET v = v + 1 WHERE k = 5000");
    Exec(&db_, "UPDATE f SET v = v + 1 WHERE k = 5000");
    Exec(&db_, "DELETE FROM f WHERE k = 5000");
  }
  EXPECT_EQ(Count("sql.stmt_cache.hits"), hits);
  EXPECT_EQ(Count("sql.stmt_cache.misses"), misses);

  // The same holds inside a caller-managed transaction.
  auto txn = db_.txn_manager()->Begin();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        db_.ExecuteIn(txn.get(), "UPDATE f SET v = 7 WHERE k = 1").ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db_.ExecuteIn(txn.get(), kAgg).ok());
  }
  ASSERT_TRUE(db_.txn_manager()->Commit(txn.get()).ok());
  EXPECT_EQ(Count("sql.stmt_cache.misses"), misses + 2);
  EXPECT_EQ(Count("sql.stmt_cache.hits"), hits + 1);
}

TEST_F(StatementCacheTest, CreateTableInvalidates) {
  ExpectCachedEqualsCold(&db_, kJoin);
  const uint64_t invalidations = Count("sql.stmt_cache.invalidations");
  Exec(&db_, "CREATE TABLE extra (x INT NOT NULL, PRIMARY KEY (x))");
  Exec(&db_, kJoin);
  EXPECT_EQ(Count("sql.stmt_cache.invalidations"), invalidations + 1);
  ExpectCachedEqualsCold(&db_, kJoin);
  // A text that failed to bind leaves no entry and binds once its table
  // exists.
  EXPECT_FALSE(db_.Execute("SELECT y FROM later").ok());
  Exec(&db_, "CREATE TABLE later (y INT NOT NULL, PRIMARY KEY (y))");
  Exec(&db_, "INSERT INTO later VALUES (3)");
  EXPECT_EQ(Exec(&db_, "SELECT y FROM later").rows.size(), 1u);
}

TEST_F(StatementCacheTest, CreateMaterializedViewRoutesCachedText) {
  EXPECT_FALSE(Routed(ExpectCachedEqualsCold(&db_, kAgg)));
  const uint64_t invalidations = Count("sql.stmt_cache.invalidations");
  Exec(&db_, "CREATE MATERIALIZED VIEW fa SYNC AS " + std::string(kAgg));
  // The text cached before the view existed now routes onto it.
  const uint64_t routed = Count("view.routed");
  EXPECT_TRUE(Routed(Text(Exec(&db_, "EXPLAIN " + std::string(kAgg)))));
  EXPECT_EQ(Count("view.routed"), routed + 1);
  EXPECT_GE(Count("sql.stmt_cache.invalidations"), invalidations + 1);
  EXPECT_TRUE(Routed(ExpectCachedEqualsCold(&db_, kAgg)));

  // A SYNC view equals its base on every commit, cached or not.
  Exec(&db_, "INSERT INTO f VALUES (900, 2, 5)");
  EXPECT_TRUE(Routed(ExpectCachedEqualsCold(&db_, kAgg)));
  Exec(&db_, "SET view_routing = off");
  QueryResult base = Exec(&db_, kAgg);
  Exec(&db_, "SET view_routing = on");
  EXPECT_EQ(Canon(base), Canon(Exec(&db_, kAgg)));
}

TEST_F(StatementCacheTest, AnalyzeInvalidates) {
  const std::string q = "SELECT k, v FROM f WHERE g = 1";
  const std::string before = ExpectCachedEqualsCold(&db_, q);
  const uint64_t invalidations = Count("sql.stmt_cache.invalidations");
  Exec(&db_, "ANALYZE f");
  Exec(&db_, q);
  EXPECT_EQ(Count("sql.stmt_cache.invalidations"), invalidations + 1);
  const std::string after = ExpectCachedEqualsCold(&db_, q);
  // The new statistics reach the cached text's plan.
  EXPECT_NE(before, after);
}

TEST_F(StatementCacheTest, SessionFlagsApplyPerExecution) {
  Exec(&db_, "CREATE MATERIALIZED VIEW fd DEFERRED AS " + std::string(kAgg));
  const std::string explain = "EXPLAIN " + std::string(kAgg);
  EXPECT_TRUE(Routed(ExpectCachedEqualsCold(&db_, kAgg)));

  // From here on no statement changes the epoch: every flip below is one
  // cached entry read under different per-execution state.
  Exec(&db_, "INSERT INTO f VALUES (901, 3, 5)");  // the view is now stale
  const uint64_t invalidations = Count("sql.stmt_cache.invalidations");
  const uint64_t misses = Count("sql.stmt_cache.misses");

  Exec(&db_, "SET max_staleness = 0");
  EXPECT_FALSE(Routed(Text(Exec(&db_, explain))));
  QueryResult fresh = Exec(&db_, kAgg);  // from the base: sees k=901
  Exec(&db_, "SET max_staleness = off");
  EXPECT_TRUE(Routed(Text(Exec(&db_, explain))));

  Exec(&db_, "SET view_routing = off");
  EXPECT_FALSE(Routed(Text(Exec(&db_, explain))));
  EXPECT_EQ(Canon(Exec(&db_, kAgg)), Canon(fresh));
  Exec(&db_, "SET view_routing = on");
  EXPECT_TRUE(Routed(Text(Exec(&db_, explain))));

  Exec(&db_, "SET optimizer = off");
  const std::string legacy = Text(Exec(&db_, explain));
  EXPECT_FALSE(Routed(legacy));
  EXPECT_EQ(legacy.find("cost="), std::string::npos) << legacy;
  Exec(&db_, "SET optimizer = on");
  EXPECT_TRUE(Routed(Text(Exec(&db_, explain))));

  EXPECT_EQ(Count("sql.stmt_cache.invalidations"), invalidations);
  EXPECT_EQ(Count("sql.stmt_cache.misses"), misses);

  // Each flipped state still matches a cold read of the same text.
  Exec(&db_, "SET max_staleness = 0");
  EXPECT_FALSE(Routed(ExpectCachedEqualsCold(&db_, kAgg)));
  db_.view_manager()->MaintainAll();
  EXPECT_TRUE(Routed(ExpectCachedEqualsCold(&db_, kAgg)));
  Exec(&db_, "SET max_staleness = off");
  Exec(&db_, "SET optimizer = off");
  ExpectCachedEqualsCold(&db_, kJoin);
  Exec(&db_, "SET optimizer = on");
}

TEST_F(StatementCacheTest, FeedbackReplanReachesCachedText) {
  // No ANALYZE: the default estimate of the selective scan is far enough
  // off that the first execution invalidates the remembered join order.
  const std::string q =
      "SELECT d.name, f.v FROM f JOIN d ON f.g = d.g WHERE f.v < 30";
  const uint64_t replans = Count("opt.feedback_replans");
  Exec(&db_, q);
  Exec(&db_, q);
  EXPECT_GT(Count("opt.feedback_replans"), replans);
  // The next execution takes the order remembered by the replan, from the
  // cached entry and cold alike.
  const uint64_t order_hits = Count("opt.order_cache_hits");
  ExpectCachedEqualsCold(&db_, q);
  EXPECT_GT(Count("opt.order_cache_hits"), order_hits);
}

TEST_F(StatementCacheTest, RecoveredDatabaseServesCachedReads) {
  Wal wal;
  Database src(&wal);
  Exec(&src, "CREATE TABLE f (k INT NOT NULL, g INT, v INT, "
             "PRIMARY KEY (k)) FORMAT DUAL");
  for (int k = 0; k < 50; ++k) {
    Exec(&src, "INSERT INTO f VALUES (" + std::to_string(k) + ", " +
                   std::to_string(k % 3) + ", " + std::to_string(k) + ")");
  }
  Exec(&src, "CREATE MATERIALIZED VIEW fa SYNC AS " + std::string(kAgg));
  Exec(&src, "CHECKPOINT");
  Exec(&src, "INSERT INTO f VALUES (100, 1, 100)");  // the WAL tail
  const std::vector<std::string> expect = Canon(Exec(&src, kAgg));

  Database recovered;
  auto report = recovered.RecoverFromCheckpointStore(
      src.checkpointer()->StoreCopy(), wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(Routed(ExpectCachedEqualsCold(&recovered, kAgg)));
  EXPECT_EQ(Canon(Exec(&recovered, kAgg)), expect);
}

// A reader that fills the entry while the view's backing table exists but
// the view is not yet registered must not pin the unrouted choice: the
// registration itself moves the epoch.
TEST_F(StatementCacheTest, ViewRegisteredDuringReadsRoutesAfterward) {
  const std::string explain = "EXPLAIN " + std::string(kAgg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) EXPECT_TRUE(db_.Execute(explain).ok());
    });
  }
  Exec(&db_, "CREATE MATERIALIZED VIEW fa SYNC AS " + std::string(kAgg));
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(Routed(Text(Exec(&db_, explain))));
}

// Cached reads on four threads while a fifth creates views, analyzes and
// flips session flags: every read succeeds with the same rows (the data
// does not change, and every route answers exactly).
TEST_F(StatementCacheTest, ConcurrentReadsDuringDdl) {
  const std::vector<std::string> agg = Canon(Exec(&db_, kAgg));
  const std::vector<std::string> join = Canon(Exec(&db_, kJoin));
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        const bool use_agg = t % 2 == 0;
        auto r = db_.Execute(use_agg ? kAgg : kJoin);
        if (!r.ok() || Canon(*r) != (use_agg ? agg : join)) ++failures;
        if (!db_.Execute("EXPLAIN " + std::string(kAgg)).ok()) ++failures;
        ++reads;
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    Exec(&db_, "CREATE MATERIALIZED VIEW v" + n +
                   (i % 2 == 0 ? " SYNC AS " : " DEFERRED AS ") + kAgg);
    Exec(&db_, "ANALYZE f");
    Exec(&db_, i % 2 == 0 ? "SET view_routing = off"
                          : "SET view_routing = on");
    Exec(&db_, i % 3 == 0 ? "SET optimizer = off" : "SET optimizer = on");
    Exec(&db_, i % 2 == 0 ? "SET max_staleness = 0"
                          : "SET max_staleness = off");
  }
  while (reads.load() < 200) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace oltap
