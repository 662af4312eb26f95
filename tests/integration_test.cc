// End-to-end integration: concurrent OLTP + analytics + merges over one
// Database, plus crash-recovery equivalence through the WAL — the
// "operational analytics" promise exercised across every layer at once.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sql/session.h"
#include "txn/wal.h"

namespace oltap {
namespace {

TEST(IntegrationTest, ConcurrentIngestAnalyticsAndMerge) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE events (id BIGINT NOT NULL, "
                         "kind TEXT, amount DOUBLE, PRIMARY KEY (id)) "
                         "FORMAT DUAL")
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> inserted{0};
  std::atomic<int> analytic_errors{0};
  std::atomic<int> monotonicity_violations{0};

  // Writer: transactional inserts with amount == 1.0 each, so SUM == COUNT.
  std::thread writer([&] {
    Rng rng(1);
    int64_t id = 0;
    const char* kinds[] = {"click", "view", "buy"};
    while (!stop.load(std::memory_order_acquire)) {
      auto txn = db.txn_manager()->Begin();
      bool ok = true;
      for (int i = 0; i < 10; ++i) {
        Table* t = db.catalog()->GetTable("events");
        Row row{Value::Int64(id + i), Value::String(kinds[rng.Uniform(3)]),
                Value::Double(1.0)};
        if (!txn->Insert(t, std::move(row)).ok()) {
          ok = false;
          break;
        }
      }
      if (ok && db.txn_manager()->Commit(txn.get()).ok()) {
        id += 10;
        inserted.store(id, std::memory_order_release);
      }
    }
  });

  // Analyst: SUM(amount) must equal COUNT(*) in every snapshot, and the
  // count can never exceed what the writer reports afterwards.
  std::thread analyst([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto r = db.Execute("SELECT COUNT(*), SUM(amount) FROM events");
      if (!r.ok()) {
        analytic_errors.fetch_add(1);
        continue;
      }
      int64_t count = r->rows[0][0].AsInt64();
      double sum = r->rows[0][1].is_null() ? 0 : r->rows[0][1].AsDouble();
      if (static_cast<double>(count) != sum) analytic_errors.fetch_add(1);
      // The writer publishes `inserted` after Commit returns, so one
      // 10-row batch may be committed-but-unpublished when we read it.
      int64_t committed_after = inserted.load(std::memory_order_acquire);
      if (count > committed_after + 10) monotonicity_violations.fetch_add(1);
      if (count % 10 != 0) analytic_errors.fetch_add(1);  // atomic batches
    }
  });

  // Merger: continuous delta merges respecting active snapshots.
  std::thread merger([&] {
    while (!stop.load(std::memory_order_acquire)) {
      db.MergeAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  writer.join();
  analyst.join();
  merger.join();

  EXPECT_EQ(analytic_errors.load(), 0);
  EXPECT_EQ(monotonicity_violations.load(), 0);
  ASSERT_GT(inserted.load(), 0);
  auto final_count = db.Execute("SELECT COUNT(*) FROM events");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows[0][0].AsInt64(), inserted.load());
}

TEST(IntegrationTest, WalRecoveryReproducesQueryResults) {
  Wal wal;
  std::string create =
      "CREATE TABLE accounts (id BIGINT NOT NULL, region TEXT, "
      "balance DOUBLE, PRIMARY KEY (id)) FORMAT COLUMN";
  std::vector<std::string> queries = {
      "SELECT COUNT(*), SUM(balance) FROM accounts",
      "SELECT region, COUNT(*) AS n, SUM(balance) AS total FROM accounts "
      "GROUP BY region ORDER BY region",
      "SELECT id, balance FROM accounts WHERE balance > 500.0 "
      "ORDER BY balance DESC LIMIT 5",
  };

  std::vector<QueryResult> original;
  {
    Database db(&wal);
    ASSERT_TRUE(db.Execute(create).ok());
    Rng rng(3);
    const char* regions[] = {"na", "eu", "ap"};
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO accounts VALUES (" +
                             std::to_string(i) + ", '" +
                             regions[rng.Uniform(3)] + "', " +
                             std::to_string(rng.NextDouble() * 1000) + ")")
                      .ok());
    }
    ASSERT_TRUE(db.Execute("UPDATE accounts SET balance = balance * 2.0 "
                           "WHERE region = 'eu'")
                    .ok());
    ASSERT_TRUE(db.Execute("DELETE FROM accounts WHERE balance < 100.0").ok());
    db.MergeAll();
    for (const std::string& q : queries) {
      auto r = db.Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      original.push_back(std::move(r).value());
    }
  }

  // Recover into a fresh database from the log and re-run every query.
  Database recovered;
  ASSERT_TRUE(recovered.Execute(create).ok());
  auto report = recovered.RecoverFromCheckpointStore({}, wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->stats.truncated_tail);

  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = recovered.Execute(queries[q]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), original[q].rows.size()) << queries[q];
    for (size_t i = 0; i < r->rows.size(); ++i) {
      ASSERT_EQ(r->rows[i].size(), original[q].rows[i].size());
      for (size_t c = 0; c < r->rows[i].size(); ++c) {
        EXPECT_EQ(r->rows[i][c].ToString(), original[q].rows[i][c].ToString())
            << queries[q] << " row " << i << " col " << c;
      }
    }
  }
}

TEST(IntegrationTest, SnapshotStableWhileMergesAndWritesProceed) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, "
                         "PRIMARY KEY (id)) FORMAT COLUMN")
                  .ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 1)")
                    .ok());
  }
  // Open a long-running snapshot.
  auto long_txn = db.txn_manager()->Begin();
  auto before = db.ExecuteIn(long_txn.get(), "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows[0][0].AsInt64(), 100);

  // Concurrent writes and merges.
  for (int64_t i = 100; i < 200; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 1)")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id < 50").ok());
  db.MergeAll();
  db.MergeAll();

  // The long transaction still sees exactly its snapshot.
  auto after = db.ExecuteIn(long_txn.get(), "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt64(), 100);

  // A fresh transaction sees the new world.
  auto fresh = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0].AsInt64(), 150);
  db.txn_manager()->Commit(long_txn.get());
}

}  // namespace
}  // namespace oltap
