#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "storage/row.h"
#include "txn/checkpoint.h"
#include "txn/checkpoint_daemon.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

constexpr Timestamp kFarFuture = 1'000'000'000;

const char* kTables[] = {"warehouse", "district",  "customer",
                         "history",   "neworder",  "orders",
                         "orderline", "item",      "stock"};

// Order-independent rendering of every committed row of every TPC-C
// table and of the named extra tables (views' backing tables, tables
// created by SQL): identical committed state => identical fingerprint.
std::map<std::string, std::vector<std::string>> Fingerprint(
    Database* db, const std::vector<std::string>& extra) {
  std::vector<std::string> names(std::begin(kTables), std::end(kTables));
  names.insert(names.end(), extra.begin(), extra.end());
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& name : names) {
    const Table* table = db->catalog()->GetTable(name);
    std::vector<std::string>& rows = out[name];
    if (table == nullptr) continue;  // a missing table renders empty
    table->ScanVisible(kFarFuture, [&](const Row& row) {
      rows.push_back(RowToString(row));
    });
    std::sort(rows.begin(), rows.end());
  }
  return out;
}

void ExpectSameState(Database* got, Database* want, const std::string& label,
                     const std::vector<std::string>& extra = {}) {
  auto a = Fingerprint(got, extra);
  auto b = Fingerprint(want, extra);
  for (const auto& [name, rows] : b) {
    ASSERT_EQ(a[name].size(), rows.size())
        << label << ": row count diverges in " << name;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(a[name][i], rows[i])
          << label << ": row " << i << " diverges in " << name;
    }
  }
}

CHConfig TinyConfig() {
  CHConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 10;
  config.items = 50;
  config.initial_orders_per_district = 5;
  return config;
}

// A checkpoint taken in the middle of a concurrent TPC-C run must not
// change what recovery produces: every retained image + the (untruncated)
// WAL, and the WAL alone, all land on byte-identical committed state.
TEST(CheckpointEquivalenceTest, CheckpointedRecoveryMatchesFullReplay) {
  Wal wal;
  Database db(&wal);
  CHBenchmark bench(&db, TinyConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());

  DriverOptions opts;
  opts.oltp_workers = 4;
  opts.olap_workers = 1;
  opts.ops_per_worker = 150;
  opts.seed = 23;
  opts.merge_delta_threshold = 128;
  opts.merge_interval_ms = 1;
  opts.group_commit = true;  // checkpoints ride over the group-commit path
  opts.run_checkpoint_daemon = true;
  opts.checkpoint_interval_us = 2'000;
  // Keep the whole log so the same WAL recovers with and without a
  // checkpoint — the comparison this test exists for.
  opts.checkpoint_truncate_wal = false;

  ConcurrentDriver driver(&bench, opts);
  DriverReport report = driver.Run();
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  ASSERT_GE(report.checkpoints, 1u) << "driver finished before any round";
  EXPECT_EQ(report.wal_truncated_bytes, 0u);

  CheckpointStore store = db.checkpointer()->StoreCopy();
  ASSERT_FALSE(store.images.empty());

  // Reference: recovery with no checkpoint at all. The bulk load bypasses
  // the WAL, so a full replay starts from a re-loaded benchmark.
  Database full;
  {
    CHBenchmark fresh(&full, TinyConfig());
    ASSERT_TRUE(fresh.CreateTables().ok());
    ASSERT_TRUE(fresh.Load().ok());
    auto rec = full.RecoverFromCheckpointStore({}, wal.buffer());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  }
  ExpectSameState(&full, &db, "full replay vs live");

  // Every retained image is a valid starting point: image + tail ==
  // full replay, byte for byte, for each chain position.
  for (const CheckpointStore::Image& img : store.images) {
    CheckpointStore one;
    one.images.push_back(img);
    CheckpointManifestEntry e;
    e.id = img.id;
    e.ts = img.ts;
    e.checksum = CheckpointChecksum(img.data);
    e.bytes = img.data.size();
    one.manifest = SerializeManifest({e});

    Database recovered;  // empty catalog: the image carries the schemas
    auto rec = recovered.RecoverFromCheckpointStore(one, wal.buffer());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->checkpoint_id, img.id);
    EXPECT_EQ(rec->checkpoint_ts, img.ts);
    ExpectSameState(&recovered, &db,
                    "image " + std::to_string(img.id) + " + tail");
  }

  // And the daemon's own store (newest image via the manifest) agrees.
  Database newest;
  auto rec = newest.RecoverFromCheckpointStore(store, wal.buffer());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->fallbacks, 0u);
  ExpectSameState(&newest, &db, "manifest-selected image + tail");
}

// With truncation ON, the retained tail after the run still completes
// recovery from the newest checkpoint — truncation never outruns what the
// chain can serve.
TEST(CheckpointEquivalenceTest, TruncatedWalStillRecoversFromChain) {
  Wal::Options wopts;
  wopts.segment_bytes = 16 * 1024;
  Wal wal(wopts);
  Database db(&wal);
  CHBenchmark bench(&db, TinyConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());

  DriverOptions opts;
  opts.oltp_workers = 4;
  opts.olap_workers = 0;
  opts.ops_per_worker = 150;
  opts.seed = 29;
  opts.merge_delta_threshold = 128;
  opts.merge_interval_ms = 1;
  opts.run_checkpoint_daemon = true;
  opts.checkpoint_interval_us = 2'000;
  opts.checkpoint_truncate_wal = true;

  ConcurrentDriver driver(&bench, opts);
  DriverReport report = driver.Run();
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  ASSERT_GE(report.checkpoints, 1u);

  Database recovered;
  auto rec = recovered.RecoverFromCheckpointStore(
      db.checkpointer()->StoreCopy(), wal.buffer());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectSameState(&recovered, &db, "truncated tail");
}

// The store shapes one live run can be recovered through: empty (full
// replay over the re-loaded benchmark), each retained image alone, and
// the manifest's choice.
std::vector<std::pair<std::string, CheckpointStore>> StoreShapes(
    const CheckpointStore& store) {
  std::vector<std::pair<std::string, CheckpointStore>> stores;
  stores.push_back({"empty store", CheckpointStore{}});
  for (const CheckpointStore::Image& img : store.images) {
    CheckpointStore one;
    one.images.push_back(img);
    stores.push_back({"image " + std::to_string(img.id), std::move(one)});
  }
  stores.push_back({"manifest-selected image", store});
  return stores;
}

// Differential recovery: one live run with a SYNC and a DEFERRED view,
// recovered through every store shape, each serially (null pool) and on a
// 4-thread pool. Every recovery must land on the live state byte for
// byte, views included.
TEST(CheckpointEquivalenceTest, EveryStoreAndPoolRecoversLiveStateWithViews) {
  const std::vector<std::string> kViewDdls = {
      "CREATE MATERIALIZED VIEW ol_wd_sync SYNC AS "
      "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
      "FROM orderline GROUP BY ol_w_id, ol_d_id",
      "CREATE MATERIALIZED VIEW ol_w_deferred DEFERRED AS "
      "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
      "FROM orderline GROUP BY ol_w_id"};
  const std::vector<std::string> kViews = {"ol_wd_sync", "ol_w_deferred"};

  Wal wal;
  Database db(&wal);
  CHBenchmark bench(&db, TinyConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());
  for (const std::string& ddl : kViewDdls) {
    ASSERT_TRUE(db.Execute(ddl).ok()) << ddl;
  }

  DriverOptions opts;
  opts.oltp_workers = 4;
  opts.olap_workers = 0;
  opts.ops_per_worker = 150;
  opts.seed = 31;
  opts.merge_delta_threshold = 128;
  opts.merge_interval_ms = 1;
  opts.run_checkpoint_daemon = true;
  opts.checkpoint_interval_us = 2'000;
  opts.checkpoint_truncate_wal = false;  // the empty store replays it all

  ConcurrentDriver driver(&bench, opts);
  DriverReport report = driver.Run();
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  ASSERT_GE(report.checkpoints, 1u);
  db.view_manager()->MaintainAll();  // the DEFERRED view catches up

  const CheckpointStore store = db.checkpointer()->StoreCopy();
  ASSERT_FALSE(store.images.empty());

  ThreadPool pool(4);
  for (const auto& [name, candidate] : StoreShapes(store)) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string label =
          name + (p == nullptr ? ", serial" : ", 4-thread pool");
      SCOPED_TRACE(label);
      Database recovered;
      if (candidate.images.empty()) {
        // No image: the bulk load (not logged) comes first; the views come
        // back from their WAL records.
        CHBenchmark fresh(&recovered, TinyConfig());
        ASSERT_TRUE(fresh.CreateTables().ok());
        ASSERT_TRUE(fresh.Load().ok());
      }
      auto rec = recovered.RecoverFromCheckpointStore(candidate, wal.buffer(),
                                                      p);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_EQ(rec->checkpoint_id == 0, candidate.images.empty());
      for (const std::string& view : kViews) {
        EXPECT_TRUE(recovered.view_manager()->IsView(view)) << view;
      }
      ExpectSameState(&recovered, &db, label, kViews);
    }
  }
}

// DDL after the newest image: a table created by SQL (with rows) and a
// SYNC and a DEFERRED view created once the last checkpoint is taken live
// only in the WAL tail. Every store shape, serial and pooled, recovers
// them byte for byte, and a second recovery over the same database
// changes no keyed table.
TEST(CheckpointEquivalenceTest, DdlAfterNewestImageRecoversOnEveryStoreShape) {
  const std::vector<std::string> kExtra = {"u", "u_by_w", "ol_w_deferred"};
  Wal wal;
  Database db(&wal);
  CHBenchmark bench(&db, TinyConfig());
  ASSERT_TRUE(bench.CreateTables().ok());
  ASSERT_TRUE(bench.Load().ok());

  DriverOptions opts;
  opts.oltp_workers = 4;
  opts.olap_workers = 0;
  opts.ops_per_worker = 100;
  opts.seed = 37;
  opts.merge_delta_threshold = 128;
  opts.merge_interval_ms = 1;
  opts.run_checkpoint_daemon = true;
  opts.checkpoint_interval_us = 2'000;
  opts.checkpoint_truncate_wal = false;  // the empty store replays it all
  {
    ConcurrentDriver driver(&bench, opts);
    DriverReport report = driver.Run();
    ASSERT_FALSE(report.aborted) << report.abort_reason;
  }
  // The newest image; everything below happens after it.
  ASSERT_TRUE(db.Execute("CHECKPOINT").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE u (k BIGINT NOT NULL, w BIGINT, "
                         "note TEXT, PRIMARY KEY (k)) FORMAT COLUMN")
                  .ok());
  for (int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(db.Execute("INSERT INTO u VALUES (" + std::to_string(k) +
                           ", " + std::to_string(k % 3) + ", 'n" +
                           std::to_string(k) + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW u_by_w SYNC AS "
                         "SELECT w, COUNT(*) AS n, SUM(k) AS ks "
                         "FROM u GROUP BY w")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW ol_w_deferred DEFERRED AS "
                         "SELECT ol_w_id, COUNT(*) AS n, "
                         "SUM(ol_quantity) AS qty "
                         "FROM orderline GROUP BY ol_w_id")
                  .ok());
  ASSERT_TRUE(db.Execute("UPDATE u SET note = 'late' WHERE k < 10").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM u WHERE k >= 35").ok());
  opts.run_checkpoint_daemon = false;
  opts.seed = 41;
  {
    ConcurrentDriver driver(&bench, opts);
    DriverReport report = driver.Run();
    ASSERT_FALSE(report.aborted) << report.abort_reason;
  }
  db.view_manager()->MaintainAll();  // the DEFERRED view catches up

  const CheckpointStore store = db.checkpointer()->StoreCopy();
  ASSERT_FALSE(store.images.empty());
  ThreadPool pool(4);
  for (const auto& [name, candidate] : StoreShapes(store)) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string label =
          name + (p == nullptr ? ", serial" : ", 4-thread pool");
      SCOPED_TRACE(label);
      Database recovered;
      if (candidate.images.empty()) {
        CHBenchmark fresh(&recovered, TinyConfig());  // the unlogged load
        ASSERT_TRUE(fresh.CreateTables().ok());
        ASSERT_TRUE(fresh.Load().ok());
      }
      auto rec = recovered.RecoverFromCheckpointStore(candidate, wal.buffer(),
                                                      p);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_TRUE(recovered.view_manager()->IsView("u_by_w"));
      EXPECT_TRUE(recovered.view_manager()->IsView("ol_w_deferred"));
      ExpectSameState(&recovered, &db, label, kExtra);

      // A second run over the same database: every keyed table (all but
      // history) and both views stay as they are.
      auto before = Fingerprint(&recovered, kExtra);
      auto again = recovered.RecoverFromCheckpointStore(candidate,
                                                        wal.buffer(), p);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      auto after = Fingerprint(&recovered, kExtra);
      before.erase("history");
      after.erase("history");
      EXPECT_EQ(after, before) << label << ": second run changed state";
    }
  }
}

// A database whose every table came from SQL needs no pre-created tables:
// full replay of its WAL into an empty Database rebuilds the catalog, the
// rows and the view.
TEST(CheckpointEquivalenceTest, FullReplayIntoEmptyDatabase) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute("CREATE TABLE a (id BIGINT NOT NULL, g BIGINT, "
                         "v DOUBLE, PRIMARY KEY (id)) FORMAT DUAL")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE b (id BIGINT NOT NULL, s TEXT, "
                         "PRIMARY KEY (id)) FORMAT ROW")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW a_by_g SYNC AS "
                         "SELECT g, COUNT(*) AS n, SUM(v) AS sv "
                         "FROM a GROUP BY g")
                  .ok());
  for (int64_t i = 0; i < 60; ++i) {
    const std::string id = std::to_string(i);
    ASSERT_TRUE(db.Execute("INSERT INTO a VALUES (" + id + ", " +
                           std::to_string(i % 4) + ", " + id + ".5)")
                    .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO b VALUES (" + id + ", 's" + id + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("UPDATE a SET v = 0.25 WHERE id < 15").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM b WHERE id >= 50").ok());

  auto dump = [](Database* d, const std::string& sql) {
    auto r = d->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> rows;
    if (r.ok()) {
      for (const Row& row : r->rows) rows.push_back(RowToString(row));
    }
    return rows;
  };
  const std::vector<std::string> queries = {
      "SELECT id, g, v FROM a ORDER BY id", "SELECT id, s FROM b ORDER BY id",
      "SELECT g, n, sv FROM a_by_g ORDER BY g"};
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Database recovered;
    ASSERT_TRUE(recovered.catalog()->TableNames().empty());
    auto rec = recovered.RecoverFromCheckpointStore({}, wal.buffer(), p);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->checkpoint_id, 0u);
    EXPECT_EQ(recovered.catalog()->GetTable("a")->format(), TableFormat::kDual);
    EXPECT_EQ(recovered.catalog()->GetTable("b")->format(), TableFormat::kRow);
    ASSERT_TRUE(recovered.view_manager()->IsView("a_by_g"));
    EXPECT_FALSE(recovered.catalog()->GetTable("a_by_g")->logged());
    for (const std::string& q : queries) {
      EXPECT_EQ(dump(&recovered, q), dump(&db, q)) << q;
    }
  }
}

}  // namespace
}  // namespace oltap
