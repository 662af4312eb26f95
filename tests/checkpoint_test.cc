#include <gtest/gtest.h>

#include "txn/checkpoint.h"

#include "common/rng.h"
#include "sql/session.h"

namespace oltap {
namespace {

std::string CreateSql() {
  return "CREATE TABLE t (id BIGINT NOT NULL, tag TEXT, v DOUBLE, "
         "PRIMARY KEY (id)) FORMAT COLUMN";
}

// Restores `image` into `db` as recovery does: replays the image's stream.
Result<Wal::ReplayStats> Restore(const std::string& image, Database* db) {
  Timestamp ts = 0;
  std::string_view stream;
  OLTAP_RETURN_NOT_OK(CheckpointStream(image, &ts, &stream));
  return Wal::Replay(stream, db->catalog());
}

TEST(CheckpointTest, RoundTripRestoresVisibleState) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  Rng rng(1);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'x', " + std::to_string(rng.NextDouble()) + ")")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id < 20").ok());
  db.MergeAll();

  Timestamp ts = db.txn_manager()->oracle()->CurrentReadTs();
  auto checkpoint = WriteCheckpoint(*db.catalog(), ts);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  Database restored;
  ASSERT_TRUE(restored.Execute(CreateSql()).ok());
  auto stats = Restore(*checkpoint, &restored);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->ops_applied, 180u);
  restored.txn_manager()->AdvanceTo(stats->max_commit_ts);

  auto original = db.Execute("SELECT COUNT(*), SUM(v) FROM t");
  auto recovered = restored.Execute("SELECT COUNT(*), SUM(v) FROM t");
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->rows[0][0].AsInt64(),
            original->rows[0][0].AsInt64());
  EXPECT_DOUBLE_EQ(recovered->rows[0][1].AsDouble(),
                   original->rows[0][1].AsDouble());
}

TEST(CheckpointTest, CheckpointPlusWalTailRecovery) {
  Wal wal;
  std::string checkpoint;
  Timestamp checkpoint_ts = 0;
  std::vector<Row> expected;
  {
    Database db(&wal);
    ASSERT_TRUE(db.Execute(CreateSql()).ok());
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", 'pre', 1.0)")
                      .ok());
    }
    checkpoint_ts = db.txn_manager()->oracle()->CurrentReadTs();
    auto ck = WriteCheckpoint(*db.catalog(), checkpoint_ts);
    ASSERT_TRUE(ck.ok()) << ck.status().ToString();
    checkpoint = std::move(ck).value();

    // Post-checkpoint activity lives only in the WAL tail.
    ASSERT_TRUE(db.Execute("UPDATE t SET tag = 'post' WHERE id < 10").ok());
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id >= 90").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (500, 'tail', 2.0)").ok());
    auto r = db.Execute("SELECT id, tag, v FROM t ORDER BY id");
    ASSERT_TRUE(r.ok());
    expected = r->rows;
  }

  // One image, no manifest: recovery scans the images and picks it.
  CheckpointStore store;
  store.images.push_back({1, checkpoint_ts, checkpoint});
  Database recovered;
  ASSERT_TRUE(recovered.Execute(CreateSql()).ok());
  auto report = recovered.RecoverFromCheckpointStore(store, wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->checkpoint_id, 1u);
  EXPECT_EQ(report->checkpoint_ts, checkpoint_ts);
  EXPECT_EQ(report->tail_txns, 3u);

  auto r = recovered.Execute("SELECT id, tag, v FROM t ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t c = 0; c < expected[i].size(); ++c) {
      EXPECT_EQ(r->rows[i][c].ToString(), expected[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
}

TEST(CheckpointTest, SnapshotConsistentDespiteLaterWrites) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'a', 1.0)")
                    .ok());
  }
  Timestamp ts = db.txn_manager()->oracle()->CurrentReadTs();
  // Writes after `ts` must not leak into the checkpoint.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (999, 'late', 9.0)").ok());
  auto checkpoint = WriteCheckpoint(*db.catalog(), ts);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  Database restored;
  ASSERT_TRUE(restored.Execute(CreateSql()).ok());
  auto stats = Restore(*checkpoint, &restored);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ops_applied, 50u);
}

TEST(CheckpointTest, TornCheckpointRejected) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a', 1.0)").ok());
  auto ck = WriteCheckpoint(*db.catalog(),
                            db.txn_manager()->oracle()->CurrentReadTs());
  ASSERT_TRUE(ck.ok());
  std::string checkpoint = std::move(ck).value();
  checkpoint.resize(checkpoint.size() / 2);
  Database restored;
  ASSERT_TRUE(restored.Execute(CreateSql()).ok());
  auto stats = Restore(checkpoint, &restored);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);

  // Recovery skips the torn image and replays the (empty) log instead.
  CheckpointStore store;
  store.images.push_back({1, 0, checkpoint});
  auto report = restored.RecoverFromCheckpointStore(store, "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fallbacks, 1u);
  EXPECT_EQ(report->checkpoint_id, 0u);
  EXPECT_EQ(restored.catalog()->GetTable("t")->CountVisible(1'000'000), 0u);
}

// --- DDL records (recovery from an empty catalog) ------------------------

TEST(CheckpointTest, RestoreIntoEmptyCatalogCreatesTables) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE r (k INT NOT NULL, s TEXT, "
                         "PRIMARY KEY (k)) FORMAT ROW")
                  .ok());
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'x', 1.5)")
                    .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO r VALUES (" + std::to_string(i) +
                           ", 'y')")
                    .ok());
  }
  auto checkpoint = WriteCheckpoint(*db.catalog(),
                                    db.txn_manager()->oracle()->CurrentReadTs());
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  // No CREATE TABLE on the restore side: the image's CREATE TABLE records
  // rebuild both tables, formats included.
  Database restored;
  ASSERT_TRUE(restored.catalog()->TableNames().empty());
  auto stats = Restore(*checkpoint, &restored);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(restored.catalog()->TableNames().size(), 2u);
  restored.txn_manager()->AdvanceTo(stats->max_commit_ts);

  ASSERT_NE(restored.catalog()->GetTable("t"), nullptr);
  ASSERT_NE(restored.catalog()->GetTable("r"), nullptr);
  EXPECT_EQ(restored.catalog()->GetTable("t")->format(), TableFormat::kColumn);
  EXPECT_EQ(restored.catalog()->GetTable("r")->format(), TableFormat::kRow);
  auto n = restored.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt64(), 30);
  // The recreated table is fully usable, keys included.
  EXPECT_FALSE(restored.Execute("INSERT INTO r VALUES (5, 'dup')").ok());
}

TEST(CheckpointTest, SchemaMismatchRejectedBeforeAnyData) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a', 1.0)").ok());
  auto checkpoint = WriteCheckpoint(*db.catalog(),
                                    db.txn_manager()->oracle()->CurrentReadTs());
  ASSERT_TRUE(checkpoint.ok());

  // Same table name, divergent schema: the restore must refuse up front
  // rather than splice checkpoint rows into the wrong shape.
  Database restored;
  ASSERT_TRUE(restored
                  .Execute("CREATE TABLE t (id BIGINT NOT NULL, other INT, "
                           "PRIMARY KEY (id)) FORMAT COLUMN")
                  .ok());
  auto stats = Restore(*checkpoint, &restored);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
  auto n = restored.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt64(), 0);  // untouched
}

TEST(CheckpointTest, ViewDdlsTravelInImageWithBackingTablesExcluded) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'g', 2.0)")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW tv AS "
                         "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag")
                  .ok());

  const std::vector<WalOp> views = db.view_manager()->ViewDdls();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].kind, WalOp::kCreateView);
  EXPECT_EQ(views[0].table, "tv");
  auto checkpoint = WriteCheckpoint(
      *db.catalog(), db.txn_manager()->oracle()->CurrentReadTs(), views);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  Database restored;
  auto stats = Restore(*checkpoint, &restored);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The view record rides along; the view's backing table does not.
  ASSERT_EQ(stats->view_ddls.size(), 1u);
  EXPECT_EQ(stats->view_ddls[0], views[0].key);
  EXPECT_NE(restored.catalog()->GetTable("t"), nullptr);
  EXPECT_EQ(restored.catalog()->GetTable("tv"), nullptr);
}

// --- Checkpoint chain: manifest + recovery-image selection ----------------

CheckpointStore::Image ImageWithRows(Database* db, uint64_t id, int64_t lo,
                                     int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    EXPECT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 'm', 1.0)")
                    .ok());
  }
  Timestamp ts = db->txn_manager()->oracle()->CurrentReadTs();
  auto ck = WriteCheckpoint(*db->catalog(), ts);
  EXPECT_TRUE(ck.ok());
  return CheckpointStore::Image{id, ts, std::move(ck).value()};
}

CheckpointStore TwoImageStore(Database* db) {
  CheckpointStore store;
  store.images.push_back(ImageWithRows(db, 1, 0, 10));
  store.images.push_back(ImageWithRows(db, 2, 10, 20));
  std::vector<CheckpointManifestEntry> entries;
  for (const CheckpointStore::Image& img : store.images) {
    CheckpointManifestEntry e;
    e.id = img.id;
    e.ts = img.ts;
    e.checksum = CheckpointChecksum(img.data);
    e.bytes = img.data.size();
    entries.push_back(e);
  }
  store.manifest = SerializeManifest(entries);
  return store;
}

TEST(CheckpointTest, ManifestRoundTripAndTearDetection) {
  std::vector<CheckpointManifestEntry> entries(2);
  entries[0] = CheckpointManifestEntry{1, 100, 0xdeadbeef, 4096};
  entries[1] = CheckpointManifestEntry{2, 200, 0xfeedface, 8192};
  std::string data = SerializeManifest(entries);

  auto parsed = ParseManifest(data);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].id, 2u);
  EXPECT_EQ((*parsed)[1].ts, 200u);
  EXPECT_EQ((*parsed)[1].checksum, 0xfeedfaceu);
  EXPECT_EQ((*parsed)[1].bytes, 8192u);

  // A tear anywhere fails the self-checksum.
  std::string torn = data.substr(0, data.size() - 3);
  auto bad = ParseManifest(torn);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  // So does a bit flip.
  std::string flipped = data;
  flipped[data.size() / 2] ^= 0x40;
  EXPECT_FALSE(ParseManifest(flipped).ok());
}

TEST(CheckpointTest, SelectRecoveryImagePrefersNewestManifestEntry) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  CheckpointStore store = TwoImageStore(&db);
  size_t fallbacks = 99;
  auto image = SelectRecoveryImage(store, &fallbacks);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->id, 2u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST(CheckpointTest, TornNewestImageFallsBackToOlderEntry) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  CheckpointStore store = TwoImageStore(&db);
  // Tear the newest image on "disk"; the manifest still endorses it, but
  // selection verifies the checksum and falls back.
  store.images[1].data.resize(store.images[1].data.size() / 2);
  size_t fallbacks = 0;
  auto image = SelectRecoveryImage(store, &fallbacks);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->id, 1u);
  EXPECT_GE(fallbacks, 1u);

  // The survivor actually restores.
  Database restored;
  auto stats = Restore(image->data, &restored);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ops_applied, 10u);
}

TEST(CheckpointTest, TornManifestFallsBackToImageScan) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  CheckpointStore store = TwoImageStore(&db);
  store.manifest.resize(store.manifest.size() - 5);
  size_t fallbacks = 0;
  auto image = SelectRecoveryImage(store, &fallbacks);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->id, 2u);  // newest valid image wins even without manifest
  EXPECT_GE(fallbacks, 1u);
}

TEST(CheckpointTest, NoUsableImageReportsNotFound) {
  Database db;
  ASSERT_TRUE(db.Execute(CreateSql()).ok());
  CheckpointStore store = TwoImageStore(&db);
  for (auto& img : store.images) img.data.resize(img.data.size() / 2);
  auto image = SelectRecoveryImage(store);
  ASSERT_FALSE(image.ok());
  EXPECT_TRUE(image.status().IsNotFound()) << image.status().ToString();

  CheckpointStore empty;
  EXPECT_TRUE(SelectRecoveryImage(empty).status().IsNotFound());
}

}  // namespace
}  // namespace oltap
