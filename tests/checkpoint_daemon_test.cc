#include "txn/checkpoint_daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "failpoint_fixture.h"
#include "sched/merge_daemon.h"
#include "sql/session.h"
#include "txn/checkpoint.h"
#include "txn/log_writer.h"
#include "wal_record.h"

namespace oltap {
namespace {

constexpr char kCreateSql[] =
    "CREATE TABLE t (id BIGINT NOT NULL, tag TEXT, v DOUBLE, "
    "PRIMARY KEY (id)) FORMAT COLUMN";

void InsertRange(Database* db, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 'd', 1.0)")
                    .ok());
  }
}

// Adds table t (kCreateSql's shape) without logging its creation: with no
// commit in the WAL the watermark stays at 0, so bulk-loaded rows alone
// give a ts-0 image.
void AddUnloggedTable(Database* db) {
  ASSERT_TRUE(db->catalog()
                  ->AddTable(std::make_unique<Table>(
                      "t",
                      SchemaBuilder()
                          .AddInt64("id", false)
                          .AddString("tag")
                          .AddDouble("v")
                          .SetKey({"id"})
                          .Build(),
                      TableFormat::kColumn))
                  .ok());
}

int64_t CountRows(Database* db) {
  auto r = db->Execute("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->rows[0][0].AsInt64() : -1;
}

class CheckpointDaemonTest : public FailpointTest {};

TEST_F(CheckpointDaemonTest, CheckpointNowBuildsChainAndManifest) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 50);

  CheckpointDaemon* d = db.EnsureCheckpointer();
  auto r1 = d->CheckpointNow();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->id, 1u);
  EXPECT_GT(r1->ts, 0u);
  EXPECT_GT(r1->bytes, 0u);
  EXPECT_EQ(d->last_checkpoint_ts(), r1->ts);

  InsertRange(&db, 50, 80);
  auto r2 = d->CheckpointNow();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->id, 2u);
  EXPECT_GT(r2->ts, r1->ts);

  // The default chain keeps two images; a third round evicts the oldest.
  InsertRange(&db, 80, 90);
  auto r3 = d->CheckpointNow();
  ASSERT_TRUE(r3.ok());

  CheckpointStore store = d->StoreCopy();
  ASSERT_EQ(store.images.size(), 2u);
  EXPECT_EQ(store.images[0].id, 2u);  // oldest first
  EXPECT_EQ(store.images[1].id, 3u);
  auto manifest = ParseManifest(store.manifest);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->size(), 2u);
  for (size_t i = 0; i < manifest->size(); ++i) {
    EXPECT_EQ((*manifest)[i].id, store.images[i].id);
    EXPECT_EQ((*manifest)[i].checksum,
              CheckpointChecksum(store.images[i].data));
    EXPECT_EQ((*manifest)[i].bytes, store.images[i].data.size());
  }
  EXPECT_EQ(d->stats().written, 3u);
}

TEST_F(CheckpointDaemonTest, TruncatesWalSegmentsBelowCheckpoint) {
  Wal::Options wopts;
  wopts.segment_bytes = 256;
  Wal wal(wopts);
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 200);
  ASSERT_GT(wal.num_segments(), 3u);
  const uint64_t before = wal.size();

  CheckpointDaemon* d = db.EnsureCheckpointer();
  auto r = d->CheckpointNow();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->wal_truncated, 0u);
  EXPECT_LT(wal.size(), before);
  EXPECT_EQ(d->stats().truncated_bytes, r->wal_truncated);

  // Checkpoint + retained tail is still a complete recovery story.
  Database recovered;
  auto report = recovered.RecoverFromCheckpointStore(d->StoreCopy(),
                                                     wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->checkpoint_ts, r->ts);
  EXPECT_EQ(report->fallbacks, 0u);
  EXPECT_EQ(CountRows(&recovered), 200);
}

// Regression: a checkpoint whose snapshot predates the first commit
// (ts 0 — the database holds only bulk-loaded state, which bypasses the
// WAL and never advances the watermark) stamps its records at ts 0.
// The replay-based restore used to skip those records because
// skip_through_ts=0 was treated as "already covered", recovering an
// empty database; the live tail then failed against missing rows.
TEST_F(CheckpointDaemonTest, TimestampZeroCheckpointRestoresBulkLoadedState) {
  Wal wal;
  Database db(&wal);
  AddUnloggedTable(&db);
  Table* t = db.catalog()->GetTable("t");
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back(
        Row{Value::Int64(i), Value::String("bulk"), Value::Double(1.0)});
  }
  ASSERT_TRUE(t->BulkLoadToMain(rows, 0).ok());

  CheckpointDaemon* d = db.EnsureCheckpointer();
  auto r = d->CheckpointNow();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ts, 0u);

  // Commits after the ts-0 image land in the tail.
  InsertRange(&db, 64, 72);

  Database recovered;
  auto report = recovered.RecoverFromCheckpointStore(d->StoreCopy(),
                                                     wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->checkpoint_ts, 0u);
  EXPECT_EQ(CountRows(&recovered), 72);
}

// Sorted rendering of a query's rows.
std::vector<std::string> Rows(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> out;
  if (r.ok()) {
    for (const Row& row : r->rows) out.push_back(RowToString(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Recovery that crashes partway can simply run again: a second
// RecoverFromCheckpointStore over the same database succeeds, applies
// nothing and leaves identical rows — for a keyed table with a view over
// it, and for a ts-0 image, whose rows carry the same timestamp (0) that
// LastWriteTs reports for a key never written.
TEST_F(CheckpointDaemonTest, RecoveryRerunsOverTheSameDatabase) {
  const std::string kBase = "SELECT * FROM t";
  const std::string kView = "SELECT * FROM agg";
  {
    Wal wal;
    Database db(&wal);
    ASSERT_TRUE(db.Execute(kCreateSql).ok());
    InsertRange(&db, 0, 30);
    ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW agg AS "
                           "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag")
                    .ok());
    CheckpointDaemon* d = db.EnsureCheckpointer();
    ASSERT_TRUE(d->CheckpointNow().ok());
    InsertRange(&db, 30, 40);  // tail beyond the checkpoint
    ASSERT_TRUE(db.Execute("UPDATE t SET tag = 'u' WHERE id < 5").ok());
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id >= 35").ok());

    Database recovered;
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE("keyed table + view, run " + std::to_string(run));
      auto report =
          recovered.RecoverFromCheckpointStore(d->StoreCopy(), wal.buffer());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_GT(report->checkpoint_id, 0u);
      if (run == 1) {
        EXPECT_EQ(report->stats.ops_applied, 0u);
      }
      EXPECT_EQ(Rows(&recovered, kBase), Rows(&db, kBase));
      EXPECT_EQ(Rows(&recovered, kView), Rows(&db, kView));
    }
  }
  {
    Wal wal;
    Database db(&wal);
    AddUnloggedTable(&db);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 64; ++i) {
      rows.push_back(
          Row{Value::Int64(i), Value::String("bulk"), Value::Double(1.0)});
    }
    ASSERT_TRUE(db.catalog()->GetTable("t")->BulkLoadToMain(rows, 0).ok());
    CheckpointDaemon* d = db.EnsureCheckpointer();
    auto r = d->CheckpointNow();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->ts, 0u);
    InsertRange(&db, 64, 72);
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id < 4").ok());

    Database recovered;
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE("ts-0 image, run " + std::to_string(run));
      auto report =
          recovered.RecoverFromCheckpointStore(d->StoreCopy(), wal.buffer());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->checkpoint_ts, 0u);
      EXPECT_EQ(report->stats.ops_applied, run == 0 ? 64u + 8u + 4u : 0u);
      EXPECT_EQ(CountRows(&recovered), 68);
      EXPECT_EQ(Rows(&recovered, kBase), Rows(&db, kBase));
    }
  }
}

TEST_F(CheckpointDaemonTest, ActiveSnapshotPinsTruncationHorizon) {
  Wal::Options wopts;
  wopts.segment_bytes = 256;
  Wal wal(wopts);
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());

  // An analytical reader opens a snapshot before any data lands. Until it
  // closes, every segment's high-water mark is above the pinned horizon.
  std::unique_ptr<Transaction> reader = db.txn_manager()->Begin();
  InsertRange(&db, 0, 200);
  const uint64_t before = wal.size();

  CheckpointDaemon* d = db.EnsureCheckpointer();
  auto r = d->CheckpointNow();
  ASSERT_TRUE(r.ok());
  EXPECT_LE(d->PinnedHorizon(), reader->begin_ts());
  EXPECT_EQ(r->wal_truncated, 0u);
  EXPECT_EQ(wal.size(), before);

  // Release the pin: the next round truncates.
  db.txn_manager()->Abort(reader.get());
  reader.reset();
  auto r2 = d->CheckpointNow();
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->wal_truncated, 0u);
}

TEST_F(CheckpointDaemonTest, UnackedGroupCommitBatchPinsHorizon) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 10);

  // A leader held before it writes keeps a queued-but-unacked commit;
  // its commit timestamp must bound the horizon so no truncation outruns
  // an acknowledgement that never happened.
  LogWriter::Options lw_opts;
  lw_opts.max_batch = 64;
  LogWriter writer(&wal, lw_opts);
  db.txn_manager()->SetLogWriter(&writer);

  const Timestamp pending_ts = 5;  // below every live timestamp
  FailpointGate gate;
  ScopedFailpoint hold("logwriter.lead", gate.Config());
  Status pending;
  std::thread committer([&] {
    pending = writer.Commit(CommitRecord(
        99, pending_ts,
        {WalOp{WalOp::kInsert, "t", "",
               Row{Value::Int64(999), Value::String("p"),
                   Value::Double(0.0)}}}));
  });
  gate.AwaitArrivals(1);
  EXPECT_EQ(writer.MinPendingCommitTs(), pending_ts);

  CheckpointDaemon* d = db.EnsureCheckpointer();
  EXPECT_TRUE(d->CheckpointNow().ok());
  EXPECT_LE(d->PinnedHorizon(), pending_ts);

  gate.Open();
  committer.join();
  writer.Stop();
  EXPECT_TRUE(pending.ok());
  db.txn_manager()->SetLogWriter(nullptr);
}

TEST_F(CheckpointDaemonTest, TornImageNeverEndorsedAndRecoveryFallsBack) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 40);

  CheckpointDaemon* d = db.EnsureCheckpointer();
  ASSERT_TRUE(d->CheckpointNow().ok());

  InsertRange(&db, 40, 60);
  {
    FailpointConfig cfg;
    ScopedFailpoint armed("checkpoint.write.torn", cfg);
    auto r = d->CheckpointNow();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  EXPECT_EQ(d->stats().written, 1u);
  EXPECT_EQ(d->stats().failed, 1u);

  // The torn bytes sit in the chain, but the manifest only endorses the
  // first image, and recovery lands on it — replaying the longer tail.
  CheckpointStore store = d->StoreCopy();
  ASSERT_EQ(store.images.size(), 2u);
  EXPECT_FALSE(CheckpointIsValid(store.images[1].data));
  auto manifest = ParseManifest(store.manifest);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->size(), 1u);
  EXPECT_EQ((*manifest)[0].id, store.images[0].id);

  Database recovered;
  auto report = recovered.RecoverFromCheckpointStore(store, wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->checkpoint_id, store.images[0].id);
  EXPECT_EQ(CountRows(&recovered), 60);
}

TEST_F(CheckpointDaemonTest, TornManifestFallsBackToImageScanOnRecovery) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 30);

  CheckpointDaemon* d = db.EnsureCheckpointer();
  ASSERT_TRUE(d->CheckpointNow().ok());
  InsertRange(&db, 30, 50);
  {
    FailpointConfig cfg;
    ScopedFailpoint armed("checkpoint.manifest.torn", cfg);
    auto r = d->CheckpointNow();
    ASSERT_FALSE(r.ok());
  }

  CheckpointStore store = d->StoreCopy();
  EXPECT_FALSE(ParseManifest(store.manifest).ok());
  // Both images are intact; the scan path picks the newest.
  Database recovered;
  auto report = recovered.RecoverFromCheckpointStore(store, wal.buffer());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->fallbacks, 1u);
  EXPECT_EQ(report->checkpoint_id, store.images.back().id);
  EXPECT_EQ(CountRows(&recovered), 50);
}

TEST_F(CheckpointDaemonTest, DaemonCrashStopsThreadAndRestartRevives) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 10);

  CheckpointDaemon* d = db.EnsureCheckpointer();
  d->set_interval_us(1'000);
  {
    FailpointConfig cfg;
    ScopedFailpoint armed("checkpoint.daemon.crash", cfg);
    d->Start();
    for (int i = 0; i < 1000 && d->running(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(d->running());
    EXPECT_EQ(d->stats().crashes, 1u);
  }
  // While dead, explicit rounds still work (CHECKPOINT does not need the
  // thread), and Restart() brings the daemon back.
  EXPECT_TRUE(d->CheckpointNow().ok());
  ASSERT_TRUE(d->Restart().ok());
  EXPECT_TRUE(d->running());
  uint64_t base = d->stats().written;
  for (int i = 0; i < 2000 && d->stats().written == base; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(d->stats().written, base);
  d->Stop();
  EXPECT_FALSE(d->running());
}

TEST_F(CheckpointDaemonTest, WalByteTriggerFiresWithoutInterval) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());

  CheckpointDaemon* d = db.EnsureCheckpointer();
  d->set_interval_us(0);  // time trigger off
  d->set_wal_trigger_bytes(512);
  d->Start();
  InsertRange(&db, 0, 200);
  for (int i = 0; i < 2000 && d->stats().written == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d->Stop();
  EXPECT_GT(d->stats().written, 0u);
}

TEST_F(CheckpointDaemonTest, RecoveryRebuildsViewsFromCarriedDdl) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE u (tag TEXT NOT NULL, w BIGINT, "
                         "PRIMARY KEY (tag)) FORMAT COLUMN")
                  .ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO u VALUES ('d', 1), ('it''s', 2), ('x', 3)").ok());
  InsertRange(&db, 0, 40);
  // Doubles on both sides of the 7-significant-digit bound below; a
  // definition rendered at six decimals would move it to 0.123457.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1000, 'it''s', 0.1234569), "
                         "(1001, 'd', 0.1234565), (1002, 'x', 0.1234568)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW agg AS "
                         "SELECT tag, COUNT(*) AS n, SUM(v) AS s "
                         "FROM t GROUP BY tag")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW tj AS "
                         "SELECT t.id, u.tag, t.v, u.w FROM t "
                         "JOIN u ON t.tag = u.tag WHERE t.v > 0.1234567")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW tq DEFERRED AS "
                         "SELECT tag, COUNT(*) AS n FROM t "
                         "WHERE tag <> 'it''s' GROUP BY tag")
                  .ok());
  CheckpointDaemon* d = db.EnsureCheckpointer();
  ASSERT_TRUE(d->CheckpointNow().ok());
  InsertRange(&db, 40, 70);  // tail beyond the checkpoint
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1003, 'it''s', 0.5)").ok());
  db.view_manager()->MaintainAll();

  CheckpointDaemon::CrashImage crash = d->CaptureCrashImage();

  Database recovered;
  auto report = recovered.RecoverFromCheckpointStore(crash.store, crash.wal);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->tail_txns, 0u);

  for (const char* view : {"agg", "tj", "tq"}) {
    ASSERT_TRUE(recovered.view_manager()->IsView(view)) << view;
    const std::string sql = std::string("SELECT * FROM ") + view;
    auto want = db.Execute(sql);
    auto got = recovered.Execute(sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Each view's non-double columns form a key; order both sides by it,
    // then compare doubles to within 4 ULPs and every other cell exactly.
    auto by_key = [](const Row& a, const Row& b) {
      for (size_t c = 0; c < a.size(); ++c) {
        if (a[c].type() == ValueType::kDouble || a[c] == b[c]) continue;
        return a[c] < b[c];
      }
      return false;
    };
    std::sort(want->rows.begin(), want->rows.end(), by_key);
    std::sort(got->rows.begin(), got->rows.end(), by_key);
    ASSERT_EQ(got->rows.size(), want->rows.size()) << view;
    for (size_t r = 0; r < want->rows.size(); ++r) {
      const Row& w = want->rows[r];
      const Row& g = got->rows[r];
      ASSERT_EQ(g.size(), w.size()) << view;
      for (size_t c = 0; c < w.size(); ++c) {
        ASSERT_EQ(g[c].type(), w[c].type()) << view << " col " << c;
        ASSERT_EQ(g[c].is_null(), w[c].is_null()) << view << " col " << c;
        if (w[c].type() == ValueType::kDouble && !w[c].is_null()) {
          EXPECT_DOUBLE_EQ(g[c].AsDouble(), w[c].AsDouble())
              << view << " row " << r << " col " << c;
        } else {
          EXPECT_EQ(g[c], w[c]) << view << " row " << r << " col " << c;
        }
      }
    }
  }
}

// Satellite: a slow checkpoint must not dam up the delta store. The pin
// blocks version GC below the checkpoint timestamp, but merges keep
// folding delta rows into the main, so the delta stays bounded while the
// checkpoint scan crawls.
TEST_F(CheckpointDaemonTest, DeltaStaysBoundedDuringSlowCheckpoint) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  ASSERT_TRUE(db.Execute("CREATE MATERIALIZED VIEW agg DEFERRED AS "
                         "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag")
                  .ok());
  InsertRange(&db, 0, 100);

  MergeDaemon::Options mopts;
  mopts.delta_row_threshold = 1;
  mopts.autostart = false;
  MergeDaemon merger(db.catalog(), db.txn_manager(), mopts);
  merger.set_view_manager(db.view_manager());

  FailpointConfig stall;
  stall.max_fires = 0;  // every table scan sleeps
  ScopedFailpoint armed("checkpoint.scan.stall", stall);

  CheckpointDaemon* d = db.EnsureCheckpointer();
  std::thread ckpt([&] { ASSERT_TRUE(d->CheckpointNow().ok()); });

  // Live DML + merge ticks while the checkpoint crawls. Track the worst
  // delta the merge policy ever leaves behind after a tick.
  size_t max_delta_after_merge = 0;
  int64_t next = 100;
  for (int round = 0; round < 20; ++round) {
    InsertRange(&db, next, next + 50);
    next += 50;
    merger.RunOnce();
    Table* t = db.catalog()->GetTable("t");
    max_delta_after_merge =
        std::max(max_delta_after_merge, t->column_table()->delta_size());
  }
  ckpt.join();

  // 1000 rows landed during the checkpoint; a dammed-up delta would hold
  // all of them. Merged-and-bounded means each tick drained its backlog.
  EXPECT_LT(max_delta_after_merge, 200u);
  // View maintenance also progressed under the checkpoint pin.
  auto r = db.Execute("SELECT n FROM agg");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), next);
  // And the checkpoint itself is consistent: it restores exactly the rows
  // visible at its timestamp.
  CheckpointStore store = d->StoreCopy();
  Database restored;
  auto report = restored.RecoverFromCheckpointStore(store, "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(CountRows(&restored), next);
  EXPECT_GE(CountRows(&restored), 100);
}

// --- SQL surface ----------------------------------------------------------

TEST_F(CheckpointDaemonTest, CheckpointStatementRunsSynchronousRound) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 20);

  auto r = db.Execute("CHECKPOINT");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns,
            (std::vector<std::string>{"checkpoint_id", "ts", "bytes",
                                      "wal_truncated"}));
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  EXPECT_GT(r->rows[0][1].AsInt64(), 0);
  EXPECT_GT(r->rows[0][2].AsInt64(), 0);
  ASSERT_NE(db.checkpointer(), nullptr);
  EXPECT_EQ(db.checkpointer()->stats().written, 1u);

  // A second round extends the chain.
  auto r2 = db.Execute("CHECKPOINT");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].AsInt64(), 2);
}

TEST_F(CheckpointDaemonTest, SetKnobsControlDaemonAndSegmentation) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());

  ASSERT_TRUE(db.Execute("SET checkpoint_interval_us = '5000'").ok());
  ASSERT_NE(db.checkpointer(), nullptr);
  EXPECT_TRUE(db.checkpointer()->running());
  EXPECT_EQ(db.checkpointer()->interval_us(), 5000);

  ASSERT_TRUE(db.Execute("SET checkpoint_interval_us = 'off'").ok());
  EXPECT_FALSE(db.checkpointer()->running());

  ASSERT_TRUE(db.Execute("SET wal_segment_bytes = '128'").ok());
  InsertRange(&db, 0, 50);
  EXPECT_GT(wal.num_segments(), 1u);

  // Without a WAL there is nothing to segment.
  Database diskless;
  EXPECT_FALSE(diskless.Execute("SET wal_segment_bytes = '128'").ok());
}

TEST_F(CheckpointDaemonTest, ShowStatsExposesCheckpointAndWalRows) {
  Wal wal;
  Database db(&wal);
  ASSERT_TRUE(db.Execute(kCreateSql).ok());
  InsertRange(&db, 0, 20);
  ASSERT_TRUE(db.Execute("CHECKPOINT").ok());

  auto r = db.Execute("SHOW STATS");
  ASSERT_TRUE(r.ok());
  std::map<std::string, Value> by_name;
  for (const Row& row : r->rows) by_name[row[0].AsString()] = row[1];
  for (const char* name :
       {"ckpt.written", "ckpt.failed", "ckpt.fallbacks", "ckpt.age_us",
        "ckpt.last_ts", "ckpt.duration_us.count", "wal.segments",
        "wal.retained_bytes", "wal.truncated_bytes"}) {
    EXPECT_TRUE(by_name.count(name)) << "missing metric: " << name;
  }
#ifndef OLTAP_OBS_DISABLED
  EXPECT_GE(by_name["ckpt.age_us"].AsInt64(), 0);
  EXPECT_GT(by_name["ckpt.last_ts"].AsInt64(), 0);
  EXPECT_EQ(by_name["wal.retained_bytes"].AsInt64(),
            static_cast<int64_t>(wal.size()));
#endif
}

}  // namespace
}  // namespace oltap
