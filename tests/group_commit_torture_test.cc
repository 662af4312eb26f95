#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sql/session.h"
#include "txn/wal.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

// Group-commit crash torture at driver scale: seeded rounds run the
// ConcurrentDriver's contended TPC-C mix with group commit on, kill the
// durability path mid-batch (torn batch boundary / fsync fault / log-
// writer crash / fsync stall), then "crash the process" — recover a fresh
// database from the bytes the log actually holds — and audit against the
// driver's shadow model:
//   zero acked-commit loss:     every acknowledged NewOrder is in the
//                               recovered orders table;
//   zero unacked resurrection:  the recovered row counts equal loaded +
//                               exactly the acknowledged commits, so a
//                               commit whose batch tore (it was never
//                               acked) can never reappear.
//
// OLTAP_TORTURE_ROUNDS overrides the round count (sanitizer CI runs a
// reduced schedule; the chaos nightly runs the full 24+).

constexpr Timestamp kFarFuture = 1'000'000'000;

int RoundsFromEnv() {
  const char* env = std::getenv("OLTAP_TORTURE_ROUNDS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 24;
}

CHConfig TortureConfig() {
  CHConfig config;
  config.warehouses = 2;  // 4 workers on 2 warehouses: contended
  config.districts_per_warehouse = 2;
  config.customers_per_district = 10;
  config.items = 50;
  config.initial_orders_per_district = 5;
  return config;
}

int64_t CountVisibleRows(Database* db, const std::string& table) {
  int64_t n = 0;
  db->catalog()->GetTable(table)->ScanVisible(kFarFuture,
                                              [&](const Row&) { ++n; });
  return n;
}

enum class Fault { kTornBatch, kFsyncError, kWriterCrash, kFsyncStall };

const char* FaultName(Fault f) {
  switch (f) {
    case Fault::kTornBatch:
      return "torn-batch";
    case Fault::kFsyncError:
      return "fsync-error";
    case Fault::kWriterCrash:
      return "writer-crash";
    case Fault::kFsyncStall:
      return "fsync-stall";
  }
  return "?";
}

TEST(GroupCommitTortureTest, AckedCommitsSurviveCrashUnackedNeverResurrect) {
  const int rounds = RoundsFromEnv();
  ThreadPool pool(4);
  uint64_t fires_total = 0;

  for (int round = 0; round < rounds; ++round) {
    const Fault fault = static_cast<Fault>(round % 4);
    SCOPED_TRACE("round " + std::to_string(round) + " fault " +
                 FaultName(fault));
    Rng rng(0x70a7 + static_cast<uint64_t>(round));

    // fsync-fault rounds run against a real file with fsync_on_commit, so
    // the injected fault hits the actual durability call; the recovery
    // image is then the file's bytes. Other rounds use the in-memory log.
    const bool file_backed =
        fault == Fault::kFsyncError || fault == Fault::kFsyncStall;
    std::string path = ::testing::TempDir() + "/oltap_gct_" +
                       std::to_string(round) + ".log";
    std::remove(path.c_str());
    std::unique_ptr<Wal> wal;
    if (file_backed) {
      Wal::Options wopts;
      wopts.fsync_on_commit = true;
      auto opened = Wal::OpenFile(path, wopts);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      wal = std::move(*opened);
    } else {
      wal = std::make_unique<Wal>();
    }

    auto db = std::make_unique<Database>(wal.get());
    CHConfig config = TortureConfig();
    CHBenchmark bench(db.get(), config);
    ASSERT_TRUE(bench.CreateTables().ok());
    ASSERT_TRUE(bench.Load().ok());  // bulk load at ts 0, not logged

    const int64_t base_orders = CountVisibleRows(db.get(), "orders");
    const int64_t base_history = CountVisibleRows(db.get(), "history");

    DriverOptions opts;
    opts.oltp_workers = 4;
    opts.olap_workers = 1;
    opts.ops_per_worker = 25;
    opts.seed = 1000 + static_cast<uint64_t>(round);
    opts.audit_commits = true;
    opts.group_commit = true;
    opts.group_max_batch = 4u << rng.Uniform(4);  // 4..32
    opts.merge_delta_threshold = 64;
    opts.merge_interval_ms = 1;

    // Arm the round's fault mid-run: skip a few healthy batches first so
    // the tear lands in the middle of the committed stream.
    const char* site = nullptr;
    FailpointConfig cfg;
    cfg.skip = static_cast<int>(rng.Uniform(6));
    switch (fault) {
      case Fault::kTornBatch:
        site = "wal.batch.torn";
        cfg.status = Status::Unavailable("torture: torn batch boundary");
        break;
      case Fault::kFsyncError:
        site = "wal.fsync.error";
        cfg.status = Status::Unavailable("torture: fsync fault");
        break;
      case Fault::kWriterCrash:
        site = "logwriter.crash";
        cfg.status = Status::Internal("torture: log writer died");
        break;
      case Fault::kFsyncStall:
        site = "wal.fsync.stall";
        cfg.max_fires = 3;
        cfg.status = Status::Unavailable("torture: device stall");
        break;
    }

    DriverReport report;
    uint64_t fires = 0;
    {
      ScopedFailpoint armed(site, cfg);
      ConcurrentDriver driver(&bench, opts);
      report = driver.Run();
      fires = FailpointRegistry::Get().Find(site)->fires();
      fires_total += fires;
    }

    // Per-worker ledger stays exact even under faults.
    for (const WorkerResult& w : report.workers) {
      EXPECT_EQ(w.stats.total() + w.failed, w.ops_issued);
    }

    // A fired torn batch seals the log; the driver must abort the run
    // with a reason instead of grinding retries against a dead log.
    if (fault == Fault::kTornBatch && fires > 0) {
      EXPECT_TRUE(wal->sealed());
      EXPECT_TRUE(report.aborted);
      EXPECT_FALSE(report.abort_reason.empty());
    }
    if (fault == Fault::kFsyncStall) {
      // Stalls delay commits but fail nothing.
      EXPECT_FALSE(report.aborted);
      EXPECT_FALSE(wal->sealed());
    }

    // --- Crash. The recovery image is what the log actually holds.
    std::string disk;
    if (file_backed) {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      char chunk[1 << 16];
      size_t n;
      while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
        disk.append(chunk, n);
      }
      std::fclose(f);
    } else {
      disk = wal->buffer();
    }

    // Recover into a fresh database: same deterministic bulk load (not
    // logged), then replay — parallel partitioned on odd rounds, serial
    // on even, asserting both paths against the same shadow model.
    auto recovered = std::make_unique<Database>();
    CHBenchmark recovered_bench(recovered.get(), config);
    ASSERT_TRUE(recovered_bench.CreateTables().ok());
    ASSERT_TRUE(recovered_bench.Load().ok());
    auto recovery = recovered->RecoverFromCheckpointStore(
        {}, disk, (round % 2 == 1) ? &pool : nullptr);
    ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
    if (fault == Fault::kTornBatch && fires > 0) {
      EXPECT_TRUE(recovery->stats.truncated_tail)
          << "torn batch must read as a tear";
    }

    // Zero acked-commit loss: every acknowledged NewOrder is present.
    const Table* orders = recovered->catalog()->GetTable("orders");
    std::set<std::tuple<int64_t, int64_t, int64_t>> acked;
    uint64_t committed_new_orders = 0;
    for (const WorkerResult& w : report.workers) {
      committed_new_orders += w.stats.new_order;
      for (const NewOrderAck& ack : w.acks) {
        EXPECT_TRUE(acked.emplace(ack.w, ack.d, ack.o_id).second)
            << "duplicate ack " << ack.w << "/" << ack.d << "/" << ack.o_id;
        Row key{Value::Int64(ack.w), Value::Int64(ack.d),
                Value::Int64(ack.o_id)};
        Row out;
        EXPECT_TRUE(orders->Lookup(EncodeKey(orders->schema(), key),
                                   kFarFuture, &out))
            << "acked order lost after crash: " << ack.w << "/" << ack.d
            << "/" << ack.o_id;
      }
    }
    EXPECT_EQ(acked.size(), committed_new_orders);

    // Zero unacked resurrection: recovered state holds exactly the acked
    // commits on top of the load — a commit in a torn/failed batch (never
    // acknowledged) must not reappear.
    EXPECT_EQ(CountVisibleRows(recovered.get(), "orders"),
              base_orders + static_cast<int64_t>(acked.size()));
    EXPECT_EQ(CountVisibleRows(recovered.get(), "history"),
              base_history + static_cast<int64_t>(report.txns.payment));

    if (file_backed) std::remove(path.c_str());
  }

  // The schedule actually injected faults (guards against the failpoint
  // sites silently moving out of the batch path).
  EXPECT_GT(fires_total, 0u);
}

}  // namespace
}  // namespace oltap
