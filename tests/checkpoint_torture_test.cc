#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sql/session.h"
#include "storage/row.h"
#include "txn/checkpoint.h"
#include "txn/checkpoint_daemon.h"
#include "txn/wal.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

// Checkpoint crash torture at driver scale: seeded rounds run the
// contended TPC-C mix with the checkpoint daemon rotating and truncating
// WAL segments underneath it, inject a checkpoint-path fault (torn image
// write, torn manifest write, daemon thread death, truncation error — or
// none), then "crash the process" at a random instant — a crash cut of
// the checkpoint store plus the sealed log, taken from a concurrent
// thread so the cut can land mid-checkpoint or mid-truncation — and
// recover a fresh database from the cut. Audits per round:
//   zero acked-commit loss:     every acknowledged NewOrder is in the
//                               recovered orders table;
//   zero unacked resurrection:  recovered row counts equal loaded +
//                               exactly the acknowledged commits;
//   deterministic recovery:     serial and parallel replay of the same
//                               cut produce byte-identical states;
//   bounded tail:               the WAL tail replayed after a checkpoint
//                               never exceeds what the driver committed.
//
// OLTAP_TORTURE_ROUNDS overrides the round count (sanitizer CI runs a
// reduced schedule; the chaos nightly runs the full 20+).

constexpr Timestamp kFarFuture = 1'000'000'000;

int RoundsFromEnv() {
  const char* env = std::getenv("OLTAP_TORTURE_ROUNDS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 20;
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

const char* kTables[] = {"warehouse", "district",  "customer",
                         "history",   "neworder",  "orders",
                         "orderline", "item",      "stock"};

std::map<std::string, std::vector<std::string>> Fingerprint(Database* db) {
  std::map<std::string, std::vector<std::string>> out;
  for (const char* name : kTables) {
    const Table* table = db->catalog()->GetTable(name);
    std::vector<std::string>& rows = out[name];
    table->ScanVisible(kFarFuture, [&](const Row& row) {
      rows.push_back(RowToString(row));
    });
    std::sort(rows.begin(), rows.end());
  }
  return out;
}

enum class Fault {
  kNone,
  kTornImage,
  kTornManifest,
  kDaemonCrash,
  kTruncateError
};

const char* FaultSite(Fault f) {
  switch (f) {
    case Fault::kNone:
      return nullptr;
    case Fault::kTornImage:
      return "checkpoint.write.torn";
    case Fault::kTornManifest:
      return "checkpoint.manifest.torn";
    case Fault::kDaemonCrash:
      return "checkpoint.daemon.crash";
    case Fault::kTruncateError:
      return "wal.truncate.error";
  }
  return nullptr;
}

// Recovers a fresh database from a crash cut. When the cut holds a usable
// checkpoint image, recovery starts from an EMPTY catalog (the image
// carries the schemas and the bulk-loaded rows). When it does not — crash
// before the first completed round, or every image torn — the fallback is
// a full WAL replay, which requires the same deterministic bulk load the
// original database started from (the load bypasses the log).
std::unique_ptr<Database> Recover(const CheckpointDaemon::CrashImage& crash,
                                  const CHConfig& config, ThreadPool* pool,
                                  Database::RecoveryReport* report_out) {
  auto recovered = std::make_unique<Database>();
  if (!SelectRecoveryImage(crash.store).ok()) {
    CHBenchmark bench(recovered.get(), config);
    EXPECT_TRUE(bench.CreateTables().ok());
    EXPECT_TRUE(bench.Load().ok());
  }
  auto report = recovered->RecoverFromCheckpointStore(crash.store, crash.wal,
                                                      pool);
  if (!report.ok()) {
    std::string dump = "store: manifest_bytes=" +
                       std::to_string(crash.store.manifest.size());
    for (const CheckpointStore::Image& img : crash.store.images) {
      dump += " img{id=" + std::to_string(img.id) +
              " ts=" + std::to_string(img.ts) +
              " bytes=" + std::to_string(img.data.size()) +
              " valid=" + (CheckpointIsValid(img.data) ? "y" : "n") + "}";
    }
    dump += " wal_bytes=" + std::to_string(crash.wal.size());
    ADD_FAILURE() << report.status().ToString() << "\n" << dump;
  }
  if (report.ok() && report_out != nullptr) *report_out = *report;
  return recovered;
}

TEST(CheckpointTortureTest, CrashAnywhereLosesNothingResurrectsNothing) {
  const int rounds = RoundsFromEnv();
  ThreadPool pool(4);
  uint64_t fires_total = 0;
  uint64_t rounds_with_checkpoint = 0;
  uint64_t rounds_truncated = 0;

  for (int round = 0; round < rounds; ++round) {
    const Fault fault = static_cast<Fault>(round % 5);
    const char* site = FaultSite(fault);
    SCOPED_TRACE("round " + std::to_string(round) + " fault " +
                 (site != nullptr ? site : "none"));
    Rng rng(0xc4b7 + static_cast<uint64_t>(round));

    Wal::Options wopts;
    wopts.segment_bytes = 1024u << rng.Uniform(3);  // 1k..4k: real rotation
    Wal wal(wopts);
    auto db = std::make_unique<Database>(&wal);
    CHConfig config = TortureConfig();
    CHBenchmark bench(db.get(), config);
    ASSERT_TRUE(bench.CreateTables().ok());
    ASSERT_TRUE(bench.Load().ok());  // bulk load, not logged

    const int64_t base_orders = CountVisibleRows(db.get(), "orders");
    const int64_t base_history = CountVisibleRows(db.get(), "history");

    // The daemon exists before the driver starts so the crash thread can
    // cut at any instant, including before the driver wires it up.
    CheckpointDaemon* daemon = db->EnsureCheckpointer();

    DriverOptions opts;
    opts.oltp_workers = 4;
    opts.olap_workers = 1;
    opts.ops_per_worker = 25;
    opts.seed = 7000 + static_cast<uint64_t>(round);
    opts.audit_commits = true;
    opts.group_commit = round % 2 == 0;
    opts.merge_delta_threshold = 64;
    opts.merge_interval_ms = 1;
    opts.run_checkpoint_daemon = true;
    opts.checkpoint_interval_us =
        1'000 + static_cast<int64_t>(rng.Uniform(3'000));
    opts.checkpoint_truncate_wal = true;

    FailpointConfig cfg;
    cfg.skip = static_cast<int>(rng.Uniform(3));
    cfg.status = Status::Unavailable("torture: injected checkpoint fault");

    // Crash thread: seal-and-copy at a random instant. The cut can land
    // mid-run, mid-checkpoint, mid-truncation, or after the driver is
    // already done (a crash at idle).
    CheckpointDaemon::CrashImage crash;
    std::thread crasher([&] {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.Uniform(40'000)));
      crash = daemon->CaptureCrashImage();
    });

    DriverReport report;
    uint64_t fires = 0;
    {
      std::unique_ptr<ScopedFailpoint> armed;
      if (site != nullptr) armed = std::make_unique<ScopedFailpoint>(site, cfg);
      ConcurrentDriver driver(&bench, opts);
      report = driver.Run();
      if (site != nullptr) {
        fires = FailpointRegistry::Get().Find(site)->fires();
        fires_total += fires;
      }
    }
    crasher.join();

    // Per-worker ledger stays exact even when the cut seals the log
    // mid-run (commits after the seal fail, they do not vanish).
    for (const WorkerResult& w : report.workers) {
      EXPECT_EQ(w.stats.total() + w.failed, w.ops_issued);
    }

    CheckpointDaemon::Stats dstats = daemon->stats();
    if (dstats.written > 0) ++rounds_with_checkpoint;
    if (dstats.truncated_bytes > 0) ++rounds_truncated;
    if (fault == Fault::kTruncateError && fires > 0) {
      // A failed truncation keeps bytes; it never drops them.
      EXPECT_EQ(wal.truncated_bytes(), dstats.truncated_bytes);
    }

    // --- Recover from the cut, serial and parallel.
    Database::RecoveryReport rec_serial;
    auto recovered = Recover(crash, config, nullptr, &rec_serial);
    {
      auto recovered_par = Recover(crash, config, &pool, nullptr);
      auto a = Fingerprint(recovered.get());
      auto b = Fingerprint(recovered_par.get());
      for (const char* name : kTables) {
        EXPECT_EQ(a[name], b[name])
            << "serial and parallel recovery diverge in " << name;
      }
    }

    // Bounded tail: whatever the cut holds, the tail replayed on top of a
    // checkpoint cannot exceed the driver's committed transactions plus
    // the CREATE TABLE commits of the set-up (a cut with no usable image
    // replays the log from its first record).
    EXPECT_LE(rec_serial.tail_txns, static_cast<size_t>(report.txns.total()) +
                                        1 + std::size(kTables));

    // Zero acked-commit loss: every acknowledged NewOrder survived the
    // crash, whether it came back from the image or the tail.
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

    // Zero unacked resurrection: the recovered counts are exactly the
    // load plus the acknowledged commits — nothing a torn image, torn
    // manifest, or truncation fault touched can reappear.
    EXPECT_EQ(CountVisibleRows(recovered.get(), "orders"),
              base_orders + static_cast<int64_t>(acked.size()));
    EXPECT_EQ(CountVisibleRows(recovered.get(), "history"),
              base_history + static_cast<int64_t>(report.txns.payment));
  }

  // The schedule really exercised the machinery: faults fired, rounds
  // checkpointed, and truncation actually dropped bytes somewhere. Only
  // asserted on full-length schedules — sanitizer CI runs a handful of
  // rounds under heavy slowdown, where the random crash cut can land
  // before any round completes a truncating checkpoint.
  if (rounds >= 15) {
    EXPECT_GT(fires_total, 0u);
    EXPECT_GT(rounds_with_checkpoint, 0u);
    EXPECT_GT(rounds_truncated, 0u);
  }
}

}  // namespace
}  // namespace oltap
