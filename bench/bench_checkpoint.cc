// E20 — Online checkpointing: (a) recovery wall time as history grows,
// full WAL replay (linear in total history) vs. checkpoint + tail replay
// (bounded by live data + the tail since the last checkpoint). The
// workload is update-heavy over a fixed row set — the operational case
// where history dwarfs live data and a checkpoint collapses it. (b) the
// OLTP cost of taking checkpoints *live*, measured as concurrent-driver
// committed txn/s with the daemon off vs. on (target: <= 5% overhead).
//
// Env knobs: OLTAP_CKPT_HISTORY_SCALE multiplies the history sizes in
// (a) (default 1); OLTAP_CKPT_DRIVER_OPS sets ops per driver worker in
// (b) (default 2000); OLTAP_CKPT_INTERVAL_US overrides (b)'s idle-backstop
// cadence; OLTAP_CKPT_OVERHEAD_REPS sets the off/on pairs (b) medians over.

#include <benchmark/benchmark.h>

#include "bench_reporter.h"

OLTAP_BENCH_REPORTER("checkpoint");

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sql/session.h"
#include "txn/checkpoint.h"
#include "txn/checkpoint_daemon.h"
#include "txn/wal.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace {

constexpr int64_t kLiveRows = 20'000;

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : def;
}

Schema BenchSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("payload")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id, int64_t version) {
  return Row{Value::Int64(id),
             Value::String("payload-" + std::to_string(version))};
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// (a) kLiveRows rows, then update txns cycling over them: live data stays
// fixed while the history grows. Full replay re-applies every update;
// checkpoint recovery restores the final rows and replays only the tail
// past the newest checkpoint (fixed cadence => bounded tail). range(0) =
// total committed txns (scaled), range(1) = 1 to recover from the
// checkpoint chain, 0 for full replay of the same log.
void BM_CheckpointRecovery(benchmark::State& state) {
  const int64_t txns = state.range(0) * EnvInt("OLTAP_CKPT_HISTORY_SCALE", 1);
  const bool checkpointed = state.range(1) != 0;
  const int64_t ckpt_every = 10'000;

  Wal wal;
  Database db(&wal);
  if (!db.catalog()->CreateTable("t", BenchSchema(), TableFormat::kColumn).ok())
    std::abort();
  Table* table = db.catalog()->GetTable("t");
  TransactionManager* tm = db.txn_manager();
  CheckpointDaemon* daemon = db.EnsureCheckpointer();  // manual rounds only
  daemon->set_truncate_wal(false);  // keep the log: full replay needs it

  for (int64_t i = 0; i < txns; ++i) {
    auto txn = tm->Begin();
    Status s = i < kLiveRows
                   ? txn->Insert(table, MakeRow(i, i))
                   : txn->Update(table, MakeRow(i % kLiveRows, i));
    if (!s.ok() || !tm->Commit(txn.get()).ok()) std::abort();
    if ((i + 1) % ckpt_every == 0 && !daemon->CheckpointNow().ok())
      std::abort();
  }
  CheckpointStore store = daemon->StoreCopy();
  const CheckpointStore no_images;

  double secs = 0;
  size_t tail_txns = 0;
  for (auto _ : state) {
    Database recovered;
    auto start = std::chrono::steady_clock::now();
    // Full replay is recovery from an empty store into an empty catalog:
    // the log's own CREATE TABLE record makes t.
    auto rec = recovered.RecoverFromCheckpointStore(
        checkpointed ? store : no_images, wal.buffer());
    if (!rec.ok()) std::abort();
    tail_txns = rec->tail_txns;
    secs = Seconds(start);
    int64_t n = 0;
    recovered.catalog()->GetTable("t")->ScanVisible(
        1'000'000'000, [&](const Row&) { ++n; });
    if (n != std::min(txns, kLiveRows)) std::abort();
  }

  std::string suffix = (checkpointed ? ".checkpointed." : ".full_replay.") +
                       std::to_string(txns);
  bench::Reporter::Get()->Metric("recovery_s" + suffix, secs);
  bench::Reporter::Get()->Metric("replayed_txns" + suffix,
                                 static_cast<double>(tail_txns));
  state.counters["recovery_s"] = secs;
  state.counters["replayed"] = static_cast<double>(tail_txns);
}
BENCHMARK(BM_CheckpointRecovery)
    ->Args({20'000, 0})
    ->Args({20'000, 1})
    ->Args({80'000, 0})
    ->Args({80'000, 1})
    ->Args({320'000, 0})
    ->Args({320'000, 1})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// (b) Live checkpoint overhead under the concurrent TPC-C/CH driver:
// identical runs with the daemon off and on, compared on committed OLTP
// txn/s. A checkpoint round serializes the whole database (a few hundred
// ms at this scale — the ckpt.duration_us histogram in the registry dump
// has the exact figure), so the operationally sane cadence is O(seconds):
// the default 4s matches the cadence (a)'s 10k-txn tail bound implies at
// this throughput. OLTAP_CKPT_INTERVAL_US overrides it — cranking it down
// prices over-checkpointing instead. Off/on runs alternate for
// OLTAP_CKPT_OVERHEAD_REPS pairs (default 3) and the reported overhead
// compares medians, since a single A/B pair on a shared host is noise.
double RunDriver(bool with_checkpoints, uint64_t* checkpoints_out) {
  Wal wal;
  Database db(&wal);
  CHConfig config;
  config.warehouses = 4;
  CHBenchmark bench(&db, config);
  if (!bench.CreateTables().ok() || !bench.Load().ok()) std::abort();

  DriverOptions opts;
  opts.oltp_workers = 4;
  opts.olap_workers = 1;
  opts.ops_per_worker =
      static_cast<size_t>(EnvInt("OLTAP_CKPT_DRIVER_OPS", 2000));
  opts.seed = 7;
  opts.group_commit = true;
  opts.merge_delta_threshold = 4096;
  opts.merge_interval_ms = 2;
  opts.run_checkpoint_daemon = with_checkpoints;
  opts.checkpoint_interval_us = EnvInt("OLTAP_CKPT_INTERVAL_US", 4'000'000);
  // Byte trigger as the primary policy: checkpoint per ~8MB of log (~4k txns), the
  // bounded-tail cadence from (a) expressed in bytes. The interval above
  // is the idle backstop.
  opts.checkpoint_wal_trigger_bytes = 8 << 20;
  opts.checkpoint_truncate_wal = true;
  opts.wal_segment_bytes = 1 << 20;  // rotation => truncation can drop bytes

  ConcurrentDriver driver(&bench, opts);
  DriverReport report = driver.Run();
  if (report.aborted) std::abort();
  if (checkpoints_out != nullptr) *checkpoints_out = report.checkpoints;
  if (with_checkpoints && report.checkpoints == 0) std::abort();
  return report.oltp_txn_per_s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void BM_CheckpointLiveOverhead(benchmark::State& state) {
  const int reps = static_cast<int>(EnvInt("OLTAP_CKPT_OVERHEAD_REPS", 3));
  for (auto _ : state) {
    std::vector<double> base, ckpt;
    uint64_t checkpoints = 0;
    for (int r = 0; r < reps; ++r) {
      base.push_back(RunDriver(false, nullptr));
      uint64_t n = 0;
      ckpt.push_back(RunDriver(true, &n));
      checkpoints += n;
    }
    double baseline = Median(base);
    double with_ckpt = Median(ckpt);
    double overhead_pct = 100.0 * (baseline - with_ckpt) / baseline;
    bench::Reporter::Get()->Metric("oltp_txn_s.baseline", baseline);
    bench::Reporter::Get()->Metric("oltp_txn_s.with_checkpoints", with_ckpt);
    bench::Reporter::Get()->Metric("live_overhead_pct", overhead_pct);
    bench::Reporter::Get()->Metric("checkpoints_taken",
                                   static_cast<double>(checkpoints));
    state.counters["base_txn_s"] = baseline;
    state.counters["ckpt_txn_s"] = with_ckpt;
    state.counters["overhead_pct"] = overhead_pct;
  }
}
BENCHMARK(BM_CheckpointLiveOverhead)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace oltap
