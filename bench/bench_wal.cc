// E18 — Group-commit WAL: (a) sustained commit throughput at 8 concurrent
// committers, per-commit fsync vs. leader/follower group commit at a few
// batch caps (max_batch 1 serializes the fsyncs through the writer
// without batching them, isolating what batching itself buys); (b)
// recovery wall time, serial replay vs. table-partitioned parallel
// replay, as the log grows.
//
// The durability device is a real file (one fsync syscall per record for
// the baseline, one per batch under group commit), so (a) measures
// exactly what group commit amortizes. Counts are env-tunable:
// OLTAP_WAL_COMMITS_PER_CLIENT (default 1500) and OLTAP_WAL_REPLAY_SCALE
// (multiplies the replay log sizes, default 1).

#include <benchmark/benchmark.h>

#include "bench_reporter.h"

OLTAP_BENCH_REPORTER("wal");

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "storage/catalog.h"
#include "txn/log_writer.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

namespace oltap {
namespace {

constexpr int kClients = 8;

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : def;
}

int64_t CommitsPerClient() {
  static const int64_t n = EnvInt("OLTAP_WAL_COMMITS_PER_CLIENT", 1500);
  return n;
}

Schema BenchSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("payload")
      .SetKey({"id"})
      .Build();
}

std::unique_ptr<Catalog> MakeCatalog(int tables) {
  auto catalog = std::make_unique<Catalog>();
  for (int t = 0; t < tables; ++t) {
    if (!catalog
             ->CreateTable("t" + std::to_string(t), BenchSchema(),
                           TableFormat::kColumn)
             .ok()) {
      std::abort();
    }
  }
  return catalog;
}

Row MakeRow(int64_t id) {
  return Row{Value::Int64(id), Value::String("payload-" + std::to_string(id))};
}

std::string WalPath(const char* tag) {
  return "/tmp/oltap_bench_wal_" + std::string(tag) + ".log";
}

std::unique_ptr<Wal> OpenBenchWal(const std::string& path) {
  std::remove(path.c_str());
  Wal::Options opts;
  opts.fsync_on_commit = true;
  auto wal = Wal::OpenFile(path, opts);
  if (!wal.ok()) std::abort();
  return std::move(*wal);
}

// 8 closed-loop committers inserting disjoint keys through the
// TransactionManager. `max_batch` 0 = no log writer: every commit pays its
// own fsync.
double RunCommitStorm(size_t max_batch, const char* tag) {
  std::string path = WalPath(tag);
  auto wal = OpenBenchWal(path);
  auto catalog = MakeCatalog(1);
  TransactionManager tm(catalog.get(), wal.get());
  Table* table = catalog->GetTable("t0");

  std::unique_ptr<LogWriter> writer;
  if (max_batch > 0) {
    LogWriter::Options opts;
    opts.max_batch = max_batch;
    writer = std::make_unique<LogWriter>(wal.get(), opts);
    tm.SetLogWriter(writer.get());
  }

  const int64_t per_client = CommitsPerClient();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t i = 0; i < per_client; ++i) {
        auto txn = tm.Begin();
        if (!txn->Insert(table, MakeRow(c * per_client + i)).ok()) std::abort();
        if (!tm.Commit(txn.get()).ok()) std::abort();
      }
    });
  }
  for (auto& t : clients) t.join();
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();

  if (writer != nullptr) {
    tm.SetLogWriter(nullptr);
    writer->Stop();
  }
  std::remove(path.c_str());
  return static_cast<double>(kClients * per_client) / secs;
}

// (a) Commit throughput: range(0) is the group-commit max_batch, 0 for
// the per-commit-fsync baseline.
void BM_WalCommitThroughput(benchmark::State& state) {
  const auto max_batch = static_cast<size_t>(state.range(0));
  std::string suffix = max_batch == 0
                           ? ".per_commit_fsync"
                           : ".group_batch_" + std::to_string(max_batch);
  for (auto _ : state) {
    double commits_s = RunCommitStorm(max_batch, "storm");
    bench::Reporter::Get()->Metric("commit_s" + suffix, commits_s);
    state.counters["commit_s"] = commits_s;
  }
}
BENCHMARK(BM_WalCommitThroughput)
    ->Arg(0)    // baseline: one fsync per commit
    ->Arg(1)    // group commit, one commit per fsync
    ->Arg(8)
    ->Arg(64)   // the LogWriter default
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Builds a multi-table log of `txns` single-op commits spread round-robin
// over `tables` tables (the shape parallel replay partitions well).
std::string BuildLog(int64_t txns, int tables) {
  Wal wal;
  for (int64_t i = 0; i < txns; ++i) {
    Wal::CommitBody body(i + 1, i + 1);
    body.Add(WalOp::kInsert, "t" + std::to_string(i % tables), /*key=*/"",
             MakeRow(i));
    if (!wal.LogCommit(body.Take()).ok()) std::abort();
  }
  return wal.buffer();
}

// CPU consumed by the calling thread — for parallel replay this is the
// recovery critical path: the decode pass plus the tables the caller
// claims as worker 0 of the apply pass. On a few-core host wall times
// tie while this metric shows the offload; on multi-core hosts wall time
// follows it (see EXPERIMENTS.md E18).
double ThreadCpuSeconds() {
#if defined(__linux__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  }
#endif
  return 0;
}

// (b) Recovery: serial (null pool, DOP 1) vs. parallel (4-thread pool)
// partitioned replay. range(0) = txns in the log (scaled by
// OLTAP_WAL_REPLAY_SCALE), range(1) = 1 for parallel.
void BM_WalRecovery(benchmark::State& state) {
  const int kTables = 8;
  int64_t txns = state.range(0) * EnvInt("OLTAP_WAL_REPLAY_SCALE", 1);
  bool parallel = state.range(1) != 0;
  std::string log = BuildLog(txns, kTables);
  ThreadPool pool(4);

  double secs = 0, cpu_secs = 0;
  for (auto _ : state) {
    auto catalog = MakeCatalog(kTables);
    auto start = std::chrono::steady_clock::now();
    double cpu_start = ThreadCpuSeconds();
    auto stats = Wal::Replay(log, catalog.get(), {},
                             parallel ? &pool : nullptr);
    cpu_secs = ThreadCpuSeconds() - cpu_start;
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
    if (!stats.ok() || stats->txns_applied != static_cast<size_t>(txns)) {
      std::abort();
    }
  }
  std::string suffix = (parallel ? ".parallel." : ".serial.") +
                       std::to_string(txns);
  bench::Reporter::Get()->Metric("recovery_s" + suffix, secs);
  bench::Reporter::Get()->Metric("recovery_txn_s" + suffix,
                                 static_cast<double>(txns) / secs);
  bench::Reporter::Get()->Metric("recovery_critical_path_s" + suffix,
                                 cpu_secs);
  state.counters["txn_s"] = static_cast<double>(txns) / secs;
  state.counters["crit_s"] = cpu_secs;
}
BENCHMARK(BM_WalRecovery)
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Args({40'000, 0})
    ->Args({40'000, 1})
    ->Args({160'000, 0})
    ->Args({160'000, 1})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace oltap
