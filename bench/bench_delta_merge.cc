// E3 — Delta/main lifecycle: differential files + LSM-style merge [29,16].
//
// Shape under test: analytic scan latency as the delta's share of the data
// grows, and the bulk reorganization cost at which merging restores the
// main's encoded, zone-mapped layout. The delta is columnar (typed chunks,
// scanned as morsels like the main) but has no dictionary, bit packing or
// zone map, so its predicates run over raw cells. The merge-threshold
// sweep shows the freshness/throughput trade-off knob every surveyed
// engine exposes.
//
// Besides google-benchmark's console output, each case records its mean
// into BENCH_delta_merge.json (bench_reporter.h): scan_ms.delta_<rows>,
// delta_ingest_rows_s, merge_ms.delta_<rows> and
// ingest_rows_s.merge_every_<rows>.

#include <benchmark/benchmark.h>

#include "bench_reporter.h"

OLTAP_BENCH_REPORTER("delta_merge");

#include <chrono>
#include <memory>
#include <string>

#include "common/rng.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "storage/table.h"

namespace oltap {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Schema BenchSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddInt64("k", false)
      .AddInt64("v", false)
      .SetKey({"id"})
      .Build();
}

std::unique_ptr<Table> BuildTable(size_t main_rows, size_t delta_rows) {
  auto table = std::make_unique<Table>("t", BenchSchema(),
                                       TableFormat::kColumn);
  Rng rng(1);
  std::vector<Row> rows;
  rows.reserve(main_rows);
  for (size_t i = 0; i < main_rows; ++i) {
    rows.push_back(Row{Value::Int64(static_cast<int64_t>(i)),
                       Value::Int64(rng.UniformRange(0, 999)),
                       Value::Int64(rng.UniformRange(0, 1000000))});
  }
  if (main_rows > 0) {
    Status st = table->BulkLoadToMain(rows, 1);
    if (!st.ok()) std::abort();
  }
  for (size_t i = 0; i < delta_rows; ++i) {
    Status st = table->InsertCommitted(
        Row{Value::Int64(static_cast<int64_t>(main_rows + i)),
            Value::Int64(rng.UniformRange(0, 999)),
            Value::Int64(rng.UniformRange(0, 1000000))},
        2);
    if (!st.ok()) std::abort();
  }
  return table;
}

double ScanQuery(Table* table) {
  ScanOp scan(table, 100,
              Expr::Compare(CompareOp::kLt,
                            Expr::Column(1, ValueType::kInt64),
                            Expr::Constant(Value::Int64(100))));
  std::vector<Row> rows = CollectRows(&scan);
  double sum = 0;
  for (const Row& r : rows) sum += r[2].AsDouble();
  return sum;
}

// Scan latency as the delta share grows: arg = delta rows per 1M total.
void BM_ScanWithDeltaShare(benchmark::State& state) {
  constexpr size_t kTotal = 1 << 20;
  size_t delta = static_cast<size_t>(state.range(0));
  static std::map<int64_t, std::unique_ptr<Table>>* cache =
      new std::map<int64_t, std::unique_ptr<Table>>();
  auto it = cache->find(state.range(0));
  if (it == cache->end()) {
    it = cache->emplace(state.range(0), BuildTable(kTotal - delta, delta))
             .first;
  }
  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanQuery(it->second.get()));
  }
  bench::Reporter::Get()->Metric(
      "scan_ms.delta_" + std::to_string(delta),
      1e3 * SecondsSince(t0) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * kTotal);
  state.counters["delta_rows"] = static_cast<double>(delta);
}

// Ingest throughput into the delta (the write-optimized path).
void BM_DeltaIngest(benchmark::State& state) {
  auto table = BuildTable(0, 0);
  Rng rng(9);
  int64_t id = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Status st = table->InsertCommitted(
        Row{Value::Int64(id++), Value::Int64(rng.UniformRange(0, 999)),
            Value::Int64(1)},
        3);
    benchmark::DoNotOptimize(st.ok());
  }
  bench::Reporter::Get()->Metric(
      "delta_ingest_rows_s",
      static_cast<double>(state.iterations()) / SecondsSince(t0));
  state.SetItemsProcessed(state.iterations());
}

// Cost of one merge as a function of delta size (main fixed at 1M rows).
void BM_MergeCost(benchmark::State& state) {
  constexpr size_t kMain = 1 << 20;
  size_t delta = static_cast<size_t>(state.range(0));
  double merge_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto table = BuildTable(kMain, delta);
    state.ResumeTiming();
    auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(table->MergeDelta(100, 100));
    merge_s += SecondsSince(t0);
  }
  bench::Reporter::Get()->Metric(
      "merge_ms.delta_" + std::to_string(delta),
      1e3 * merge_s / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * (kMain + delta));
}

// End-to-end freshness trade-off: ingest 200k rows with a merge every K
// rows, measuring total wall time including periodic analytic scans.
// Small K = fresh columnar data, frequent merge cost; large K = cheap
// ingest, slow scans.
void BM_IngestScanMergeEvery(benchmark::State& state) {
  size_t merge_every = static_cast<size_t>(state.range(0));
  constexpr size_t kIngest = 200000;
  constexpr size_t kScanEvery = 20000;
  double run_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto table = BuildTable(0, 0);
    Rng rng(4);
    state.ResumeTiming();
    auto t0 = std::chrono::steady_clock::now();
    Timestamp ts = 10;
    for (size_t i = 0; i < kIngest; ++i) {
      Status st = table->InsertCommitted(
          Row{Value::Int64(static_cast<int64_t>(i)),
              Value::Int64(rng.UniformRange(0, 999)), Value::Int64(1)},
          ts++);
      benchmark::DoNotOptimize(st.ok());
      if ((i + 1) % merge_every == 0) table->MergeDelta(ts, ts);
      if ((i + 1) % kScanEvery == 0) {
        benchmark::DoNotOptimize(ScanQuery(table.get()));
      }
    }
    run_s += SecondsSince(t0);
  }
  bench::Reporter::Get()->Metric(
      "ingest_rows_s.merge_every_" + std::to_string(merge_every),
      static_cast<double>(state.iterations() * kIngest) / run_s);
  state.SetItemsProcessed(state.iterations() * kIngest);
  state.counters["merge_every"] = static_cast<double>(merge_every);
}

BENCHMARK(BM_ScanWithDeltaShare)
    ->Arg(0)
    ->Arg(1 << 12)
    ->Arg(1 << 15)
    ->Arg(1 << 18)
    ->Arg(1 << 20);
BENCHMARK(BM_DeltaIngest);
BENCHMARK(BM_MergeCost)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 19)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestScanMergeEvery)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace oltap
