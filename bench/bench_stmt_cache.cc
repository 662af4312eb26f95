// Front-end latency of SELECTs through Database::Execute, with and without
// repeated statement texts.
//
// The statement cache (DESIGN.md §8) pays off only when a SELECT text
// repeats byte for byte; a text seen once is parsed, bound, matched
// against the views and planned like any cold read. This bench measures
// both sides on 4 TPC-C warehouses (60k order lines) with the two
// orderline views the htapbench htap_views workload registers, quiesced
// (no concurrent OLTP):
//
//   BM_RoutedRepeated       the two routed texts, alternating (every
//                           execution after the first is a cache hit)
//   BM_RoutedUniqueLiteral  the same two queries with a residual filter on
//                           the group column whose literal changes every
//                           execution (every execution is a miss; still
//                           routed onto the views)
//   BM_BaseUniqueLiteral    a point-range read of warehouse, no view, with
//                           a per-execution literal
//   BM_TryRoute             ViewManager::TryRoute on the two parsed routed
//                           statements, as htapbench times view.route
//
// The bench uses only the public Database / ViewManager API, so the same
// source builds against an older library for an A/B of the serving path.

#include <benchmark/benchmark.h>

#include "bench_reporter.h"

OLTAP_BENCH_REPORTER("stmt_cache");

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "workload/chbench.h"

namespace oltap {
namespace {

const char* const kViewDdl[] = {
    "CREATE MATERIALIZED VIEW ol_wd_sync SYNC AS "
    "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id, ol_d_id",
    "CREATE MATERIALIZED VIEW ol_w_deferred DEFERRED AS "
    "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id",
};
const char* const kRoutedSql[] = {
    "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id, ol_d_id",
    "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id",
};

// The routed queries with `WHERE ol_w_id < <literal>`: a filter on a
// group column, which the rewrite keeps as a residual over the view.
std::string RoutedWithLiteral(size_t q, int64_t literal) {
  const std::string where = " WHERE ol_w_id < " + std::to_string(literal);
  return q == 0 ? "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, "
                  "SUM(ol_quantity) AS qty FROM orderline" +
                      where + " GROUP BY ol_w_id, ol_d_id"
                : "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
                  "FROM orderline" +
                      where + " GROUP BY ol_w_id";
}

// Never repeats within a process, so no literal text is seen twice.
int64_t NextLiteral() {
  static int64_t next = 1000000;
  return next++;
}

struct World {
  Database db;
  std::unique_ptr<CHBenchmark> bench;

  World() {
    CHConfig config;
    config.warehouses = 4;
    config.initial_orders_per_district = 150;
    bench = std::make_unique<CHBenchmark>(&db, config);
    if (!bench->CreateTables().ok() || !bench->Load().ok()) std::abort();
    for (const char* ddl : kViewDdl) {
      if (!db.Execute(ddl).ok()) std::abort();
    }
  }
};

World* GetWorld() {
  static World* world = new World();
  return world;
}

uint64_t Routed() {
  return obs::MetricsRegistry::Default()->GetCounter("view.routed")->Value();
}

// Runs `sql_of(i)` per iteration; reports the share that read a view.
template <typename SqlOf>
void RunReads(benchmark::State& state, SqlOf sql_of) {
  Database* db = &GetWorld()->db;
  const uint64_t routed = Routed();
  size_t i = 0;
  for (auto _ : state) {
    auto r = db->Execute(sql_of(i++));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r->rows.data());
  }
  state.counters["routed_share"] =
      static_cast<double>(Routed() - routed) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}

void BM_RoutedRepeated(benchmark::State& state) {
  RunReads(state, [](size_t i) { return std::string(kRoutedSql[i % 2]); });
}
BENCHMARK(BM_RoutedRepeated)->Unit(benchmark::kMicrosecond);

void BM_RoutedUniqueLiteral(benchmark::State& state) {
  RunReads(state,
           [](size_t i) { return RoutedWithLiteral(i % 2, NextLiteral()); });
}
BENCHMARK(BM_RoutedUniqueLiteral)->Unit(benchmark::kMicrosecond);

void BM_BaseUniqueLiteral(benchmark::State& state) {
  RunReads(state, [](size_t) {
    return "SELECT w_id, w_ytd FROM warehouse WHERE w_id < " +
           std::to_string(NextLiteral());
  });
}
BENCHMARK(BM_BaseUniqueLiteral)->Unit(benchmark::kMicrosecond);

void BM_TryRoute(benchmark::State& state) {
  Database* db = &GetWorld()->db;
  sql::Statement stmts[2] = {sql::Parse(kRoutedSql[0]).value(),
                             sql::Parse(kRoutedSql[1]).value()};
  size_t i = 0;
  for (auto _ : state) {
    auto route = db->view_manager()->TryRoute(*stmts[i++ % 2].select,
                                              db->max_staleness_us());
    if (!route.has_value()) {
      state.SkipWithError("routed statement did not route");
      break;
    }
    benchmark::DoNotOptimize(route->view.data());
  }
}
BENCHMARK(BM_TryRoute)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace oltap
