#ifndef OLTAP_OPT_COST_MODEL_H_
#define OLTAP_OPT_COST_MODEL_H_

#include <vector>

#include "exec/expr.h"
#include "storage/table.h"

namespace oltap {
namespace opt {

// Which physical side a scan should read. kAuto preserves the engine's
// historical behavior (column side whenever one exists); the optimizer
// resolves dual-format tables to an explicit side, and benches force the
// wrong side to measure the gap (E16).
enum class AccessPath : uint8_t { kAuto, kRow, kColumn };

// Unitless cost model. One unit ~= the work of visiting one key through
// the row mirror's scan (skip-list step, version-chain visibility check,
// predicate, projected cells): 27-33 ns per key on a narrow table in the
// E16 access-path sweep (bench_optimizer BM_AccessPath, 4-vCPU Xeon). The
// scan constants below are that sweep's least-squares fit of the column
// side's median scan times, divided by that per-key time; the join
// constants predate it. Only comparisons between plans matter.
struct CostModel {
  // Row mirror, per key (live or not: the scan steps over every entry).
  static constexpr double kRowScanPerRow = 1.0;
  // Column side, once per scan: snapshot, main visibility mask, delta
  // capture, predicate split (about 0.6-0.75 us).
  static constexpr double kColumnScanPerScan = 20.0;
  // Packed/SWAR columnar kernel and visibility mask, per main row.
  static constexpr double kColumnScanPerRow = 0.012;
  // Columnar delta, per appended row, dead versions included: the chunk
  // visibility pass visits them all, and the typed filters run word-wise
  // over the chunk (1.5-2.5 ns per row).
  static constexpr double kDeltaScanPerRow = 0.065;
  // Tuple reconstruction (gather) per selected output row of a column scan.
  static constexpr double kGatherPerRow = 0.37;
  // Hash-join build per build row and probe per probe row.
  static constexpr double kHashBuildPerRow = 2.0;
  static constexpr double kHashProbePerRow = 1.2;
  // Per emitted join output row.
  static constexpr double kJoinOutputPerRow = 0.3;
  // Hash-join memory footprint per materialized build row (bytes-ish,
  // only used for reporting / sanity in EXPLAIN, not plan choice yet).
  static constexpr double kBuildBytesPerRow = 64.0;

  struct ScanDecision {
    AccessPath path = AccessPath::kAuto;  // resolved side (kAuto = forced)
    double cost = 0;
    double out_rows = 0;
    // Rows the chosen side visits: the row mirror's keys, or the column
    // side's main plus every appended delta row.
    double scan_rows = 0;
    // Estimated fraction of main-fragment zones a zone-mapped scan must
    // actually touch (1.0 = no pruning expected).
    double zone_survival = 1.0;
  };

  // Costs scanning `table` at `read_ts` with the (table-local) predicate
  // whose pushable conjuncts are `pushed`, expecting `est_out_rows`
  // output rows. Picks the cheaper mirror for dual-format tables: the row
  // side costs keys * kRowScanPerRow; the column side costs
  // kColumnScanPerScan + main rows * kColumnScanPerRow * zone survival +
  // delta rows * kDeltaScanPerRow + est_out_rows * kGatherPerRow, with
  // every size read from one snapshot.
  ScanDecision CostScan(const Table& table, Timestamp read_ts,
                        const std::vector<Expr::ColumnPredicate>& pushed,
                        double est_out_rows) const;

  struct JoinCost {
    double cost = 0;          // build + probe + output
    double build_bytes = 0;   // estimated build-side footprint
  };
  JoinCost CostHashJoin(double build_rows, double probe_rows,
                        double out_rows) const;
};

}  // namespace opt
}  // namespace oltap

#endif  // OLTAP_OPT_COST_MODEL_H_
