#include "opt/cost_model.h"

#include <algorithm>
#include <optional>

namespace oltap {
namespace opt {

namespace {

// Estimated fraction of `main`'s zone-mapped zones that survive the pushed
// predicates (min across conjuncts; 1.0 when nothing prunes).
double EstimateZoneSurvival(
    const MainFragment& main,
    const std::vector<Expr::ColumnPredicate>& pushed) {
  if (main.num_rows() == 0) return 1.0;
  double survival = 1.0;
  for (const Expr::ColumnPredicate& cp : pushed) {
    if (cp.column < 0 ||
        static_cast<size_t>(cp.column) >= main.num_columns()) {
      continue;
    }
    const ColumnSegment& seg = main.column(static_cast<size_t>(cp.column));
    // ScanCompareZoned only prunes encodings with a code-space rewrite;
    // raw int64 and double segments scan in full regardless of the map.
    if (seg.encoding() == ColumnSegment::Encoding::kRaw) continue;
    if (seg.type() == ValueType::kString) continue;  // code-domain bounds
    if (cp.constant.is_null() || cp.constant.type() == ValueType::kString) {
      continue;
    }
    const ZoneMap& zm = seg.zone_map();
    if (zm.num_zones() == 0) continue;
    size_t matching = 0;
    double c = cp.constant.AsDouble();
    for (size_t z = 0; z < zm.num_zones(); ++z) {
      if (zm.ZoneMayMatch(z, cp.op, c)) ++matching;
    }
    survival = std::min(survival, static_cast<double>(matching) /
                                      static_cast<double>(zm.num_zones()));
  }
  return survival;
}

}  // namespace

CostModel::ScanDecision CostModel::CostScan(
    const Table& table, Timestamp read_ts,
    const std::vector<Expr::ColumnPredicate>& pushed,
    double est_out_rows) const {
  est_out_rows = std::max(est_out_rows, 0.0);

  ScanDecision row_side;
  row_side.path = AccessPath::kRow;
  row_side.out_rows = est_out_rows;
  if (table.row_table() != nullptr) {
    row_side.scan_rows = static_cast<double>(table.row_table()->num_keys());
    row_side.cost = row_side.scan_rows * kRowScanPerRow;
  }

  // Main size, delta size and zone maps all come from one snapshot.
  std::optional<ColumnTable::Snapshot> snap =
      table.GetColumnSnapshot(read_ts);
  if (!snap.has_value()) return row_side;

  ScanDecision col_side;
  col_side.path = AccessPath::kColumn;
  col_side.out_rows = est_out_rows;
  col_side.zone_survival = EstimateZoneSurvival(*snap->main, pushed);
  const double main_rows = static_cast<double>(snap->main->num_rows());
  const double delta_rows = static_cast<double>(snap->delta_rows());
  col_side.scan_rows = main_rows + delta_rows;
  col_side.cost = kColumnScanPerScan +
                  main_rows * kColumnScanPerRow * col_side.zone_survival +
                  delta_rows * kDeltaScanPerRow + est_out_rows * kGatherPerRow;

  if (table.row_table() == nullptr) return col_side;
  return col_side.cost <= row_side.cost ? col_side : row_side;
}

CostModel::JoinCost CostModel::CostHashJoin(double build_rows,
                                            double probe_rows,
                                            double out_rows) const {
  JoinCost jc;
  build_rows = std::max(build_rows, 0.0);
  probe_rows = std::max(probe_rows, 0.0);
  out_rows = std::max(out_rows, 0.0);
  jc.cost = build_rows * kHashBuildPerRow + probe_rows * kHashProbePerRow +
            out_rows * kJoinOutputPerRow;
  jc.build_bytes = build_rows * kBuildBytesPerRow;
  return jc;
}

}  // namespace opt
}  // namespace oltap
