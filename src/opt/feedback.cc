#include "opt/feedback.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace oltap {
namespace opt {
namespace {

// q-error with a +1 smoothing floor so empty results (actual = 0) grade
// against "under one row" instead of dividing by zero.
double QError(double est, double actual) {
  double e = std::max(est, 1.0);
  double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

}  // namespace

std::optional<PlanFeedback::Entry> PlanFeedback::Lookup(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return std::nullopt;
  ++it->second.uses;
  return it->second;
}

void PlanFeedback::RememberOrder(const std::string& fingerprint,
                                 std::vector<int> order) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[fingerprint];
  e.order = std::move(order);
}

double PlanFeedback::Observe(const std::string& fingerprint,
                             const std::vector<OpSample>& samples) {
  static obs::Histogram* qhist =
      obs::MetricsRegistry::Default()->GetHistogram("opt.qerror_x100");
  double worst = 1.0;
  for (const OpSample& s : samples) {
    if (s.est_rows < 0) continue;
    double q = QError(s.est_rows, s.actual_rows);
    worst = std::max(worst, q);
    qhist->Record(static_cast<uint64_t>(std::llround(q * 100.0)));
  }
  if (worst <= kQErrorReplanThreshold) return worst;

  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[fingerprint];
  if (!e.order.empty()) {
    e.order.clear();
    obs::MetricsRegistry::Default()
        ->GetCounter("opt.plan_invalidations")
        ->Add(1);
  }
  for (const OpSample& s : samples) {
    if (s.scan_from_index < 0) continue;
    size_t idx = static_cast<size_t>(s.scan_from_index);
    if (e.scan_actual_rows.size() <= idx) {
      e.scan_actual_rows.resize(idx + 1, -1.0);
    }
    e.scan_actual_rows[idx] = s.actual_rows;
    e.has_actuals = true;
  }
  return worst;
}

size_t PlanFeedback::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace opt
}  // namespace oltap
