#include "obs/metrics.h"

#include <bit>

namespace oltap {
namespace obs {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void Histogram::Record(uint64_t value) {
#ifndef OLTAP_OBS_DISABLED
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value,
                                     std::memory_order_relaxed)) {
  }
#else
  (void)value;
#endif
}

size_t Histogram::BucketOf(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));  // 0 for v == 0
}

uint64_t Histogram::BucketUpper(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return ~0ULL;
  return (1ULL << i) - 1;
}

HistogramSnapshot Histogram::Snapshot() const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  HistogramSnapshot s;
  s.count = total;
  if (total == 0) return s;
  s.max = max_.load(std::memory_order_relaxed);
  s.mean = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(total);
  auto percentile = [&](double q) -> uint64_t {
    // Rank of the q-quantile observation, then the upper edge of the
    // bucket containing it (clamped to the recorded max).
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) return std::min(BucketUpper(i), s.max);
    }
    return s.max;
  };
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  s.p999 = percentile(0.999);
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

namespace {

// Metrics that must appear in every export (SHOW STATS, bench JSON) even
// before the first event — the dashboard contract, not an allowlist:
// subsystems may register more at runtime.
void RegisterCoreMetrics(MetricsRegistry* r) {
  for (const char* name :
       {"txn.commits", "txn.aborts", "wal.records", "wal.bytes",
        "wal.batches", "wal.fsyncs",
        "txn.write_conflicts", "exec.queries",
        "exec.rows_out", "sharedscan.attached", "sharedscan.chunks",
        "merge.runs", "merge.tables_merged", "merge.rows_merged",
        "merge.bytes_merged", "wm.rejected_olap", "wm.expired_in_queue",
        "2pc.commits", "2pc.aborts", "2pc.prepare_retries",
        "2pc.finish_retries", "2pc.indecision_aborts", "net.messages",
        "net.bytes", "net.dropped", "net.duplicated", "net.retries",
        "raft.messages", "dist.breaker.trips", "dist.breaker.rejected",
        "dist.leader_failovers", "dist.read_failovers",
        "dist.write_quorum_failures", "sched.admitted", "sched.shed",
        "sched.degraded", "opt.plans", "opt.plans_optimized",
        "opt.analyze_runs", "opt.order_cache_hits",
        "opt.plan_invalidations", "opt.feedback_replans", "opt.path_row",
        "opt.path_column", "view.maintain_runs", "view.changes_applied",
        "view.rebuilds", "view.group_recomputes", "view.routed",
        "view.route_considered", "ckpt.written", "ckpt.failed",
        "ckpt.fallbacks", "wal.truncated_bytes"}) {
    r->GetCounter(name);
  }
  for (const char* name :
       {"wm.queue_depth.oltp", "wm.queue_depth.olap", "storage.delta_rows",
        "storage.freshness_lag_us", "dist.breaker_open", "wal.sealed",
        "wal.segments", "wal.retained_bytes", "ckpt.age_us",
        "ckpt.last_ts"}) {
    r->GetGauge(name);
  }
  for (const char* name :
       {"wal.append_ns", "wal.fsync_ns", "wal.batch_size",
        "wal.group_wait_us", "txn.commit_ns", "txn.commit.lock_ns",
        "txn.commit.validate_ns", "txn.commit.log_ns", "txn.commit.apply_ns",
        "txn.commit.visible_ns",
        "wm.latency_us.oltp", "wm.latency_us.olap", "opt.qerror_x100",
        "view.maintain_ns", "view.freshness_lag_us", "ckpt.duration_us"}) {
    r->GetHistogram(name);
  }
}

}  // namespace

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* instance = [] {
    auto* r = new MetricsRegistry();
    RegisterCoreMetrics(r);
    return r;
  }();
  return instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace obs
}  // namespace oltap
