#ifndef OLTAP_DIST_CIRCUIT_BREAKER_H_
#define OLTAP_DIST_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace oltap {

// Per-remote-node circuit breaker (the Nygard pattern every RPC mesh
// ships): a node that keeps timing out is declared dead for a cooldown so
// callers shed its traffic in O(1) instead of burning a full retry budget
// per call while a partition lasts.
//
// States: kClosed (healthy, calls pass) → kOpen after
// `failure_threshold` consecutive failures (calls rejected kUnavailable
// without touching the network) → kHalfOpen after `open_cooldown_us`
// (up to `half_open_probes` trial calls pass) → kClosed on a probe
// success, back to kOpen on a probe failure.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  struct Options {
    int failure_threshold = 3;      // consecutive failures to trip
    int64_t open_cooldown_us = 10'000;  // open → half-open delay
    int half_open_probes = 1;       // concurrent trial calls allowed
    const Clock* clock = nullptr;   // defaults to SystemClock
  };

  explicit CircuitBreaker(const Options& options);

  // OK if the caller may attempt the remote call now (and, in half-open,
  // reserves a probe slot); kUnavailable while the breaker is shedding.
  Status Allow();

  // Outcome of an attempted call admitted by Allow().
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  uint64_t rejected() const { return rejected_.Value(); }

 private:
  // Open → half-open promotion once the cooldown elapsed. Caller holds mu_.
  void MaybePromoteLocked(int64_t now_us);

  Options options_;
  const Clock* clock_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probes_in_flight_ = 0;
  int64_t opened_at_us_ = 0;
  obs::Counter rejected_;
};

// One breaker per remote node, plus the obs surface: gauge
// `dist.breaker_open` tracks how many breakers are currently open, and
// counters `dist.breaker.trips` / `dist.breaker.rejected` make shed
// traffic visible in SHOW STATS.
class CircuitBreakerSet {
 public:
  CircuitBreakerSet(int num_nodes, const CircuitBreaker::Options& options);

  CircuitBreaker* ForNode(int node) { return breakers_[node].get(); }
  int num_nodes() const { return static_cast<int>(breakers_.size()); }

  // Convenience wrappers keeping the obs gauge in sync with state
  // transitions (the breaker itself is obs-agnostic so it unit-tests
  // without the registry).
  Status Allow(int node);
  void RecordSuccess(int node);
  void RecordFailure(int node);

  // Breakers currently open (recomputed, not cached).
  int open_count() const;

 private:
  void SyncGauge();

  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace oltap

#endif  // OLTAP_DIST_CIRCUIT_BREAKER_H_
