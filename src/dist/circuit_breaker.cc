#include "dist/circuit_breaker.h"

#include "common/logging.h"

namespace oltap {

CircuitBreaker::CircuitBreaker(const Options& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : SystemClock::Get()) {
  OLTAP_CHECK(options_.failure_threshold >= 1);
  OLTAP_CHECK(options_.half_open_probes >= 1);
}

void CircuitBreaker::MaybePromoteLocked(int64_t now_us) {
  if (state_ == State::kOpen &&
      now_us - opened_at_us_ >= options_.open_cooldown_us) {
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
  }
}

Status CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybePromoteLocked(clock_->NowMicros());
  switch (state_) {
    case State::kClosed:
      return Status::OK();
    case State::kOpen:
      rejected_.Add(1);
      return Status::Unavailable("circuit breaker open");
    case State::kHalfOpen:
      if (probes_in_flight_ >= options_.half_open_probes) {
        rejected_.Add(1);
        return Status::Unavailable("circuit breaker half-open, probe budget used");
      }
      ++probes_in_flight_;
      return Status::OK();
  }
  return Status::OK();
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  probes_in_flight_ = 0;
  // Any success closes the breaker: in half-open it is the probe that
  // proves recovery; in closed it just clears the failure streak.
  state_ = State::kClosed;
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    // The probe failed: the node is still dead, restart the cooldown.
    state_ = State::kOpen;
    opened_at_us_ = clock_->NowMicros();
    probes_in_flight_ = 0;
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= options_.failure_threshold) {
    state_ = State::kOpen;
    opened_at_us_ = clock_->NowMicros();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Report promotion lazily so observers see half-open once the cooldown
  // elapsed even if no call has arrived yet.
  auto* self = const_cast<CircuitBreaker*>(this);
  self->MaybePromoteLocked(clock_->NowMicros());
  return state_;
}

CircuitBreakerSet::CircuitBreakerSet(int num_nodes,
                                     const CircuitBreaker::Options& options) {
  OLTAP_CHECK(num_nodes >= 1);
  breakers_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(options));
  }
}

Status CircuitBreakerSet::Allow(int node) {
  Status st = breakers_[node]->Allow();
  if (!st.ok()) {
    static obs::Counter* rejected =
        obs::MetricsRegistry::Default()->GetCounter("dist.breaker.rejected");
    rejected->Add(1);
  }
  return st;
}

void CircuitBreakerSet::RecordSuccess(int node) {
  breakers_[node]->RecordSuccess();
  SyncGauge();
}

void CircuitBreakerSet::RecordFailure(int node) {
  CircuitBreaker::State before = breakers_[node]->state();
  breakers_[node]->RecordFailure();
  if (before != CircuitBreaker::State::kOpen &&
      breakers_[node]->state() == CircuitBreaker::State::kOpen) {
    static obs::Counter* trips =
        obs::MetricsRegistry::Default()->GetCounter("dist.breaker.trips");
    trips->Add(1);
  }
  SyncGauge();
}

int CircuitBreakerSet::open_count() const {
  int open = 0;
  for (const auto& b : breakers_) {
    if (b->state() == CircuitBreaker::State::kOpen) ++open;
  }
  return open;
}

void CircuitBreakerSet::SyncGauge() {
  static obs::Gauge* open_gauge =
      obs::MetricsRegistry::Default()->GetGauge("dist.breaker_open");
  open_gauge->Set(open_count());
}

}  // namespace oltap
