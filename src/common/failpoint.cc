#include "common/failpoint.h"

namespace oltap {

Status Failpoint::Evaluate() {
  std::unique_lock<std::mutex> lock(mu_);
  // Re-check under the lock: Disable may have raced the caller's
  // IsActive() fast path.
  if (!active_.load(std::memory_order_relaxed)) return Status::OK();
  ++hits_;
  if (skip_remaining_ > 0) {
    --skip_remaining_;
    return Status::OK();
  }
  if (config_.probability < 1.0 && !rng_.Bernoulli(config_.probability)) {
    return Status::OK();
  }
  ++fires_;
  if (fires_remaining_ > 0 && --fires_remaining_ == 0) {
    // Exhausted: disarm so the site goes back to zero-cost.
    active_.store(false, std::memory_order_relaxed);
  }
  Status st = config_.status;
  if (config_.action) {
    // Outside the lock: a blocking action must not stall other hits.
    std::function<void()> action = config_.action;
    lock.unlock();
    action();
  }
  return st;
}

void Failpoint::Enable(const FailpointConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  skip_remaining_ = config.skip;
  fires_remaining_ = config.max_fires;
  hits_ = 0;
  fires_ = 0;
  rng_ = Rng(config.seed);
  active_.store(true, std::memory_order_relaxed);
}

uint64_t Failpoint::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t Failpoint::fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fires_;
}

FailpointRegistry& FailpointRegistry::Get() {
  static FailpointRegistry* instance = new FailpointRegistry();
  return *instance;
}

Failpoint& FailpointRegistry::Register(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<Failpoint>(name)).first;
  }
  return *it->second;
}

Failpoint* FailpointRegistry::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

void FailpointRegistry::Enable(const std::string& name,
                               const FailpointConfig& config) {
  Register(name).Enable(config);
}

void FailpointRegistry::Disable(const std::string& name) {
  Failpoint* fp = Find(name);
  if (fp != nullptr) fp->Disable();
}

void FailpointRegistry::DisableAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, fp] : points_) fp->Disable();
}

std::vector<std::string> FailpointRegistry::ActiveList() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> active;
  for (auto& [name, fp] : points_) {
    if (fp->IsActive()) active.push_back(name);
  }
  return active;
}

}  // namespace oltap
