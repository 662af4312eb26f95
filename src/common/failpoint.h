#ifndef OLTAP_COMMON_FAILPOINT_H_
#define OLTAP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace oltap {

// Fault-injection sites ("failpoints") compiled into library code, in the
// style of FreeBSD fail(9) / TiKV fail-rs. A site is declared inline with
// OLTAP_FAILPOINT("wal.append.torn"); tests arm it through the global
// registry with a count / probability / error-status trigger. When a site
// is not armed its entire cost is one relaxed atomic load and a
// predictable branch, so failpoints stay in release builds.

// How an armed failpoint decides whether a given hit fires.
struct FailpointConfig {
  // Hits to pass through untouched before the site becomes eligible to
  // fire ("fail the 7th WAL append").
  int skip = 0;
  // Fire at most this many times, then disarm automatically; <= 0 means
  // unlimited (fire until Disable).
  int max_fires = 1;
  // Chance that an eligible hit fires. Draws come from a deterministic
  // per-failpoint Rng seeded below, so runs are reproducible.
  double probability = 1.0;
  // The error the firing site injects.
  Status status = Status::Internal("injected failure");
  // Runs on the hitting thread each time the site fires, before `status`
  // is injected. With an OK status the site injects nothing, so an action
  // that blocks parks the thread at the site — a pause point for tests
  // that hold one thread mid-operation while others act.
  std::function<void()> action;
  uint64_t seed = 42;
};

// One named injection site. Instances live forever in the registry;
// call sites cache a reference in a function-local static.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  const std::string& name() const { return name_; }

  // The only cost paid on un-armed hot paths: a relaxed atomic load.
  bool IsActive() const { return active_.load(std::memory_order_relaxed); }

  // Records a hit and applies the trigger (skip, then probability, then
  // max_fires). Returns the configured error when firing, OK otherwise.
  // Thread-safe; counters are only maintained while armed.
  Status Evaluate();

  void Enable(const FailpointConfig& config);
  void Disable() { active_.store(false, std::memory_order_relaxed); }

  // Hits / fires since the last Enable.
  uint64_t hits() const;
  uint64_t fires() const;

 private:
  const std::string name_;
  std::atomic<bool> active_{false};

  mutable std::mutex mu_;
  FailpointConfig config_;
  int skip_remaining_ = 0;
  int fires_remaining_ = 0;  // <= 0 means unlimited
  uint64_t hits_ = 0;
  uint64_t fires_ = 0;
  Rng rng_{42};
};

// Process-wide name -> Failpoint map. Registration is idempotent and
// thread-safe; failpoints are never destroyed (sites hold references).
class FailpointRegistry {
 public:
  static FailpointRegistry& Get();

  Failpoint& Register(const std::string& name);

  // nullptr if no site with this name has been registered or enabled yet.
  Failpoint* Find(const std::string& name);

  // Arms `name`, registering it on the fly (tests may arm before the
  // first hit registers the site).
  void Enable(const std::string& name, const FailpointConfig& config);
  void Disable(const std::string& name);
  void DisableAll();

  // Names of every currently-armed failpoint, sorted. Test fixtures use
  // this to assert no site leaked past a test's lifetime.
  std::vector<std::string> ActiveList();

 private:
  FailpointRegistry() = default;

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_;
};

// RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, const FailpointConfig& config)
      : name_(std::move(name)) {
    FailpointRegistry::Get().Enable(name_, config);
  }
  ~ScopedFailpoint() { FailpointRegistry::Get().Disable(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  const std::string name_;
};

}  // namespace oltap

// Declares a failpoint inside a function returning Status or Result<T>:
// when the armed site fires, the injected error is returned from the
// enclosing function. Inactive cost: one relaxed atomic load + branch.
#define OLTAP_FAILPOINT(name)                                  \
  do {                                                         \
    static ::oltap::Failpoint& _oltap_fp =                     \
        ::oltap::FailpointRegistry::Get().Register(name);      \
    if (_oltap_fp.IsActive()) {                                \
      ::oltap::Status _oltap_fp_st = _oltap_fp.Evaluate();     \
      if (!_oltap_fp_st.ok()) return _oltap_fp_st;             \
    }                                                          \
  } while (0)

// Expression form for sites that need custom fault handling (torn writes,
// lost messages): evaluates to the fired Status, or OK when the site is
// inactive or elects not to fire this hit.
#define OLTAP_FAILPOINT_STATUS(name)                           \
  ([]() -> ::oltap::Status {                                   \
    static ::oltap::Failpoint& _oltap_fp =                     \
        ::oltap::FailpointRegistry::Get().Register(name);      \
    if (!_oltap_fp.IsActive()) return ::oltap::Status::OK();   \
    return _oltap_fp.Evaluate();                               \
  }())

#endif  // OLTAP_COMMON_FAILPOINT_H_
