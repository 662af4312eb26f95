#ifndef OLTAP_TESTS_FAILPOINT_FIXTURE_H_
#define OLTAP_TESTS_FAILPOINT_FIXTURE_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "gtest/gtest.h"

namespace oltap {

// Failpoint hygiene for fault-injection tests. The registry is process-
// global, so one test that exits with a failpoint still armed silently
// injects faults into every later test in the binary. This fixture
// guarantees a clean registry on entry and *asserts* (not just cleans)
// that the test disarmed everything it enabled.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Get().DisableAll(); }

  void TearDown() override {
    std::vector<std::string> active = FailpointRegistry::Get().ActiveList();
    if (!active.empty()) {
      std::string joined;
      for (const std::string& name : active) {
        if (!joined.empty()) joined += ", ";
        joined += name;
      }
      ADD_FAILURE() << "test left failpoints armed: " << joined;
      FailpointRegistry::Get().DisableAll();
    }
  }
};

// A pause point: armed on a site through Config(), it parks every thread
// whose hit fires until Open(), and injects nothing (OK status). Tests use
// it to hold one thread mid-operation — a group-commit leader before it
// takes its batch, say — while they queue more work, with no sleeps.
class FailpointGate {
 public:
  ~FailpointGate() { Open(); }  // never strand a parked thread

  FailpointConfig Config(int max_fires = 1) {
    FailpointConfig cfg;
    cfg.max_fires = max_fires;
    cfg.status = Status::OK();
    cfg.action = [this] {
      std::unique_lock<std::mutex> lock(mu_);
      ++arrived_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    };
    return cfg;
  }

  // Blocks until `n` threads have reached the gate.
  void AwaitArrivals(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

}  // namespace oltap

#endif  // OLTAP_TESTS_FAILPOINT_FIXTURE_H_
