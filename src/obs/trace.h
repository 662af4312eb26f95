#ifndef OLTAP_OBS_TRACE_H_
#define OLTAP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace oltap {
namespace obs {

// Monotonic nanoseconds, the time base for all spans and latency
// histograms.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// RAII span: measures the enclosing scope and adds the elapsed
// nanoseconds to a raw accumulator and/or a latency histogram. With
// OLTAP_OBS_DISABLED the constructor and destructor compile to nothing
// (not even a clock read).
class ScopedTimer {
 public:
  explicit ScopedTimer(uint64_t* sink_ns, Histogram* hist = nullptr)
#ifndef OLTAP_OBS_DISABLED
      : sink_(sink_ns), hist_(hist), start_(MonotonicNanos()) {
  }
#else
  {
    (void)sink_ns;
    (void)hist;
  }
#endif
  explicit ScopedTimer(Histogram* hist) : ScopedTimer(nullptr, hist) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
#ifndef OLTAP_OBS_DISABLED
    uint64_t elapsed = MonotonicNanos() - start_;
    if (sink_ != nullptr) *sink_ += elapsed;
    if (hist_ != nullptr) hist_->Record(elapsed);
#endif
  }

 private:
#ifndef OLTAP_OBS_DISABLED
  uint64_t* sink_;
  Histogram* hist_;
  uint64_t start_;
#endif
};

// Lap clock of a multi-stage operation: Lap records the time since the
// previous lap into that stage's histogram, Total the time from
// construction to the last lap, so the stages add up to the total. Reads
// no clock under OLTAP_OBS_DISABLED.
class StageClock {
 public:
#ifndef OLTAP_OBS_DISABLED
  void Lap(Histogram* stage) {
    const uint64_t now = MonotonicNanos();
    stage->Record(now - last_);
    last_ = now;
  }
  void Total(Histogram* total) const { total->Record(last_ - start_); }

 private:
  uint64_t start_ = MonotonicNanos();
  uint64_t last_ = start_;
#else
  void Lap(Histogram*) {}
  void Total(Histogram*) const {}
#endif
};

// Per-operator execution statistics, accumulated by the instrumented
// pull API (PhysicalOp::OpenTimed / NextBatchTimed). Times are
// *inclusive*: an operator's span covers its children's work too, the
// way EXPLAIN ANALYZE conventionally reports.
struct OpStats {
  uint64_t rows = 0;      // rows emitted
  uint64_t batches = 0;   // NextBatch calls that produced output
  uint64_t open_ns = 0;   // time inside Open (build/sort/materialize)
  uint64_t next_ns = 0;   // time inside all NextBatch calls

  uint64_t total_ns() const { return open_ns + next_ns; }
  void Reset() { *this = OpStats{}; }
};

// The profile of one executed query: the operator tree annotated with
// rows/batches/time per operator. Built from a finished physical plan
// (exec/executor.h: BuildQueryProfile) and rendered by EXPLAIN ANALYZE.
struct QueryProfile {
  struct Node {
    std::string name;  // operator self-description
    uint64_t rows = 0;
    uint64_t batches = 0;
    uint64_t time_ns = 0;  // inclusive
    // Planner row estimate for est-vs-actual reporting; < 0 = none.
    double est_rows = -1;
    std::vector<Node> children;
  };
  Node root;

  // Indented one-line-per-operator rendering:
  //   HashAgg(...) rows=5 batches=1 time=1.234ms
  std::string Render() const;
};

}  // namespace obs
}  // namespace oltap

#endif  // OLTAP_OBS_TRACE_H_
