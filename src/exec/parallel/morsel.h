#ifndef OLTAP_EXEC_PARALLEL_MORSEL_H_
#define OLTAP_EXEC_PARALLEL_MORSEL_H_

#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "exec/batch.h"

namespace oltap {

// Morsel-driven parallelism (HyPer-style): the leaf of a parallel pipeline
// splits its input into fixed-row morsels, workers pull morsels from a
// shared atomic cursor, and every operator fused into the pipeline runs
// inside the worker on that morsel's batches with worker-local state.
//
// Determinism contract: morsel index == slot index == position of that
// morsel's rows in the *serial* scan order. Consumers either merge
// per-slot state in ascending slot order (parallel aggregate) or
// concatenate slot output in ascending slot order (materialized mode), so
// the visible row stream is byte-identical to serial execution at any DOP.

// Rows of the main fragment per morsel. A multiple of the 1024-row zone
// size and of kDefaultBatchRows; small enough that a morsel's gathered
// batches stay cache-friendly, large enough to amortize dispatch.
inline constexpr size_t kMorselRows = 8192;

// Tables below this approximate cardinality are not worth parallelizing
// (the serial prepare phase would dominate).
inline constexpr size_t kMinParallelScanRows = 4096;

// Execution resources granted to one operator: the shared worker pool and
// the degree of parallelism (total workers, *including* the query thread —
// the caller always participates, so a saturated pool can never stall a
// query). DOP 1 is serial execution.
struct ParallelContext {
  ThreadPool* pool = nullptr;
  size_t dop = 1;
};

// Slot-indexed batch sink. May be invoked concurrently from different
// workers, but all batches of one slot come from a single worker, in
// order.
using MorselSink = std::function<void(size_t slot, Batch&& batch)>;

// A pipeline stage that can produce its output morsel-parallel. The
// operators implementing it (exec/operators.h) are also PhysicalOps: a
// parallel parent fuses them into its workers through Drive(), a serial
// parent pulls them through Open()/NextBatch().
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  // Serial preparation on the query thread (snapshot, pushdown, hash
  // build). After this, slots() is valid. Idempotent.
  virtual void PrepareMorsels() = 0;

  // Number of output slots (morsels) this source will produce.
  virtual size_t slots() const = 0;

  // Produces every slot, calling `sink` from up to dop workers. Returns
  // after all slots are produced (worker completion synchronizes with the
  // return, so the caller may read sink-written state without locks).
  virtual void Drive(const MorselSink& sink) = 0;
};

// Materialized slot store for a DOP >= 2 operator under a serial parent:
// workers append batches to their slot concurrently (the slot vector is
// pre-sized, distinct slots never alias), then NextBatch streams slots in
// ascending order — the serial row stream.
class SlotBuffer {
 public:
  void Reset(size_t num_slots);
  void Append(size_t slot, Batch&& batch);
  // Streams the next non-empty batch in slot order; false when exhausted.
  bool Next(Batch* out);

 private:
  std::vector<std::vector<Batch>> slots_;
  size_t slot_ = 0;
  size_t idx_ = 0;
};

}  // namespace oltap

#endif  // OLTAP_EXEC_PARALLEL_MORSEL_H_
