#ifndef OLTAP_EXEC_OPERATORS_H_
#define OLTAP_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/parallel/morsel.h"
#include "obs/trace.h"
#include "storage/column_store.h"
#include "storage/table.h"

namespace oltap {

// Batch-iterator (vectorized Volcano) physical operator. Open() once, then
// NextBatch until it returns false. Single-threaded per pipeline unless
// the operator is a MorselOp granted DOP >= 2.
//
// Parents and the executor drive children through the instrumented
// OpenTimed/NextBatchTimed entry points, so every operator accumulates
// rows/batches/inclusive-time into op_stats() — the raw material of
// EXPLAIN ANALYZE (obs::QueryProfile). The cost is one clock read per
// batch (~2k rows), compiled out under OLTAP_OBS_DISABLED.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;
  virtual void Open() = 0;
  // Fills `out` (cleared first) with up to kDefaultBatchRows rows; returns
  // false when exhausted (out may still carry a final partial batch).
  virtual bool NextBatch(Batch* out) = 0;
  virtual std::vector<ValueType> OutputTypes() const = 0;
  // One-line self-description for EXPLAIN output.
  virtual std::string Describe() const = 0;
  // Child operators, for plan-tree rendering.
  virtual std::vector<const PhysicalOp*> Children() const { return {}; }

  // Instrumented pull API: Open + NextBatch with per-operator profiling.
  void OpenTimed();
  bool NextBatchTimed(Batch* out);
  const obs::OpStats& op_stats() const { return stats_; }

  // Optimizer annotations. Negative (the default) means "no estimate":
  // EXPLAIN omits the annotation entirely, which keeps non-optimized
  // plans rendering byte-for-byte as they always have.
  void set_estimates(double est_rows, double est_cost) {
    est_rows_ = est_rows;
    est_cost_ = est_cost;
  }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }

 protected:
  // Morsel-driven (fused) execution produces rows inside Drive() without
  // going through NextBatchTimed; parallel operators account what their
  // workers produced here so EXPLAIN ANALYZE row counts stay meaningful.
  void AccountDriven(size_t rows, size_t batches, uint64_t ns) {
    stats_.rows += rows;
    stats_.batches += batches;
    stats_.next_ns += ns;
  }
  void AccountPrepared(uint64_t ns) { stats_.open_ns += ns; }

 private:
  obs::OpStats stats_;
  double est_rows_ = -1;
  double est_cost_ = -1;
};

// Renders the operator tree, one indented line per node (EXPLAIN).
std::string ExplainPlan(const PhysicalOp* root);

// Builds the EXPLAIN ANALYZE profile from an executed plan: the operator
// tree annotated with each node's op_stats(). Call after the plan has run
// through the instrumented pull API.
obs::QueryProfile BuildQueryProfile(const PhysicalOp* root);

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

// The operators that run morsel-parallel: scan, filter, hash join and hash
// aggregate. Each one is a single class whose per-row work lives in const
// member functions with two drivers over it:
//   * Open()/NextBatch() — DOP 1, streaming batch by batch; and the
//     fallback when a DOP >= 2 operator sits under a serial parent, which
//     then runs Drive's slots into a SlotBuffer and streams it in slot
//     order;
//   * Drive() — DOP >= 2, called by a parallel parent that fuses this
//     operator into its workers.
// Serial execution is DOP 1: the planner grants a context per operator and
// Describe() renders "Parallel…(…, dop=N)" only for DOP >= 2.
class MorselOp : public PhysicalOp, public MorselSource {
 public:
  // Runs DoPrepareMorsels() and accounts its time in op_stats(): a
  // parent prepares its driven child before driving it, and that serial
  // work is the child's, not the parent's.
  void PrepareMorsels() final;
  // The default source is one slot holding the serial stream.
  size_t slots() const override { return 1; }
  // Produces every slot and accounts the rows and the time, preparation
  // included, in op_stats(): a driven operator is never pulled through
  // NextBatchTimed.
  void Drive(const MorselSink& sink) final;

  size_t dop() const { return ctx_.dop; }

 protected:
  explicit MorselOp(ParallelContext ctx) : ctx_(ctx) {}

  bool parallel() const { return ctx_.dop >= 2; }
  // The serial preparation (snapshot, pushdown, hash build); idempotent.
  // An operator's own Open() calls it untimed: OpenTimed() holds the clock.
  virtual void DoPrepareMorsels() {}
  // Produces every slot through `sink`; DoPrepareMorsels() has run. The
  // default opens the operator and sinks its NextBatch stream as slot 0.
  virtual void DriveSlots(const MorselSink& sink);
  // DOP >= 2 under a serial parent: produces every slot into slot_buf_,
  // which NextBatch then streams in slot order.
  void DriveIntoSlotBuffer();

  ParallelContext ctx_;
  SlotBuffer slot_buf_;
};

// Table scan with predicate pushdown. For columnar tables, the pushable
// (column <op> const) conjuncts run as packed-segment kernels with zone-map
// pruning over the main and as typed compare loops over each delta chunk,
// the residual predicate runs vectorized per batch over only the columns
// it reads, and only the projected columns of the rows that pass are
// gathered. Row-table rows are tested in place and their projected cells
// appended to a columnar pending batch.
//
// Columnar scans are split into slots: one per kMorselRows morsel of the
// main fragment, then one per delta chunk (the frozen delta's, then the
// live delta's, each in insertion order). At DOP >= 2 the main's
// selection — visibility mask plus zone-pruned pushdown kernels over whole
// segments — still runs serially in PrepareMorsels(), and the workers
// claim slots from a shared cursor. Slot m holds exactly the rows the
// DOP-1 scan emits at that position.
//
// `predicate` refers to columns by *table schema* index; `projection`
// selects and orders the output columns (empty = all columns). Describe()
// lists the projected column names ("cols=") when they are fewer than the
// table's.
class ScanOp final : public MorselOp {
 public:
  // Which mirror of a dual-format table to read. kAuto is the historical
  // behavior (column side whenever the format has one); the optimizer
  // resolves dual tables to an explicit side, and benches force the
  // wrong one to measure the access-path gap.
  enum class Path : uint8_t { kAuto, kRow, kColumn };

  ScanOp(const Table* table, Timestamp read_ts, ExprPtr predicate,
         std::vector<int> projection = {}, Path path = Path::kAuto,
         ParallelContext ctx = {});

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

  size_t slots() const override { return num_slots_; }

  // Scan statistics for tests/benches.
  size_t zones_pruned() const { return zones_pruned_; }
  const Table* table() const { return table_; }
  Path path() const { return path_; }

 protected:
  void DoPrepareMorsels() override;
  void DriveSlots(const MorselSink& sink) override;

 private:
  // Narrows main_sel_, the walk's main visibility mask, by the pushed
  // single-column predicates (zone-pruned packed scans).
  void PrepareMainSelection();
  // Takes the next up to kDefaultBatchRows selected main rows in
  // [*pos, end), runs the residual and gathers the projected columns of
  // those that pass into `out` (which may end up empty). False once no
  // selected row is left before `end`.
  bool GatherMain(size_t* pos, size_t end, Batch* out) const;
  // Runs the visibility mask, pushed predicates and residual over delta
  // chunk `k` and gathers the projected columns of the rows that pass into
  // `out`; false if none pass.
  bool GatherDelta(size_t k, Batch* out) const;
  // Narrows `rows` to those passing the residual, read through `gather`,
  // which appends a schema column's cells at `rows` to a vector.
  template <typename GatherFn>
  void ApplyResidual(std::vector<uint32_t>* rows, GatherFn gather) const;
  // Copies the next up to kDefaultBatchRows pending rows from *pos into
  // `out`; false once none are left.
  bool EmitPending(size_t* pos, Batch* out) const;

  const Table* table_;
  Timestamp read_ts_;
  ExprPtr predicate_;
  std::vector<int> projection_;
  Path path_ = Path::kAuto;
  std::vector<ValueType> out_types_;

  // Pushdown split (columnar path).
  std::vector<Expr::ColumnPredicate> pushed_;
  ExprPtr residual_;
  // The schema columns the residual reads, gathered before it runs, and
  // the residual rewritten over their positions.
  std::vector<int> residual_cols_;
  ExprPtr residual_remapped_;

  // Scan state, fixed by PrepareMorsels().
  bool prepared_ = false;
  bool columnar_ = false;
  std::optional<ColumnTable::Snapshot> snap_;
  BitVector main_sel_;
  std::vector<DeltaStore::ChunkRef> delta_chunks_;
  Batch pending_;  // projected cells of the passing row-table rows
  size_t num_main_morsels_ = 0;
  size_t num_slots_ = 0;
  // DOP-1 stream positions.
  size_t main_pos_ = 0;
  size_t delta_pos_ = 0;
  size_t pending_pos_ = 0;

  size_t zones_pruned_ = 0;
};

// Residual filter (vectorized predicate + gather of passing rows). At
// DOP >= 2 it runs fused inside the workers of its child's morsels.
class FilterOp final : public MorselOp {
 public:
  // At DOP >= 2, `child` must be a MorselSource.
  FilterOp(PhysicalOpPtr child, ExprPtr predicate, ParallelContext ctx = {});

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

  size_t slots() const override;

 protected:
  void DoPrepareMorsels() override;
  void DriveSlots(const MorselSink& sink) override;

 private:
  // Gathers the rows of `in` that pass into `out`; false if none pass.
  bool FilterBatch(const Batch& in, Batch* out) const;

  PhysicalOpPtr child_;
  MorselSource* child_src_ = nullptr;
  ExprPtr predicate_;
};

// Computes one output column per expression.
class ProjectOp final : public PhysicalOp {
 public:
  ProjectOp(PhysicalOpPtr child, std::vector<ExprPtr> exprs);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  std::vector<ExprPtr> exprs_;
};

// Aggregate function specification.
struct AggSpec {
  enum class Fn : uint8_t { kCountStar, kCount, kSum, kMin, kMax, kAvg };
  Fn fn = Fn::kCountStar;
  ExprPtr arg;  // null for COUNT(*)

  ValueType OutputType() const;
};

// The hash-aggregation state machine of HashAggOp: one instance at DOP 1,
// one per morsel merged in morsel order at DOP >= 2. Groups are kept in
// first-seen input order, which is what makes slot-ordered parallel
// merges reproduce the serial group order exactly. Group keys live in a
// columnar batch (group g is row g), found through an open-addressed
// index over typed key hashes; NULL keys compare equal, so they form one
// group.
class AggAccumulator {
 public:
  struct AggState {
    double sum = 0;
    int64_t isum = 0;
    int64_t count = 0;
    Value min, max;
    bool any = false;
  };

  // Pointers must outlive the accumulator (the owning operator's members).
  AggAccumulator(const std::vector<ExprPtr>* group_exprs,
                 const std::vector<AggSpec>* aggs);

  void Consume(const Batch& batch);
  // Folds `other` into this, treating its input as the stream suffix:
  // new groups append in other's first-seen order, MIN/MAX ties keep this
  // side's (earlier) value. Exact for COUNT / SUM over int64 / MIN / MAX;
  // float sums are order-sensitive, so the planner never merges those in
  // parallel.
  void MergeFrom(const AggAccumulator& other);
  Value Finalize(const AggSpec& spec, const AggState& st) const;

  size_t num_groups() const { return hashes_.size(); }
  // Group keys, one row per group in first-seen order.
  const Batch& keys() const { return keys_; }
  const AggState& state(size_t group, size_t agg) const {
    return states_[group * aggs_->size() + agg];
  }
  void Clear();

 private:
  // The group whose keys equal row `row` of `cols` (hash `h`), appended
  // as a new group if there is none. `mine` points at keys_'s columns.
  uint32_t FindOrInsert(const std::vector<const ColumnVector*>& mine,
                        const std::vector<const ColumnVector*>& cols,
                        size_t row, uint64_t h);

  const std::vector<ExprPtr>* group_exprs_;
  const std::vector<AggSpec>* aggs_;
  Batch keys_;
  std::vector<uint64_t> hashes_;   // per group
  std::vector<AggState> states_;   // group-major, aggs_->size() per group
  std::vector<uint32_t> index_;    // open-addressed: group + 1, 0 = empty
};

// True when every aggregate can be pre-aggregated per morsel and merged
// exactly: COUNT(*) / COUNT / MIN / MAX always, SUM only over int64
// (float addition is order-sensitive, so AVG and SUM(double) keep the
// serial fold — a DOP-1 HashAggOp over the parallel child, which is still
// bit-exact because the child reproduces the serial row stream).
bool AggsParallelMergeable(const std::vector<AggSpec>& aggs);

// Blocking hash aggregation: GROUP BY `group_exprs` with `aggs`. Output
// columns = group keys then aggregates. With no group keys, emits exactly
// one row (global aggregate; zero input rows yield COUNT=0 / NULL sums).
//
// At DOP >= 2 (mergeable aggregates only) the child drives each slot into
// its own AggAccumulator and the accumulators merge in ascending slot
// order, which reproduces the serial first-seen group order and values.
class HashAggOp final : public MorselOp {
 public:
  // At DOP >= 2, `child` must be a MorselSource and `aggs` mergeable.
  HashAggOp(PhysicalOpPtr child, std::vector<ExprPtr> group_exprs,
            std::vector<AggSpec> aggs, ParallelContext ctx = {});

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  // Consumes the whole input into acc_.
  void Aggregate();

  PhysicalOpPtr child_;
  MorselSource* child_src_ = nullptr;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  AggAccumulator acc_{&group_exprs_, &aggs_};
  size_t emit_pos_ = 0;
  bool done_ = false;
};

// In-memory hash join (inner equi-join): materializes the build (left)
// side as one columnar batch, streams the probe (right) side. Output =
// left columns ++ right columns; duplicate-key matches come out in
// ascending build-row order.
//
// The hash table chains build rows through head/next arrays. Rows are
// inserted in descending order, so every chain lists its rows ascending.
// Keys hash and compare on typed cells: a key pair of an int64 and a
// double column compares as double (as a Filter would), and a NULL key
// never joins. At DOP >= 2 the build-key hashing runs chunked across the
// pool, and each probe morsel is joined inside the worker that produced
// it.
class HashJoinOp final : public MorselOp {
 public:
  // At DOP >= 2, `probe` must be a MorselSource.
  HashJoinOp(PhysicalOpPtr build, PhysicalOpPtr probe,
             std::vector<int> build_keys, std::vector<int> probe_keys,
             ParallelContext ctx = {});

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

  size_t slots() const override;

 protected:
  void DoPrepareMorsels() override;
  void DriveSlots(const MorselSink& sink) override;

 private:
  void BuildTable();
  // Probes rows [*pos, in.num_rows()) of `in`, appending every match to
  // `out`; stops after the probe row that fills `out` to kDefaultBatchRows.
  void ProbeInto(const Batch& in, size_t* pos, Batch* out) const;

  PhysicalOpPtr build_;
  PhysicalOpPtr probe_;
  MorselSource* probe_src_ = nullptr;
  std::vector<int> build_keys_;
  std::vector<int> probe_keys_;

  bool prepared_ = false;
  Batch build_batch_;
  std::vector<uint64_t> build_hashes_;
  std::vector<uint32_t> heads_;  // bucket -> first build row of its chain
  std::vector<uint32_t> next_;   // build row -> next row of its chain
  // Per key: one side is int64 and the other double, so both hash and
  // compare as double.
  std::vector<bool> as_double_;
  // DOP-1 probe stream.
  Batch probe_batch_;
  size_t probe_pos_ = 0;
  bool probe_done_ = false;
};

// Full sort (blocking). keys = (output column index, descending?).
class SortOp final : public PhysicalOp {
 public:
  struct SortKey {
    int column;
    bool descending = false;
  };
  SortOp(PhysicalOpPtr child, std::vector<SortKey> keys);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// Fused ORDER BY + LIMIT: keeps only the top `limit` rows in a bounded
// heap while streaming the child — O(n log k) time and O(k) memory where
// the sort-then-limit pipeline pays O(n log n) / O(n). The planner emits
// this whenever a query has both clauses.
class TopNOp final : public PhysicalOp {
 public:
  TopNOp(PhysicalOpPtr child, std::vector<SortOp::SortKey> keys,
         size_t limit);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  // True if a precedes b in the requested order.
  bool Before(const Row& a, const Row& b) const;
  // Before() for row `i` of `in` against `b`, on typed cells.
  bool Before(const Batch& in, size_t i, const Row& b) const;

  PhysicalOpPtr child_;
  std::vector<SortOp::SortKey> keys_;
  size_t limit_;
  std::vector<Row> heap_;  // max-heap on Before (worst row at front)
  size_t pos_ = 0;
  bool done_ = false;
};

class LimitOp final : public PhysicalOp {
 public:
  LimitOp(PhysicalOpPtr child, size_t limit);

  void Open() override;
  bool NextBatch(Batch* out) override;
  std::vector<ValueType> OutputTypes() const override;
  std::string Describe() const override;
  std::vector<const PhysicalOp*> Children() const override;

 private:
  PhysicalOpPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

// Runs an operator tree to completion, collecting all rows.
std::vector<Row> CollectRows(PhysicalOp* op);

// Serialized encoding of a whole row for equality grouping (distinct from
// storage key encoding: order is irrelevant). View maintenance and the
// partition checks group by it; the operators hash typed cells instead.
std::string HashKeyOf(const Row& values);

// Collects the column indices an expression references (with duplicates).
void CollectExprColumns(const ExprPtr& e, std::vector<int>* out);

// Rewrites column references through `remap` (old index → new index).
ExprPtr RemapExprColumns(const ExprPtr& e, const std::vector<int>& remap);

}  // namespace oltap

#endif  // OLTAP_EXEC_OPERATORS_H_
