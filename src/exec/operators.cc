#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"

namespace oltap {

std::string HashKeyOf(const Row& values) {
  std::vector<int> all(values.size());
  std::iota(all.begin(), all.end(), 0);
  return EncodeKeyColumns(values, all);
}

void CollectExprColumns(const ExprPtr& e, std::vector<int>* out) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kColumn) out->push_back(e->column_index());
  for (const ExprPtr& c : e->children()) CollectExprColumns(c, out);
}

ExprPtr RemapExprColumns(const ExprPtr& e, const std::vector<int>& remap) {
  switch (e->kind()) {
    case Expr::Kind::kColumn:
      return Expr::Column(remap[e->column_index()], e->result_type());
    case Expr::Kind::kConst:
      return e;
    case Expr::Kind::kCompare:
      return Expr::Compare(e->compare_op(),
                           RemapExprColumns(e->children()[0], remap),
                           RemapExprColumns(e->children()[1], remap));
    case Expr::Kind::kAnd:
      return Expr::And(RemapExprColumns(e->children()[0], remap),
                       RemapExprColumns(e->children()[1], remap));
    case Expr::Kind::kOr:
      return Expr::Or(RemapExprColumns(e->children()[0], remap),
                      RemapExprColumns(e->children()[1], remap));
    case Expr::Kind::kNot:
      return Expr::Not(RemapExprColumns(e->children()[0], remap));
    case Expr::Kind::kIsNull:
      return Expr::IsNull(RemapExprColumns(e->children()[0], remap));
    default:
      return Expr::Arith(e->kind(),
                         RemapExprColumns(e->children()[0], remap),
                         RemapExprColumns(e->children()[1], remap));
  }
}

namespace {

void ExplainInto(const PhysicalOp* op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op->Describe());
  // Optimizer annotations only when the planner produced estimates, so
  // non-optimized plans render exactly as before.
  if (op->est_rows() >= 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " est_rows=%lld",
                  static_cast<long long>(std::llround(op->est_rows())));
    out->append(buf);
    if (op->est_cost() >= 0) {
      std::snprintf(buf, sizeof(buf), " cost=%lld",
                    static_cast<long long>(std::llround(op->est_cost())));
      out->append(buf);
    }
  }
  out->push_back('\n');
  for (const PhysicalOp* child : op->Children()) {
    ExplainInto(child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainPlan(const PhysicalOp* root) {
  std::string out;
  ExplainInto(root, 0, &out);
  return out;
}

void PhysicalOp::OpenTimed() {
  stats_.Reset();
  obs::ScopedTimer timer(&stats_.open_ns);
  Open();
}

bool PhysicalOp::NextBatchTimed(Batch* out) {
  bool more;
  {
    obs::ScopedTimer timer(&stats_.next_ns);
    more = NextBatch(out);
  }
  // Row/batch tallies are plain member increments (no clock read) and
  // stay on even under OLTAP_OBS_DISABLED, so EXPLAIN ANALYZE keeps its
  // exact row counts there; only timings degrade to zero. Only a true
  // return delivers a batch — on false `out` holds stale content from
  // the previous pull (callers never read it).
  if (more) {
    size_t n = out->num_rows();
    if (n > 0) {
      stats_.rows += n;
      ++stats_.batches;
    }
  }
  return more;
}

namespace {

void ProfileInto(const PhysicalOp* op, obs::QueryProfile::Node* node) {
  const obs::OpStats& st = op->op_stats();
  node->name = op->Describe();
  node->rows = st.rows;
  node->batches = st.batches;
  node->time_ns = st.total_ns();
  node->est_rows = op->est_rows();
  for (const PhysicalOp* child : op->Children()) {
    node->children.emplace_back();
    ProfileInto(child, &node->children.back());
  }
}

}  // namespace

obs::QueryProfile BuildQueryProfile(const PhysicalOp* root) {
  obs::QueryProfile profile;
  ProfileInto(root, &profile.root);
  return profile;
}

std::vector<Row> CollectRows(PhysicalOp* op) {
  std::vector<Row> rows;
  op->OpenTimed();
  Batch batch;
  while (op->NextBatchTimed(&batch)) {
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      rows.push_back(batch.GetRow(i));
    }
  }
  return rows;
}

// -------------------------------------------------------------- MorselOp

void MorselOp::Drive(const MorselSink& sink) {
  PrepareMorsels();
  std::atomic<size_t> rows{0};
  std::atomic<size_t> batches{0};
  auto t0 = std::chrono::steady_clock::now();
  DriveSlots([&](size_t slot, Batch&& batch) {
    rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
    batches.fetch_add(1, std::memory_order_relaxed);
    sink(slot, std::move(batch));
  });
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  AccountDriven(rows.load(), batches.load(), static_cast<uint64_t>(ns));
}

void MorselOp::DriveSlots(const MorselSink& sink) {
  Open();
  Batch batch;
  while (NextBatch(&batch)) sink(0, std::move(batch));
}

void MorselOp::DriveIntoSlotBuffer() {
  PrepareMorsels();
  slot_buf_.Reset(slots());
  DriveSlots(
      [this](size_t slot, Batch&& b) { slot_buf_.Append(slot, std::move(b)); });
}

// ---------------------------------------------------------------- ScanOp

std::string ScanOp::Describe() const {
  std::string out = (parallel() ? "ParallelScan(" : "Scan(") +
                    table_->name() + " [" +
                    TableFormatToString(table_->format()) + "]";
  if (predicate_ != nullptr) out += ", pred=" + predicate_->ToString();
  if (parallel()) {
    out += ", path=column, dop=" + std::to_string(ctx_.dop);
  } else if (path_ == Path::kRow) {
    out += ", path=row";
  } else if (path_ == Path::kColumn) {
    out += ", path=column";
  }
  out += ")";
  return out;
}
std::vector<const PhysicalOp*> ScanOp::Children() const { return {}; }


ScanOp::ScanOp(const Table* table, Timestamp read_ts, ExprPtr predicate,
               std::vector<int> projection, Path path, ParallelContext ctx)
    : MorselOp(ctx),
      table_(table),
      read_ts_(read_ts),
      predicate_(std::move(predicate)),
      projection_(std::move(projection)),
      path_(path) {
  // Morsels split the main fragment: DOP >= 2 reads the column side.
  OLTAP_CHECK(!parallel() || (table_->column_table() != nullptr &&
                              path_ != Path::kRow));
  const Schema& schema = table_->schema();
  if (projection_.empty()) {
    projection_.resize(schema.num_columns());
    std::iota(projection_.begin(), projection_.end(), 0);
  }
  out_types_.reserve(projection_.size());
  for (int c : projection_) {
    out_types_.push_back(schema.column(c).type);
  }
}

std::vector<ValueType> ScanOp::OutputTypes() const { return out_types_; }

void ScanOp::Open() {
  prepared_ = false;
  PrepareMorsels();
  main_pos_ = 0;
  pending_pos_ = 0;
  if (parallel()) DriveIntoSlotBuffer();
}

void ScanOp::PrepareMorsels() {
  if (prepared_) return;
  prepared_ = true;
  rows_scanned_ = 0;
  zones_pruned_ = 0;
  pending_rows_.clear();
  num_main_morsels_ = 0;

  // Resolve the physical side: column whenever one exists (historical
  // behavior), unless a forced path overrides it and the table actually
  // has that mirror.
  columnar_ = table_->column_table() != nullptr;
  if (path_ == Path::kRow && table_->row_table() != nullptr) {
    columnar_ = false;
  }
  // Delta, frozen-delta and row-engine rows: row-at-a-time with the full
  // predicate, collected in serial iteration order.
  auto consume = [&](const Row& row) {
    ++rows_scanned_;
    if (predicate_ != nullptr) {
      Value v = predicate_->EvalRow(row);
      if (v.is_null() || !v.AsBool()) return;
    }
    pending_rows_.push_back(row);
  };
  if (!columnar_) {
    // Row engine (or forced row mirror of a dual table): materialize
    // passing rows once (OLTP-sized tables).
    table_->row_table()->ScanVisible(read_ts_, consume);
    num_slots_ = pending_rows_.empty() ? 0 : 1;
    return;
  }

  snap_ = table_->GetColumnSnapshot(read_ts_);
  OLTAP_CHECK(snap_.has_value());

  // Split the predicate into pushable single-column terms and a residual.
  pushed_.clear();
  residual_ = nullptr;
  if (predicate_ != nullptr) {
    std::vector<ExprPtr> conjuncts;
    Expr::SplitConjuncts(predicate_, &conjuncts);
    std::vector<ExprPtr> residual_terms;
    for (const ExprPtr& c : conjuncts) {
      Expr::ColumnPredicate cp;
      if (c->AsColumnPredicate(&cp)) {
        pushed_.push_back(cp);
      } else {
        residual_terms.push_back(c);
      }
    }
    residual_ = Expr::CombineConjuncts(residual_terms);
  }

  // Gather only the columns the output or the residual actually touches.
  needed_ = projection_;
  CollectExprColumns(residual_, &needed_);
  std::sort(needed_.begin(), needed_.end());
  needed_.erase(std::unique(needed_.begin(), needed_.end()), needed_.end());
  schema_to_batch_.assign(table_->schema().num_columns(), -1);
  for (size_t i = 0; i < needed_.size(); ++i) {
    schema_to_batch_[needed_[i]] = static_cast<int>(i);
  }
  residual_remapped_ =
      residual_ == nullptr ? nullptr
                           : RemapExprColumns(residual_, schema_to_batch_);

  PrepareMainSelection();

  auto consume_delta = [&](uint32_t, const Row& row) { consume(row); };
  if (snap_->frozen != nullptr) {
    snap_->frozen->ForEachVisible(read_ts_, consume_delta);
  }
  snap_->delta->ForEachVisible(read_ts_, consume_delta);

  num_main_morsels_ = (main_sel_.size() + kMorselRows - 1) / kMorselRows;
  num_slots_ = num_main_morsels_ + (pending_rows_.empty() ? 0 : 1);
}

void ScanOp::PrepareMainSelection() {
  const MainFragment& main = *snap_->main;
  main.VisibleMask(read_ts_, &main_sel_);
  rows_scanned_ += main.num_rows();
  if (main.num_rows() == 0) return;  // empty main has no segments to scan
  for (const Expr::ColumnPredicate& cp : pushed_) {
    const ColumnSegment& seg = main.column(cp.column);
    // Zone-pruned storage-index scan: only zones whose min/max admit the
    // predicate are evaluated by the packed kernel.
    BitVector hits;
    size_t pruned = 0;
    seg.ScanCompareZoned(cp.op, cp.constant, &hits, &pruned);
    zones_pruned_ += pruned;
    main_sel_.And(hits);
  }
}

bool ScanOp::GatherMain(size_t* pos, size_t end, Batch* out) const {
  const MainFragment& main = *snap_->main;
  const Schema& schema = table_->schema();
  // Gather the next chunk of selected rowids.
  std::vector<uint32_t> rids;
  rids.reserve(kDefaultBatchRows);
  size_t i = main_sel_.FindNextSet(*pos);
  while (i < end && rids.size() < kDefaultBatchRows) {
    rids.push_back(static_cast<uint32_t>(i));
    i = main_sel_.FindNextSet(i + 1);
  }
  *pos = i;
  if (rids.empty()) return false;

  // Gather the needed columns (projection ∪ residual refs), then filter,
  // then project.
  Batch full;
  full.columns.reserve(needed_.size());
  for (int c : needed_) {
    ColumnVector cv(schema.column(c).type);
    cv.Reserve(rids.size());
    const ColumnSegment& seg = main.column(c);
    for (uint32_t rid : rids) {
      if (seg.IsNull(rid)) {
        cv.AppendNull();
        continue;
      }
      switch (seg.type()) {
        case ValueType::kInt64:
          cv.AppendInt64(seg.GetInt64(rid));
          break;
        case ValueType::kDouble:
          cv.AppendDouble(seg.GetDouble(rid));
          break;
        case ValueType::kString:
          cv.AppendString(std::string(seg.GetString(rid)));
          break;
      }
    }
    full.columns.push_back(std::move(cv));
  }

  BitVector keep;
  if (residual_remapped_ != nullptr) {
    residual_remapped_->EvalPredicate(full, &keep);
  } else {
    keep.Resize(full.num_rows());
    keep.SetAll();
  }

  out->columns.clear();
  out->columns.reserve(projection_.size());
  for (size_t p = 0; p < projection_.size(); ++p) {
    const ColumnVector& src =
        full.columns[schema_to_batch_[projection_[p]]];
    ColumnVector cv(src.type());
    for (size_t r = keep.FindNextSet(0); r < keep.size();
         r = keep.FindNextSet(r + 1)) {
      cv.AppendValue(src.GetValue(r));
    }
    out->columns.push_back(std::move(cv));
  }
  return true;
}

bool ScanOp::EmitPending(size_t* pos, Batch* out) const {
  if (*pos >= pending_rows_.size()) return false;
  out->columns.clear();
  out->columns.reserve(projection_.size());
  for (size_t p = 0; p < projection_.size(); ++p) {
    out->columns.emplace_back(out_types_[p]);
  }
  size_t end = std::min(pending_rows_.size(), *pos + kDefaultBatchRows);
  for (; *pos < end; ++*pos) {
    const Row& row = pending_rows_[*pos];
    for (size_t p = 0; p < projection_.size(); ++p) {
      out->columns[p].AppendValue(row[projection_[p]]);
    }
  }
  return true;
}

bool ScanOp::NextBatch(Batch* out) {
  out->columns.clear();
  if (parallel()) return slot_buf_.Next(out);
  if (columnar_) {
    while (GatherMain(&main_pos_, main_sel_.size(), out)) {
      if (out->num_rows() > 0) return true;
      // fully filtered batch; try the next chunk
    }
  }
  // Pending rows: the delta tail, or the whole row-engine result.
  return EmitPending(&pending_pos_, out);
}

void ScanOp::DriveSlots(const MorselSink& sink) {
  static obs::Counter* dispatched =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.dispatched");
  static obs::Counter* morsel_rows =
      obs::MetricsRegistry::Default()->GetCounter("exec.morsel.rows");

  std::atomic<size_t> cursor{0};
  std::atomic<size_t> rows{0};
  RunOnWorkers(ctx_.pool, ctx_.dop, [&](size_t) {
    for (size_t m = cursor.fetch_add(1, std::memory_order_relaxed);
         m < num_slots_; m = cursor.fetch_add(1, std::memory_order_relaxed)) {
      Batch batch;
      if (m < num_main_morsels_) {
        size_t pos = m * kMorselRows;
        size_t end = std::min(main_sel_.size(), pos + kMorselRows);
        while (GatherMain(&pos, end, &batch)) {
          if (batch.num_rows() == 0) continue;
          rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
          sink(m, std::move(batch));
        }
      } else {
        size_t pos = 0;  // the trailing slot: pending delta rows
        while (EmitPending(&pos, &batch)) {
          rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
          sink(m, std::move(batch));
        }
      }
    }
  });
  dispatched->Add(num_slots_);
  morsel_rows->Add(rows.load());
}

// --------------------------------------------------------------- FilterOp

std::string FilterOp::Describe() const {
  if (parallel()) {
    return "ParallelFilter(" + predicate_->ToString() +
           ", dop=" + std::to_string(ctx_.dop) + ")";
  }
  return "Filter(" + predicate_->ToString() + ")";
}
std::vector<const PhysicalOp*> FilterOp::Children() const {
  return {child_.get()};
}


FilterOp::FilterOp(PhysicalOpPtr child, ExprPtr predicate,
                   ParallelContext ctx)
    : MorselOp(ctx),
      child_(std::move(child)),
      predicate_(std::move(predicate)) {
  child_src_ = dynamic_cast<MorselSource*>(child_.get());
  OLTAP_CHECK(!parallel() || child_src_ != nullptr);
}

void FilterOp::Open() {
  if (parallel()) {
    DriveIntoSlotBuffer();
  } else {
    child_->OpenTimed();
  }
}

void FilterOp::PrepareMorsels() { child_src_->PrepareMorsels(); }

size_t FilterOp::slots() const { return child_src_->slots(); }

std::vector<ValueType> FilterOp::OutputTypes() const {
  return child_->OutputTypes();
}

bool FilterOp::FilterBatch(const Batch& in, Batch* out) const {
  BitVector keep;
  predicate_->EvalPredicate(in, &keep);
  if (keep.CountSet() == 0) return false;
  out->columns.clear();
  out->columns.reserve(in.num_columns());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    ColumnVector cv(in.columns[c].type());
    for (size_t r = keep.FindNextSet(0); r < keep.size();
         r = keep.FindNextSet(r + 1)) {
      cv.AppendValue(in.columns[c].GetValue(r));
    }
    out->columns.push_back(std::move(cv));
  }
  return true;
}

bool FilterOp::NextBatch(Batch* out) {
  if (parallel()) return slot_buf_.Next(out);
  Batch in;
  while (child_->NextBatchTimed(&in)) {
    if (FilterBatch(in, out)) return true;
  }
  return false;
}

void FilterOp::DriveSlots(const MorselSink& sink) {
  child_src_->Drive([&](size_t slot, Batch&& in) {
    Batch out;
    if (FilterBatch(in, &out)) sink(slot, std::move(out));
  });
}

// -------------------------------------------------------------- ProjectOp

std::string ProjectOp::Describe() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + ")";
}
std::vector<const PhysicalOp*> ProjectOp::Children() const {
  return {child_.get()};
}


ProjectOp::ProjectOp(PhysicalOpPtr child, std::vector<ExprPtr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

void ProjectOp::Open() { child_->OpenTimed(); }

std::vector<ValueType> ProjectOp::OutputTypes() const {
  std::vector<ValueType> types;
  types.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) types.push_back(e->result_type());
  return types;
}

bool ProjectOp::NextBatch(Batch* out) {
  Batch in;
  if (!child_->NextBatchTimed(&in)) return false;
  out->columns.clear();
  out->columns.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    out->columns.push_back(e->EvalBatch(in));
  }
  return true;
}

// -------------------------------------------------------------- HashAggOp

std::string HashAggOp::Describe() const {
  std::string out = parallel() ? "ParallelHashAggregate(groups="
                               : "HashAggregate(groups=";
  out += std::to_string(group_exprs_.size());
  out += ", aggs=" + std::to_string(aggs_.size());
  if (parallel()) out += ", dop=" + std::to_string(ctx_.dop);
  return out + ")";
}
std::vector<const PhysicalOp*> HashAggOp::Children() const {
  return {child_.get()};
}


ValueType AggSpec::OutputType() const {
  switch (fn) {
    case Fn::kCountStar:
    case Fn::kCount:
      return ValueType::kInt64;
    case Fn::kAvg:
      return ValueType::kDouble;
    case Fn::kSum:
    case Fn::kMin:
    case Fn::kMax:
      return arg->result_type();
  }
  return ValueType::kInt64;
}

bool AggsParallelMergeable(const std::vector<AggSpec>& aggs) {
  for (const AggSpec& a : aggs) {
    switch (a.fn) {
      case AggSpec::Fn::kCountStar:
      case AggSpec::Fn::kCount:
      case AggSpec::Fn::kMin:
      case AggSpec::Fn::kMax:
        break;
      case AggSpec::Fn::kSum:
        if (a.arg->result_type() != ValueType::kInt64) return false;
        break;
      case AggSpec::Fn::kAvg:
        return false;
    }
  }
  return true;
}

HashAggOp::HashAggOp(PhysicalOpPtr child, std::vector<ExprPtr> group_exprs,
                     std::vector<AggSpec> aggs, ParallelContext ctx)
    : MorselOp(ctx),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  child_src_ = dynamic_cast<MorselSource*>(child_.get());
  OLTAP_CHECK(!parallel() ||
              (child_src_ != nullptr && AggsParallelMergeable(aggs_)));
}

std::vector<ValueType> HashAggOp::OutputTypes() const {
  std::vector<ValueType> types;
  for (const ExprPtr& g : group_exprs_) types.push_back(g->result_type());
  for (const AggSpec& a : aggs_) types.push_back(a.OutputType());
  return types;
}

void HashAggOp::Open() {
  // A DOP >= 2 child is driven, never opened.
  if (!parallel()) child_->OpenTimed();
  acc_.Clear();
  emit_pos_ = 0;
  done_ = false;
}

void HashAggOp::Aggregate() {
  if (!parallel()) {
    Batch in;
    while (child_->NextBatchTimed(&in)) acc_.Consume(in);
    return;
  }
  child_src_->PrepareMorsels();
  // One accumulator per slot: a slot is produced entirely by one worker,
  // so each accumulator is mutated by exactly one thread during the drive.
  std::vector<AggAccumulator> accs(child_src_->slots(),
                                   AggAccumulator(&group_exprs_, &aggs_));
  child_src_->Drive(
      [&accs](size_t slot, Batch&& batch) { accs[slot].Consume(batch); });
  // Slot order == serial row-stream order, so merging ascending
  // reproduces the serial first-seen group order exactly.
  for (const AggAccumulator& a : accs) acc_.MergeFrom(a);
}

void AggAccumulator::Clear() {
  index_.clear();
  groups_.clear();
}

void AggAccumulator::Consume(const Batch& batch) {
  const std::vector<ExprPtr>& group_exprs = *group_exprs_;
  const std::vector<AggSpec>& aggs = *aggs_;
  size_t n = batch.num_rows();
  if (n == 0) return;
  // Evaluate group keys and agg arguments once per batch.
  std::vector<ColumnVector> keys;
  keys.reserve(group_exprs.size());
  for (const ExprPtr& g : group_exprs) keys.push_back(g->EvalBatch(batch));
  std::vector<ColumnVector> args(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg != nullptr) args[a] = aggs[a].arg->EvalBatch(batch);
  }

  Row key_row(group_exprs.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < keys.size(); ++k) key_row[k] = keys[k].GetValue(i);
    std::string hk = HashKeyOf(key_row);
    auto [it, inserted] = index_.emplace(std::move(hk), groups_.size());
    if (inserted) {
      Group g;
      g.keys = key_row;
      g.states.resize(aggs.size());
      groups_.push_back(std::move(g));
    }
    Group& group = groups_[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& st = group.states[a];
      const AggSpec& spec = aggs[a];
      if (spec.fn == AggSpec::Fn::kCountStar) {
        ++st.count;
        continue;
      }
      if (args[a].IsNull(i)) continue;  // SQL: aggregates skip NULLs
      Value v = args[a].GetValue(i);
      ++st.count;
      switch (spec.fn) {
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg:
          if (v.type() == ValueType::kInt64) {
            st.isum += v.AsInt64();
          }
          st.sum += v.AsDouble();
          break;
        case AggSpec::Fn::kMin:
          if (!st.any || v.Compare(st.min) < 0) st.min = v;
          break;
        case AggSpec::Fn::kMax:
          if (!st.any || v.Compare(st.max) > 0) st.max = v;
          break;
        default:
          break;
      }
      st.any = true;
    }
  }
}

void AggAccumulator::MergeFrom(const AggAccumulator& other) {
  const std::vector<AggSpec>& aggs = *aggs_;
  for (const Group& og : other.groups_) {
    std::string hk = HashKeyOf(og.keys);
    auto [it, inserted] = index_.emplace(std::move(hk), groups_.size());
    if (inserted) {
      Group g;
      g.keys = og.keys;
      g.states.resize(aggs.size());
      groups_.push_back(std::move(g));
    }
    Group& group = groups_[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& st = group.states[a];
      const AggState& os = og.states[a];
      st.count += os.count;
      st.isum += os.isum;
      st.sum += os.sum;
      if (os.any) {
        // `other` is the later part of the stream: on ties keep the value
        // already here, exactly as the serial first-encounter fold does.
        if (!st.any || os.min.Compare(st.min) < 0) st.min = os.min;
        if (!st.any || os.max.Compare(st.max) > 0) st.max = os.max;
        st.any = true;
      }
    }
  }
}

Value AggAccumulator::Finalize(const AggSpec& spec, const AggState& st) const {
  switch (spec.fn) {
    case AggSpec::Fn::kCountStar:
    case AggSpec::Fn::kCount:
      return Value::Int64(st.count);
    case AggSpec::Fn::kSum:
      if (st.count == 0) return Value::Null(spec.OutputType());
      return spec.arg->result_type() == ValueType::kInt64
                 ? Value::Int64(st.isum)
                 : Value::Double(st.sum);
    case AggSpec::Fn::kAvg:
      if (st.count == 0) return Value::Null(ValueType::kDouble);
      return Value::Double(st.sum / static_cast<double>(st.count));
    case AggSpec::Fn::kMin:
      return st.any ? st.min : Value::Null(spec.OutputType());
    case AggSpec::Fn::kMax:
      return st.any ? st.max : Value::Null(spec.OutputType());
  }
  return Value::Null();
}

bool HashAggOp::NextBatch(Batch* out) {
  if (!done_) {
    Aggregate();
    done_ = true;
  }
  const std::vector<AggAccumulator::Group>& groups = acc_.groups();
  bool synth_empty =
      group_exprs_.empty() && groups.empty() && emit_pos_ == 0;
  if (!synth_empty && emit_pos_ >= groups.size()) return false;

  std::vector<ValueType> types = OutputTypes();
  out->columns.clear();
  out->columns.reserve(types.size());
  for (ValueType t : types) out->columns.emplace_back(t);
  if (synth_empty) {
    // Global aggregate over zero rows still yields one output row.
    AggAccumulator::AggState empty;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out->columns[a].AppendValue(acc_.Finalize(aggs_[a], empty));
    }
    ++emit_pos_;
    return true;
  }
  size_t end = std::min(groups.size(), emit_pos_ + kDefaultBatchRows);
  for (; emit_pos_ < end; ++emit_pos_) {
    const AggAccumulator::Group& g = groups[emit_pos_];
    size_t c = 0;
    for (size_t k = 0; k < group_exprs_.size(); ++k) {
      out->columns[c++].AppendValue(g.keys[k]);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out->columns[c++].AppendValue(acc_.Finalize(aggs_[a], g.states[a]));
    }
  }
  return true;
}

// ------------------------------------------------------------- HashJoinOp

std::string HashJoinOp::Describe() const {
  std::string out = parallel() ? "ParallelHashJoin(keys=" : "HashJoin(keys=";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out += "$" + std::to_string(build_keys_[i]) + "=$" +
           std::to_string(probe_keys_[i]);
  }
  if (parallel()) out += ", dop=" + std::to_string(ctx_.dop);
  return out + ")";
}
std::vector<const PhysicalOp*> HashJoinOp::Children() const {
  return {build_.get(), probe_.get()};
}


HashJoinOp::HashJoinOp(PhysicalOpPtr build, PhysicalOpPtr probe,
                       std::vector<int> build_keys,
                       std::vector<int> probe_keys, ParallelContext ctx)
    : MorselOp(ctx),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)) {
  OLTAP_CHECK(build_keys_.size() == probe_keys_.size());
  probe_src_ = dynamic_cast<MorselSource*>(probe_.get());
  OLTAP_CHECK(!parallel() || probe_src_ != nullptr);
}

std::vector<ValueType> HashJoinOp::OutputTypes() const {
  std::vector<ValueType> types = build_->OutputTypes();
  for (ValueType t : probe_->OutputTypes()) types.push_back(t);
  return types;
}

void HashJoinOp::BuildTable() {
  build_rows_ = CollectRows(build_.get());  // CollectRows opens the child
  const size_t n = build_rows_.size();
  const size_t nparts = std::max<size_t>(1, ctx_.dop);
  parts_.assign(nparts, {});
  // Encodes row i's key into `key`; false for a NULL key (never joins).
  auto key_of = [this](size_t i, Row* key_row, std::string* key) {
    for (size_t k = 0; k < build_keys_.size(); ++k) {
      (*key_row)[k] = build_rows_[i][build_keys_[k]];
      if ((*key_row)[k].is_null()) return false;
    }
    *key = HashKeyOf(*key_row);
    return true;
  };
  if (nparts == 1) {
    Row key_row(build_keys_.size());
    std::string key;
    for (size_t i = 0; i < n; ++i) {
      if (key_of(i, &key_row, &key)) parts_[0][std::move(key)].push_back(i);
    }
    return;
  }

  // Phase 1: per-row key encoding + hashing, chunked across the pool.
  std::vector<std::string> keys(n);
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t> valid(n, 0);
  std::hash<std::string> hasher;
  auto hash_range = [&](size_t begin, size_t end) {
    Row key_row(build_keys_.size());
    for (size_t i = begin; i < end; ++i) {
      if (!key_of(i, &key_row, &keys[i])) continue;
      hashes[i] = hasher(keys[i]);
      valid[i] = 1;
    }
  };
  // Phase 2: one chunk per partition; each partition scans the hash array
  // and inserts its rows in ascending build-row order.
  auto insert_parts = [&](size_t pbegin, size_t pend) {
    for (size_t p = pbegin; p < pend; ++p) {
      auto& part = parts_[p];
      for (size_t i = 0; i < n; ++i) {
        if (valid[i] && hashes[i] % nparts == p) {
          part[std::move(keys[i])].push_back(i);
        }
      }
    }
  };
  if (ctx_.pool != nullptr) {
    ctx_.pool->ParallelForChunked(n, hash_range);
    ctx_.pool->ParallelForChunked(nparts, insert_parts);
  } else {
    hash_range(0, n);
    insert_parts(0, nparts);
  }
}

void HashJoinOp::Open() {
  if (parallel()) {
    prepared_ = false;
    DriveIntoSlotBuffer();
    return;
  }
  probe_->OpenTimed();
  BuildTable();
  probe_pos_ = 0;
  probe_done_ = false;
  probe_batch_.columns.clear();
}

void HashJoinOp::PrepareMorsels() {
  if (prepared_) return;
  prepared_ = true;
  probe_src_->PrepareMorsels();
  BuildTable();
}

size_t HashJoinOp::slots() const { return probe_src_->slots(); }

void HashJoinOp::ResetOutput(Batch* out) const {
  std::vector<ValueType> types = OutputTypes();
  out->columns.clear();
  out->columns.reserve(types.size());
  for (ValueType t : types) out->columns.emplace_back(t);
}

void HashJoinOp::ProbeInto(const Batch& in, size_t* pos, Batch* out) const {
  Row key_row(probe_keys_.size());
  std::hash<std::string> hasher;
  while (*pos < in.num_rows() && out->num_rows() < kDefaultBatchRows) {
    size_t i = (*pos)++;
    bool has_null = false;
    for (size_t k = 0; k < probe_keys_.size(); ++k) {
      key_row[k] = in.columns[probe_keys_[k]].GetValue(i);
      has_null |= key_row[k].is_null();
    }
    if (has_null) continue;
    std::string key = HashKeyOf(key_row);
    const auto& part =
        parts_.size() == 1 ? parts_[0] : parts_[hasher(key) % parts_.size()];
    auto it = part.find(key);
    if (it == part.end()) continue;
    for (size_t bi : it->second) {
      const Row& b = build_rows_[bi];
      size_t c = 0;
      for (const Value& v : b) out->columns[c++].AppendValue(v);
      for (size_t pc = 0; pc < in.num_columns(); ++pc) {
        out->columns[c++].AppendValue(in.columns[pc].GetValue(i));
      }
    }
  }
}

bool HashJoinOp::NextBatch(Batch* out) {
  if (parallel()) return slot_buf_.Next(out);
  ResetOutput(out);
  while (out->num_rows() < kDefaultBatchRows) {
    if (probe_pos_ >= probe_batch_.num_rows()) {
      if (probe_done_ || !probe_->NextBatchTimed(&probe_batch_)) {
        probe_done_ = true;
        break;
      }
      probe_pos_ = 0;
      continue;
    }
    ProbeInto(probe_batch_, &probe_pos_, out);
  }
  return out->num_rows() > 0;
}

void HashJoinOp::DriveSlots(const MorselSink& sink) {
  probe_src_->Drive([&](size_t slot, Batch&& in) {
    size_t pos = 0;
    while (pos < in.num_rows()) {
      Batch out;
      ResetOutput(&out);
      ProbeInto(in, &pos, &out);
      if (out.num_rows() > 0) sink(slot, std::move(out));
    }
  });
}

// ----------------------------------------------------------------- SortOp

std::string SortOp::Describe() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(keys_[i].column) +
           (keys_[i].descending ? " DESC" : " ASC");
  }
  return out + ")";
}
std::vector<const PhysicalOp*> SortOp::Children() const {
  return {child_.get()};
}


SortOp::SortOp(PhysicalOpPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

std::vector<ValueType> SortOp::OutputTypes() const {
  return child_->OutputTypes();
}

void SortOp::Open() {
  rows_ = CollectRows(child_.get());  // CollectRows opens the child
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       int cmp = a[k.column].Compare(b[k.column]);
                       if (cmp != 0) return k.descending ? cmp > 0 : cmp < 0;
                     }
                     return false;
                   });
  pos_ = 0;
}

bool SortOp::NextBatch(Batch* out) {
  if (pos_ >= rows_.size()) return false;
  std::vector<ValueType> types = OutputTypes();
  out->columns.clear();
  out->columns.reserve(types.size());
  for (ValueType t : types) out->columns.emplace_back(t);
  size_t end = std::min(rows_.size(), pos_ + kDefaultBatchRows);
  for (; pos_ < end; ++pos_) {
    for (size_t c = 0; c < types.size(); ++c) {
      out->columns[c].AppendValue(rows_[pos_][c]);
    }
  }
  return true;
}

// ----------------------------------------------------------------- TopNOp

std::string TopNOp::Describe() const {
  std::string out = "TopN(limit=" + std::to_string(limit_) + ", keys=";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(keys_[i].column) +
           (keys_[i].descending ? " DESC" : " ASC");
  }
  return out + ")";
}
std::vector<const PhysicalOp*> TopNOp::Children() const {
  return {child_.get()};
}


TopNOp::TopNOp(PhysicalOpPtr child, std::vector<SortOp::SortKey> keys,
               size_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {}

std::vector<ValueType> TopNOp::OutputTypes() const {
  return child_->OutputTypes();
}

bool TopNOp::Before(const Row& a, const Row& b) const {
  for (const SortOp::SortKey& k : keys_) {
    int cmp = a[k.column].Compare(b[k.column]);
    if (cmp != 0) return k.descending ? cmp > 0 : cmp < 0;
  }
  return false;
}

void TopNOp::Open() {
  child_->OpenTimed();
  heap_.clear();
  pos_ = 0;
  done_ = false;
}

bool TopNOp::NextBatch(Batch* out) {
  if (!done_) {
    // heap_ is a max-heap under Before: heap_.front() is the *worst* of
    // the current top-k, evicted whenever a better row arrives.
    auto worse = [this](const Row& a, const Row& b) { return Before(a, b); };
    Batch in;
    while (child_->NextBatchTimed(&in)) {
      for (size_t i = 0; i < in.num_rows(); ++i) {
        Row row = in.GetRow(i);
        if (heap_.size() < limit_) {
          heap_.push_back(std::move(row));
          std::push_heap(heap_.begin(), heap_.end(), worse);
        } else if (limit_ > 0 && Before(row, heap_.front())) {
          std::pop_heap(heap_.begin(), heap_.end(), worse);
          heap_.back() = std::move(row);
          std::push_heap(heap_.begin(), heap_.end(), worse);
        }
      }
    }
    std::sort_heap(heap_.begin(), heap_.end(), worse);
    done_ = true;
  }
  if (pos_ >= heap_.size()) return false;
  std::vector<ValueType> types = OutputTypes();
  out->columns.clear();
  out->columns.reserve(types.size());
  for (ValueType t : types) out->columns.emplace_back(t);
  size_t end = std::min(heap_.size(), pos_ + kDefaultBatchRows);
  for (; pos_ < end; ++pos_) {
    for (size_t c = 0; c < types.size(); ++c) {
      out->columns[c].AppendValue(heap_[pos_][c]);
    }
  }
  return true;
}

// ---------------------------------------------------------------- LimitOp

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}
std::vector<const PhysicalOp*> LimitOp::Children() const {
  return {child_.get()};
}


LimitOp::LimitOp(PhysicalOpPtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {}

std::vector<ValueType> LimitOp::OutputTypes() const {
  return child_->OutputTypes();
}

void LimitOp::Open() {
  child_->OpenTimed();
  emitted_ = 0;
}

bool LimitOp::NextBatch(Batch* out) {
  if (emitted_ >= limit_) return false;
  Batch in;
  if (!child_->NextBatchTimed(&in)) return false;
  size_t take = std::min(in.num_rows(), limit_ - emitted_);
  if (take == in.num_rows()) {
    *out = std::move(in);
  } else {
    out->columns.clear();
    out->columns.reserve(in.num_columns());
    for (size_t c = 0; c < in.num_columns(); ++c) {
      ColumnVector cv(in.columns[c].type());
      for (size_t r = 0; r < take; ++r) {
        cv.AppendValue(in.columns[c].GetValue(r));
      }
      out->columns.push_back(std::move(cv));
    }
  }
  emitted_ += take;
  return true;
}

}  // namespace oltap
