#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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

// NULL key cells hash alike, so NULL group keys meet in one group.
constexpr uint64_t kNullKeyHash = 0x9ae16a3b2f90404fULL;

// No row: the end of a join hash chain.
constexpr uint32_t kNoRow = UINT32_MAX;

double NumericCell(const ColumnVector& c, size_t i) {
  return c.type() == ValueType::kDouble ? c.GetDouble(i)
                                        : static_cast<double>(c.GetInt64(i));
}

// Equality of two non-NULL key cells: cells of one type compare exactly,
// an int64 and a double compare as doubles, a string never equals a
// number.
bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                size_t j) {
  if (a.type() == b.type()) {
    switch (a.type()) {
      case ValueType::kInt64:
        return a.GetInt64(i) == b.GetInt64(j);
      case ValueType::kDouble:
        return a.GetDouble(i) == b.GetDouble(j);
      case ValueType::kString:
        return a.GetString(i) == b.GetString(j);
    }
  }
  if (a.type() == ValueType::kString || b.type() == ValueType::kString) {
    return false;
  }
  return NumericCell(a, i) == NumericCell(b, j);
}

// The key cells of row `row` across `cols`: hashed on their types (an
// int64 cell as a double where `as_double` says so, to meet a double key)
// and compared with NULL equal to NULL.
uint64_t KeyHash(const std::vector<const ColumnVector*>& cols, size_t row,
                 const std::vector<bool>& as_double) {
  uint64_t h = 0;
  for (size_t k = 0; k < cols.size(); ++k) {
    const ColumnVector& c = *cols[k];
    uint64_t ch = kNullKeyHash;
    if (!c.IsNull(row)) {
      switch (c.type()) {
        case ValueType::kInt64:
          ch = !as_double.empty() && as_double[k]
                   ? HashDouble(static_cast<double>(c.GetInt64(row)))
                   : HashInt64(c.GetInt64(row));
          break;
        case ValueType::kDouble:
          ch = HashDouble(c.GetDouble(row));
          break;
        case ValueType::kString:
          ch = HashString(c.GetString(row));
          break;
      }
    }
    h = k == 0 ? ch : HashCombine(h, ch);
  }
  return h;
}

bool KeysEqual(const std::vector<const ColumnVector*>& a, size_t i,
               const std::vector<const ColumnVector*>& b, size_t j) {
  for (size_t k = 0; k < a.size(); ++k) {
    bool an = a[k]->IsNull(i);
    bool bn = b[k]->IsNull(j);
    if (an || bn) {
      if (an != bn) return false;
      continue;
    }
    if (!CellsEqual(*a[k], i, *b[k], j)) return false;
  }
  return true;
}

bool AnyNull(const std::vector<const ColumnVector*>& cols, size_t row) {
  for (const ColumnVector* c : cols) {
    if (c->IsNull(row)) return true;
  }
  return false;
}

std::vector<const ColumnVector*> ColumnsOf(const Batch& b,
                                           const std::vector<int>& idx) {
  std::vector<const ColumnVector*> out;
  out.reserve(idx.size());
  for (int c : idx) out.push_back(&b.columns[static_cast<size_t>(c)]);
  return out;
}

std::vector<const ColumnVector*> ColumnsOf(const Batch& b) {
  std::vector<const ColumnVector*> out;
  out.reserve(b.num_columns());
  for (const ColumnVector& c : b.columns) out.push_back(&c);
  return out;
}

// Value::Compare of cell i of `c` against `v`, without boxing the cell.
int CompareCell(const ColumnVector& c, size_t i, const Value& v) {
  bool cn = c.IsNull(i);
  if (cn || v.is_null()) {
    if (cn && v.is_null()) return 0;
    return cn ? -1 : 1;
  }
  switch (c.type()) {
    case ValueType::kString: {
      int cmp = c.GetString(i).compare(v.AsString());
      return cmp < 0 ? -1 : cmp > 0 ? 1 : 0;
    }
    case ValueType::kInt64:
      if (v.type() == ValueType::kInt64) {
        int64_t a = c.GetInt64(i), b = v.AsInt64();
        return a < b ? -1 : a > b ? 1 : 0;
      }
      break;
    case ValueType::kDouble:
      break;
  }
  double a = NumericCell(c, i), b = v.AsDouble();
  return a < b ? -1 : a > b ? 1 : 0;
}

// The positions [begin, end), for Batch::AppendRows.
std::vector<uint32_t> RowRange(size_t begin, size_t end) {
  std::vector<uint32_t> sel(end - begin);
  std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(begin));
  return sel;
}

// Runs `op` to completion into one columnar batch of its output types.
Batch CollectBatch(PhysicalOp* op) {
  Batch all;
  all.Reset(op->OutputTypes());
  op->OpenTimed();
  Batch batch;
  while (op->NextBatchTimed(&batch)) {
    all.AppendRows(batch, RowRange(0, batch.num_rows()));
  }
  return all;
}

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

void MorselOp::PrepareMorsels() {
  auto t0 = std::chrono::steady_clock::now();
  DoPrepareMorsels();
  AccountPrepared(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void MorselOp::Drive(const MorselSink& sink) {
  std::atomic<size_t> rows{0};
  std::atomic<size_t> batches{0};
  auto t0 = std::chrono::steady_clock::now();
  DoPrepareMorsels();
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
  DoPrepareMorsels();
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
  const Schema& schema = table_->schema();
  if (projection_.size() < schema.num_columns()) {
    out += ", cols=";
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (i > 0) out += ",";
      out += schema.column(projection_[i]).name;
    }
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
  DoPrepareMorsels();
  main_pos_ = 0;
  delta_pos_ = 0;
  pending_pos_ = 0;
  if (parallel()) DriveIntoSlotBuffer();
}

void ScanOp::DoPrepareMorsels() {
  if (prepared_) return;
  prepared_ = true;
  zones_pruned_ = 0;
  pending_.Reset(out_types_);
  delta_chunks_.clear();
  num_main_morsels_ = 0;

  // Resolve the physical side: column whenever one exists (historical
  // behavior), unless a forced path overrides it and the table actually
  // has that mirror.
  columnar_ = table_->column_table() != nullptr;
  if (path_ == Path::kRow && table_->row_table() != nullptr) {
    columnar_ = false;
  }
  if (!columnar_) {
    // Row engine (or forced row mirror of a dual table): one pass over
    // the visible rows (OLTP-sized tables), each tested in place with the
    // full predicate; the projected cells of those that pass collect in
    // iteration order.
    table_->row_table()->ScanVisible(read_ts_, [&](const Row& row) {
      if (predicate_ != nullptr) {
        Value v = predicate_->EvalRow(row);
        if (v.is_null() || !v.AsBool()) return;
      }
      for (size_t p = 0; p < projection_.size(); ++p) {
        pending_.columns[p].AppendValue(row[projection_[p]]);
      }
    });
    num_slots_ = pending_.num_rows() == 0 ? 0 : 1;
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

  // The residual runs over a batch of just the columns it reads.
  residual_cols_.clear();
  CollectExprColumns(residual_, &residual_cols_);
  std::sort(residual_cols_.begin(), residual_cols_.end());
  residual_cols_.erase(
      std::unique(residual_cols_.begin(), residual_cols_.end()),
      residual_cols_.end());
  std::vector<int> schema_to_batch(table_->schema().num_columns(), -1);
  for (size_t i = 0; i < residual_cols_.size(); ++i) {
    schema_to_batch[residual_cols_[i]] = static_cast<int>(i);
  }
  residual_remapped_ =
      residual_ == nullptr ? nullptr
                           : RemapExprColumns(residual_, schema_to_batch);

  // The snapshot walk: main visibility into main_sel_, the delta chunks
  // as slots after the main's morsels.
  snap_->ScanVisible(&main_sel_, &delta_chunks_);
  PrepareMainSelection();

  num_main_morsels_ = (main_sel_.size() + kMorselRows - 1) / kMorselRows;
  num_slots_ = num_main_morsels_ + delta_chunks_.size();
}

void ScanOp::PrepareMainSelection() {
  const MainFragment& main = *snap_->main;
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

template <typename GatherFn>
void ScanOp::ApplyResidual(std::vector<uint32_t>* rows,
                           GatherFn gather) const {
  if (residual_remapped_ == nullptr || rows->empty()) return;
  Batch res;
  res.columns.reserve(residual_cols_.size());
  for (int c : residual_cols_) {
    res.columns.emplace_back(table_->schema().column(c).type);
    gather(c, &res.columns.back());
  }
  BitVector keep;
  residual_remapped_->EvalPredicate(res, &keep);
  size_t kept = 0;
  for (size_t r = keep.FindNextSet(0); r < keep.size();
       r = keep.FindNextSet(r + 1)) {
    (*rows)[kept++] = (*rows)[r];
  }
  rows->resize(kept);
}

bool ScanOp::GatherMain(size_t* pos, size_t end, Batch* out) const {
  const MainFragment& main = *snap_->main;
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

  // Run the residual over its own columns and narrow the rowids to the
  // rows that pass; only then gather the projected columns.
  ApplyResidual(&rids, [&](int c, ColumnVector* cells) {
    main.column(c).Gather(rids, cells);
  });
  out->Reset(out_types_);
  for (size_t p = 0; p < projection_.size(); ++p) {
    main.column(projection_[p]).Gather(rids, &out->columns[p]);
  }
  return true;
}

bool ScanOp::GatherDelta(size_t k, Batch* out) const {
  const DeltaStore::ChunkRef& ref = delta_chunks_[k];
  const DeltaStore::Chunk& chunk = *ref.chunk;
  BitVector sel;
  chunk.VisibleMask(ref.rows, read_ts_, &sel);
  for (const Expr::ColumnPredicate& cp : pushed_) {
    chunk.column(cp.column).Filter(cp.op, cp.constant, &sel);
  }
  std::vector<uint32_t> rows;
  sel.AppendSetIndices(&rows);
  ApplyResidual(&rows, [&](int c, ColumnVector* cells) {
    chunk.column(c).Gather(rows, cells);
  });
  if (rows.empty()) return false;
  out->Reset(out_types_);
  for (size_t p = 0; p < projection_.size(); ++p) {
    chunk.column(projection_[p]).Gather(rows, &out->columns[p]);
  }
  return true;
}

bool ScanOp::EmitPending(size_t* pos, Batch* out) const {
  const size_t n = pending_.num_rows();
  if (*pos >= n) return false;
  size_t end = std::min(n, *pos + kDefaultBatchRows);
  out->Reset(out_types_);
  out->AppendRows(pending_, RowRange(*pos, end));
  *pos = end;
  return true;
}

bool ScanOp::NextBatch(Batch* out) {
  out->columns.clear();
  if (parallel()) return slot_buf_.Next(out);
  if (!columnar_) return EmitPending(&pending_pos_, out);
  while (GatherMain(&main_pos_, main_sel_.size(), out)) {
    if (out->num_rows() > 0) return true;
    // fully filtered batch; try the next chunk
  }
  while (delta_pos_ < delta_chunks_.size()) {
    if (GatherDelta(delta_pos_++, out)) return true;
  }
  return false;
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
      } else if (columnar_) {
        if (GatherDelta(m - num_main_morsels_, &batch)) {
          rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
          sink(m, std::move(batch));
        }
      } else {
        size_t pos = 0;  // the row engine's one slot: its pending rows
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

void FilterOp::DoPrepareMorsels() { child_src_->PrepareMorsels(); }

size_t FilterOp::slots() const { return child_src_->slots(); }

std::vector<ValueType> FilterOp::OutputTypes() const {
  return child_->OutputTypes();
}

bool FilterOp::FilterBatch(const Batch& in, Batch* out) const {
  BitVector keep;
  predicate_->EvalPredicate(in, &keep);
  std::vector<uint32_t> sel;
  keep.AppendSetIndices(&sel);
  if (sel.empty()) return false;
  out->Reset(OutputTypes());
  out->AppendRows(in, sel);
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

AggAccumulator::AggAccumulator(const std::vector<ExprPtr>* group_exprs,
                               const std::vector<AggSpec>* aggs)
    : group_exprs_(group_exprs), aggs_(aggs) {
  Clear();
}

void AggAccumulator::Clear() {
  std::vector<ValueType> types;
  types.reserve(group_exprs_->size());
  for (const ExprPtr& g : *group_exprs_) types.push_back(g->result_type());
  keys_.Reset(types);
  hashes_.clear();
  states_.clear();
  index_.assign(16, 0);
}

uint32_t AggAccumulator::FindOrInsert(
    const std::vector<const ColumnVector*>& mine,
    const std::vector<const ColumnVector*>& cols, size_t row, uint64_t h) {
  size_t mask = index_.size() - 1;
  size_t pos = h & mask;
  for (; index_[pos] != 0; pos = (pos + 1) & mask) {
    uint32_t g = index_[pos] - 1;
    if (hashes_[g] == h && KeysEqual(mine, g, cols, row)) return g;
  }
  const uint32_t g = static_cast<uint32_t>(hashes_.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    keys_.columns[k].AppendFrom(*cols[k], row);
  }
  hashes_.push_back(h);
  states_.resize(states_.size() + aggs_->size());
  index_[pos] = g + 1;
  if (2 * hashes_.size() > index_.size()) {
    // Keep the load at most 1/2: double and re-place every group.
    index_.assign(index_.size() * 2, 0);
    mask = index_.size() - 1;
    for (uint32_t e = 0; e < hashes_.size(); ++e) {
      size_t p = hashes_[e] & mask;
      while (index_[p] != 0) p = (p + 1) & mask;
      index_[p] = e + 1;
    }
  }
  return g;
}

void AggAccumulator::Consume(const Batch& batch) {
  const std::vector<ExprPtr>& group_exprs = *group_exprs_;
  const std::vector<AggSpec>& aggs = *aggs_;
  const size_t n = batch.num_rows();
  if (n == 0) return;
  // Group keys and aggregate arguments once per batch; a column
  // reference reads the batch column in place.
  std::vector<ColumnVector> evaluated(group_exprs.size() + aggs.size());
  auto eval = [&](const ExprPtr& e, size_t slot) -> const ColumnVector* {
    if (e->kind() == Expr::Kind::kColumn) {
      return &batch.columns[static_cast<size_t>(e->column_index())];
    }
    evaluated[slot] = e->EvalBatch(batch);
    return &evaluated[slot];
  };
  std::vector<const ColumnVector*> keys;
  keys.reserve(group_exprs.size());
  for (size_t k = 0; k < group_exprs.size(); ++k) {
    keys.push_back(eval(group_exprs[k], k));
  }
  std::vector<const ColumnVector*> args(aggs.size(), nullptr);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg != nullptr) {
      args[a] = eval(aggs[a].arg, group_exprs.size() + a);
    }
  }

  const std::vector<const ColumnVector*> mine = ColumnsOf(keys_);
  std::vector<uint32_t> gid(n);
  for (size_t i = 0; i < n; ++i) {
    gid[i] = FindOrInsert(mine, keys, i, KeyHash(keys, i, {}));
  }

  // Fold each aggregate over the batch; per group, rows fold in input
  // order, as the float sums require.
  const size_t na = aggs.size();
  for (size_t a = 0; a < na; ++a) {
    const AggSpec& spec = aggs[a];
    if (spec.fn == AggSpec::Fn::kCountStar) {
      for (size_t i = 0; i < n; ++i) ++states_[gid[i] * na + a].count;
      continue;
    }
    const ColumnVector& arg = *args[a];
    for (size_t i = 0; i < n; ++i) {
      if (arg.IsNull(i)) continue;  // SQL: aggregates skip NULLs
      AggState& st = states_[gid[i] * na + a];
      ++st.count;
      switch (spec.fn) {
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg:
          if (arg.type() == ValueType::kInt64) {
            st.isum += arg.GetInt64(i);
            st.sum += static_cast<double>(arg.GetInt64(i));
          } else if (arg.type() == ValueType::kDouble) {
            st.sum += arg.GetDouble(i);
          }
          break;
        case AggSpec::Fn::kMin:
          if (!st.any || CompareCell(arg, i, st.min) < 0) {
            st.min = arg.GetValue(i);
          }
          break;
        case AggSpec::Fn::kMax:
          if (!st.any || CompareCell(arg, i, st.max) > 0) {
            st.max = arg.GetValue(i);
          }
          break;
        default:
          break;
      }
      st.any = true;
    }
  }
}

void AggAccumulator::MergeFrom(const AggAccumulator& other) {
  const size_t na = aggs_->size();
  const std::vector<const ColumnVector*> mine = ColumnsOf(keys_);
  const std::vector<const ColumnVector*> theirs = ColumnsOf(other.keys_);
  for (size_t og = 0; og < other.num_groups(); ++og) {
    uint32_t g = FindOrInsert(mine, theirs, og, other.hashes_[og]);
    for (size_t a = 0; a < na; ++a) {
      AggState& st = states_[g * na + a];
      const AggState& os = other.states_[og * na + a];
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
  const size_t groups = acc_.num_groups();
  bool synth_empty = group_exprs_.empty() && groups == 0 && emit_pos_ == 0;
  if (!synth_empty && emit_pos_ >= groups) return false;

  out->Reset(OutputTypes());
  if (synth_empty) {
    // Global aggregate over zero rows still yields one output row.
    AggAccumulator::AggState empty;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out->columns[a].AppendValue(acc_.Finalize(aggs_[a], empty));
    }
    ++emit_pos_;
    return true;
  }
  size_t end = std::min(groups, emit_pos_ + kDefaultBatchRows);
  out->AppendRows(acc_.keys(), RowRange(emit_pos_, end));
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ColumnVector& col = out->columns[group_exprs_.size() + a];
    for (size_t g = emit_pos_; g < end; ++g) {
      col.AppendValue(acc_.Finalize(aggs_[a], acc_.state(g, a)));
    }
  }
  emit_pos_ = end;
  return true;
}

// ------------------------------------------------------------- HashJoinOp

std::string HashJoinOp::Describe() const {
  std::string out = parallel() ? "ParallelHashJoin(keys=" : "HashJoin(keys=";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out.append("$").append(std::to_string(build_keys_[i])).append("=$")
        .append(std::to_string(probe_keys_[i]));
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
  build_batch_ = CollectBatch(build_.get());  // opens the child
  const size_t n = build_batch_.num_rows();
  OLTAP_CHECK(n < kNoRow);
  const std::vector<ValueType> probe_types = probe_->OutputTypes();
  as_double_.assign(build_keys_.size(), false);
  for (size_t k = 0; k < build_keys_.size(); ++k) {
    ValueType b = build_batch_.columns[build_keys_[k]].type();
    ValueType p = probe_types[probe_keys_[k]];
    as_double_[k] =
        b != p && b != ValueType::kString && p != ValueType::kString;
  }
  const std::vector<const ColumnVector*> keys =
      ColumnsOf(build_batch_, build_keys_);
  build_hashes_.resize(n);
  // One contiguous range per granted worker; the query thread is worker 0.
  const size_t workers = std::max<size_t>(1, ctx_.dop);
  const size_t chunk = (n + workers - 1) / workers;
  RunOnWorkers(ctx_.pool, workers, [&](size_t w) {
    const size_t end = std::min(n, (w + 1) * chunk);
    for (size_t i = w * chunk; i < end; ++i) {
      build_hashes_[i] = KeyHash(keys, i, as_double_);
    }
  });
  // Descending inserts leave every chain in ascending build-row order.
  size_t buckets = 16;
  while (buckets < 2 * n) buckets <<= 1;
  heads_.assign(buckets, kNoRow);
  next_.assign(n, kNoRow);
  for (size_t i = n; i-- > 0;) {
    if (AnyNull(keys, i)) continue;  // a NULL key never joins
    uint32_t& head = heads_[build_hashes_[i] & (buckets - 1)];
    next_[i] = head;
    head = static_cast<uint32_t>(i);
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

void HashJoinOp::DoPrepareMorsels() {
  if (prepared_) return;
  prepared_ = true;
  probe_src_->PrepareMorsels();
  BuildTable();
}

size_t HashJoinOp::slots() const { return probe_src_->slots(); }

void HashJoinOp::ProbeInto(const Batch& in, size_t* pos, Batch* out) const {
  const std::vector<const ColumnVector*> keys = ColumnsOf(in, probe_keys_);
  const std::vector<const ColumnVector*> build_keys =
      ColumnsOf(build_batch_, build_keys_);
  const size_t mask = heads_.size() - 1;
  const size_t have = out->num_rows();
  std::vector<uint32_t> build_sel, probe_sel;
  while (*pos < in.num_rows() &&
         have + build_sel.size() < kDefaultBatchRows) {
    size_t i = (*pos)++;
    if (AnyNull(keys, i)) continue;
    uint64_t h = KeyHash(keys, i, as_double_);
    for (uint32_t b = heads_[h & mask]; b != kNoRow; b = next_[b]) {
      if (build_hashes_[b] == h && KeysEqual(build_keys, b, keys, i)) {
        build_sel.push_back(b);
        probe_sel.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  out->AppendRows(build_batch_, build_sel);
  out->AppendRows(in, probe_sel, build_batch_.num_columns());
}

bool HashJoinOp::NextBatch(Batch* out) {
  if (parallel()) return slot_buf_.Next(out);
  out->Reset(OutputTypes());
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
      out.Reset(OutputTypes());
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
    out.append("$").append(std::to_string(keys_[i].column))
        .append(keys_[i].descending ? " DESC" : " ASC");
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
  out->Reset(types);
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
    out.append("$").append(std::to_string(keys_[i].column))
        .append(keys_[i].descending ? " DESC" : " ASC");
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

bool TopNOp::Before(const Batch& in, size_t i, const Row& b) const {
  for (const SortOp::SortKey& k : keys_) {
    int cmp = CompareCell(in.columns[k.column], i, b[k.column]);
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
      // Only a row that enters the heap is boxed into a Row.
      for (size_t i = 0; i < in.num_rows(); ++i) {
        if (heap_.size() < limit_) {
          heap_.push_back(in.GetRow(i));
          std::push_heap(heap_.begin(), heap_.end(), worse);
        } else if (limit_ > 0 && Before(in, i, heap_.front())) {
          std::pop_heap(heap_.begin(), heap_.end(), worse);
          heap_.back() = in.GetRow(i);
          std::push_heap(heap_.begin(), heap_.end(), worse);
        }
      }
    }
    std::sort_heap(heap_.begin(), heap_.end(), worse);
    done_ = true;
  }
  if (pos_ >= heap_.size()) return false;
  std::vector<ValueType> types = OutputTypes();
  out->Reset(types);
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
    out->Reset(OutputTypes());
    out->AppendRows(in, RowRange(0, take));
  }
  emitted_ += take;
  return true;
}

}  // namespace oltap
