#include "storage/delta_store.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/batch.h"

namespace oltap {

DeltaStore::Column::Column(ValueType type)
    : type_(type), null_(kChunkRows, 0) {
  switch (type_) {
    case ValueType::kInt64:
      i64_.resize(kChunkRows);
      break;
    case ValueType::kDouble:
      f64_.resize(kChunkRows);
      break;
    case ValueType::kString:
      str_.resize(kChunkRows);
      break;
  }
}

size_t DeltaStore::Column::Set(size_t i, const Value& v) {
  if (v.is_null()) {
    null_[i] = 1;
    return 0;
  }
  switch (type_) {
    case ValueType::kInt64:
      i64_[i] = v.AsInt64();
      break;
    case ValueType::kDouble:
      f64_[i] = v.AsDouble();
      break;
    case ValueType::kString:
      str_[i] = v.AsString();
      return str_[i].size();
  }
  return 0;
}

Value DeltaStore::Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int64(i64_[i]);
    case ValueType::kDouble:
      return Value::Double(f64_[i]);
    case ValueType::kString:
      return Value::String(str_[i]);
  }
  return Value();
}

void DeltaStore::Column::Filter(CompareOp op, const Value& constant,
                                BitVector* sel) const {
  if (constant.is_null()) {
    sel->ClearAll();
    return;
  }
  // One typed loop per (cell type, constant type, operator); `cmp(i)` is
  // the three-way comparison of cell i against the constant. Each 64-row
  // word holding a selected row is recomputed over all its cells without
  // branches and ANDed in, rather than tested bit by bit.
  const size_t n = sel->size();
  uint64_t* words = sel->mutable_words();
  auto keep_where = [&](auto cmp) {
    auto scan = [&](auto holds) {
      for (size_t base = 0; base < n; base += 64) {
        if (words[base >> 6] == 0) continue;
        const size_t end = std::min(n, base + 64);
        uint64_t bits = 0;
        for (size_t i = base; i < end; ++i) {
          bits |= static_cast<uint64_t>((null_[i] == 0) & holds(cmp(i)))
                  << (i - base);
        }
        words[base >> 6] &= bits;
      }
    };
    switch (op) {
      case CompareOp::kEq:
        return scan([](int c) { return c == 0; });
      case CompareOp::kNe:
        return scan([](int c) { return c != 0; });
      case CompareOp::kLt:
        return scan([](int c) { return c < 0; });
      case CompareOp::kLe:
        return scan([](int c) { return c <= 0; });
      case CompareOp::kGt:
        return scan([](int c) { return c > 0; });
      case CompareOp::kGe:
        return scan([](int c) { return c >= 0; });
    }
  };
  auto three_way = [](auto a, auto b) { return a < b ? -1 : a > b ? 1 : 0; };
  switch (type_) {
    case ValueType::kInt64:
      if (constant.type() == ValueType::kInt64) {
        const int64_t c = constant.AsInt64();
        keep_where([&](size_t i) { return three_way(i64_[i], c); });
      } else {
        const double c = constant.AsDouble();
        keep_where([&](size_t i) {
          return three_way(static_cast<double>(i64_[i]), c);
        });
      }
      return;
    case ValueType::kDouble: {
      const double c = constant.AsDouble();
      keep_where([&](size_t i) { return three_way(f64_[i], c); });
      return;
    }
    case ValueType::kString: {
      OLTAP_DCHECK(constant.type() == ValueType::kString);
      const std::string& c = constant.AsString();
      keep_where([&](size_t i) { return three_way(str_[i].compare(c), 0); });
      return;
    }
  }
}

void DeltaStore::Column::Gather(const std::vector<uint32_t>& rows,
                                ColumnVector* out) const {
  OLTAP_DCHECK(out->type() == type_);
  out->Reserve(out->size() + rows.size());
  for (uint32_t r : rows) {
    if (null_[r] != 0) {
      out->AppendNull();
      continue;
    }
    switch (type_) {
      case ValueType::kInt64:
        out->AppendInt64(i64_[r]);
        break;
      case ValueType::kDouble:
        out->AppendDouble(f64_[r]);
        break;
      case ValueType::kString:
        out->AppendString(str_[r]);
        break;
    }
  }
}

DeltaStore::Chunk::Chunk(const std::vector<ValueType>& types)
    : insert_ts_(kChunkRows),
      delete_ts_(new std::atomic<Timestamp>[kChunkRows]) {
  columns_.reserve(types.size());
  for (ValueType t : types) columns_.emplace_back(t);
  for (size_t i = 0; i < kChunkRows; ++i) {
    delete_ts_[i].store(kMaxTimestamp, std::memory_order_relaxed);
  }
}

void DeltaStore::Chunk::VisibleMask(size_t rows, Timestamp read_ts,
                                    BitVector* out) const {
  out->Resize(rows);
  uint64_t* words = out->mutable_words();
  for (size_t base = 0; base < rows; base += 64) {
    const size_t end = std::min(rows, base + 64);
    uint64_t bits = 0;
    for (size_t i = base; i < end; ++i) {
      bits |= static_cast<uint64_t>(VisibleAt(i, read_ts)) << (i - base);
    }
    words[base >> 6] = bits;
  }
}

Row DeltaStore::Chunk::GetRow(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& c : columns_) row.push_back(c.GetValue(i));
  return row;
}

DeltaStore::DeltaStore(const Schema& schema)
    : types_([&] {
        std::vector<ValueType> types;
        for (const ColumnDef& c : schema.columns()) types.push_back(c.type);
        return types;
      }()) {}

uint32_t DeltaStore::Append(const Row& row, Timestamp commit_ts) {
  OLTAP_DCHECK(row.size() == types_.size());
  std::unique_lock lock(mu_);
  const size_t n = size_.load(std::memory_order_relaxed);
  if (n == 0) first_append_us_ = SystemClock::Get()->NowMicros();
  if (n == chunks_.size() * kChunkRows) {
    chunks_.push_back(std::unique_ptr<Chunk>(new Chunk(types_)));
  }
  Chunk& chunk = *chunks_.back();
  const size_t i = n % kChunkRows;
  for (size_t c = 0; c < row.size(); ++c) {
    string_bytes_ += chunk.columns_[c].Set(i, row[c]);
  }
  chunk.insert_ts_[i] = commit_ts;
  size_.store(n + 1, std::memory_order_release);
  return static_cast<uint32_t>(n);
}

void DeltaStore::MarkDeleted(uint32_t idx, Timestamp ts) {
  std::shared_lock lock(mu_);
  OLTAP_DCHECK(idx < size());
  std::atomic<Timestamp>& del = ChunkOf(idx).delete_ts_[idx % kChunkRows];
  Timestamp cur = del.load(std::memory_order_relaxed);
  while (ts < cur &&
         !del.compare_exchange_weak(cur, ts, std::memory_order_acq_rel)) {
  }
}

bool DeltaStore::VisibleAt(uint32_t idx, Timestamp read_ts) const {
  if (idx >= size()) return false;
  std::shared_lock lock(mu_);
  return ChunkOf(idx).VisibleAt(idx % kChunkRows, read_ts);
}

bool DeltaStore::GetIfVisible(uint32_t idx, Timestamp read_ts,
                              Row* out) const {
  if (idx >= size()) return false;
  std::shared_lock lock(mu_);
  const Chunk& chunk = ChunkOf(idx);
  if (!chunk.VisibleAt(idx % kChunkRows, read_ts)) return false;
  *out = chunk.GetRow(idx % kChunkRows);
  return true;
}

void DeltaStore::Capture(std::vector<ChunkRef>* out) const {
  std::shared_lock lock(mu_);
  size_t rows = size();
  for (const std::unique_ptr<Chunk>& chunk : chunks_) {
    if (rows == 0) break;
    const size_t n = std::min(rows, kChunkRows);
    out->push_back(ChunkRef{chunk.get(), n});
    rows -= n;
  }
}

int64_t DeltaStore::OldestAppendMicros() const {
  std::shared_lock lock(mu_);
  return size() == 0 ? 0 : first_append_us_;
}

size_t DeltaStore::MemoryBytes() const {
  size_t row_bytes = 2 * sizeof(Timestamp);
  for (ValueType t : types_) {
    row_bytes += 1 + (t == ValueType::kString ? sizeof(std::string)
                                              : sizeof(int64_t));
  }
  std::shared_lock lock(mu_);
  return chunks_.size() * kChunkRows * row_bytes + string_bytes_;
}

}  // namespace oltap
