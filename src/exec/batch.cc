#include "exec/batch.h"

#include "common/logging.h"

namespace oltap {

Value ColumnVector::GetValue(size_t i) const {
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

void ColumnVector::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kInt64:
      i64_.reserve(n);
      break;
    case ValueType::kDouble:
      f64_.reserve(n);
      break;
    case ValueType::kString:
      str_.reserve(n);
      break;
  }
}

void ColumnVector::AppendInt64(int64_t v) {
  OLTAP_DCHECK(type_ == ValueType::kInt64);
  i64_.push_back(v);
  ++size_;
}

void ColumnVector::AppendDouble(double v) {
  OLTAP_DCHECK(type_ == ValueType::kDouble);
  f64_.push_back(v);
  ++size_;
}

void ColumnVector::AppendString(std::string v) {
  OLTAP_DCHECK(type_ == ValueType::kString);
  str_.push_back(std::move(v));
  ++size_;
}

void ColumnVector::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      i64_.push_back(0);
      break;
    case ValueType::kDouble:
      f64_.push_back(0);
      break;
    case ValueType::kString:
      str_.emplace_back();
      break;
  }
  ++size_;
  has_nulls_ = true;
  nulls_.Resize(size_);
  nulls_.Set(size_ - 1);
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      i64_.push_back(v.AsInt64());
      break;
    case ValueType::kDouble:
      f64_.push_back(v.AsDouble());
      break;
    case ValueType::kString:
      str_.push_back(v.AsString());
      break;
  }
  ++size_;
}

Row Batch::GetRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const ColumnVector& c : columns) row.push_back(c.GetValue(i));
  return row;
}

void Batch::AppendRow(const Row& row, const std::vector<ValueType>& types) {
  if (columns.empty()) Reset(types);
  OLTAP_DCHECK(row.size() == columns.size());
  for (size_t c = 0; c < row.size(); ++c) columns[c].AppendValue(row[c]);
}

void Batch::Reset(const std::vector<ValueType>& types) {
  columns.clear();
  columns.reserve(types.size());
  for (ValueType t : types) columns.emplace_back(t);
}

void Batch::AppendRows(const Batch& src, const std::vector<uint32_t>& sel,
                       size_t first) {
  for (size_t c = 0; c < src.num_columns(); ++c) {
    ColumnVector& dst = columns[first + c];
    if (dst.size() == 0) dst.Reserve(sel.size());
    for (uint32_t r : sel) dst.AppendFrom(src.columns[c], r);
  }
}

}  // namespace oltap
