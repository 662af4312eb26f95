#ifndef OLTAP_EXEC_BATCH_H_
#define OLTAP_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/logging.h"
#include "common/types.h"
#include "storage/row.h"
#include "storage/value.h"

namespace oltap {

// A typed column of execution values. Exactly one of the payload arrays is
// populated according to `type`. Vectorized operators work directly on
// these arrays; scalar fallbacks go through GetValue.
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(ValueType t) : type_(t) {}

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  // The null mask only extends to the last null appended.
  bool IsNull(size_t i) const {
    return has_nulls_ && i < nulls_.size() && nulls_.Get(i);
  }
  bool has_nulls() const { return has_nulls_; }

  int64_t GetInt64(size_t i) const { return i64_[i]; }
  double GetDouble(size_t i) const { return f64_[i]; }
  const std::string& GetString(size_t i) const { return str_[i]; }
  Value GetValue(size_t i) const;

  void Reserve(size_t n);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  void AppendValue(const Value& v);
  // Appends cell `i` of `src`, which has this vector's type: the typed
  // cell copy every operator uses to move rows between batches.
  void AppendFrom(const ColumnVector& src, size_t i);

  // Direct array access for kernels.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string>& str() const { return str_; }
 private:
  ValueType type_ = ValueType::kInt64;
  size_t size_ = 0;
  bool has_nulls_ = false;
  BitVector nulls_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

// A batch of rows in columnar form flowing between operators.
struct Batch {
  std::vector<ColumnVector> columns;

  size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].size();
  }
  size_t num_columns() const { return columns.size(); }

  Row GetRow(size_t i) const;
  void AppendRow(const Row& row, const std::vector<ValueType>& types);
  // Clears the batch to empty columns of `types`.
  void Reset(const std::vector<ValueType>& types);
  // Appends rows `sel` of `src` to columns [first, first + src width).
  void AppendRows(const Batch& src, const std::vector<uint32_t>& sel,
                  size_t first = 0);
};

inline void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  OLTAP_DCHECK(src.type_ == type_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      i64_.push_back(src.i64_[i]);
      break;
    case ValueType::kDouble:
      f64_.push_back(src.f64_[i]);
      break;
    case ValueType::kString:
      str_.push_back(src.str_[i]);
      break;
  }
  ++size_;
}

}  // namespace oltap

#endif  // OLTAP_EXEC_BATCH_H_
