#include "storage/column_segment.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "exec/batch.h"

namespace oltap {
namespace {

// Builds the int64 encoding into `seg` (helper shared by the RLE-allowed
// and RLE-suppressed entry points).
constexpr size_t kMinAvgRunForRle = 8;

}  // namespace

ColumnSegment ColumnSegment::BuildInt64NoRle(
    const std::vector<int64_t>& values, const BitVector* nulls) {
  ColumnSegment seg = BuildInt64Impl(values, nulls, /*allow_rle=*/false);
  return seg;
}

ColumnSegment ColumnSegment::BuildInt64(const std::vector<int64_t>& values,
                                        const BitVector* nulls) {
  return BuildInt64Impl(values, nulls, /*allow_rle=*/true);
}

ColumnSegment ColumnSegment::BuildInt64Impl(
    const std::vector<int64_t>& values, const BitVector* nulls,
    bool allow_rle) {
  ColumnSegment seg;
  seg.type_ = ValueType::kInt64;
  seg.size_ = values.size();
  if (nulls != nullptr && nulls->CountSet() > 0) {
    seg.has_nulls_ = true;
    seg.nulls_ = *nulls;
  }
  // Run-length encode when the data is clustered enough (and null-free:
  // nulls would fragment runs and complicate per-run evaluation).
  if (allow_rle && !seg.has_nulls_ && !values.empty()) {
    size_t runs = 1;
    for (size_t i = 1; i < values.size(); ++i) {
      if (values[i] != values[i - 1]) ++runs;
    }
    if (values.size() / runs >= kMinAvgRunForRle) {
      seg.int64_rle_ = true;
      seg.rle_values_.reserve(runs);
      seg.rle_starts_.reserve(runs + 1);
      for (size_t i = 0; i < values.size(); ++i) {
        if (i == 0 || values[i] != values[i - 1]) {
          seg.rle_values_.push_back(values[i]);
          seg.rle_starts_.push_back(static_cast<uint32_t>(i));
        }
      }
      seg.rle_starts_.push_back(static_cast<uint32_t>(values.size()));
      seg.zone_map_ = ZoneMap::Build(values, nullptr);
      return seg;
    }
  }
  // Determine the non-null range for frame-of-reference.
  bool any = false;
  int64_t lo = 0, hi = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (seg.has_nulls_ && seg.nulls_.Get(i)) continue;
    if (!any) {
      lo = hi = values[i];
      any = true;
    } else {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
  }
  uint64_t range = any ? static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)
                       : 0;
  if (any && range <= 0x7fffffffULL) {
    seg.int64_packed_ = true;
    seg.for_base_ = lo;
    std::vector<uint32_t> codes(values.size(), 0);
    for (size_t i = 0; i < values.size(); ++i) {
      if (seg.has_nulls_ && seg.nulls_.Get(i)) continue;
      codes[i] = static_cast<uint32_t>(values[i] - lo);
    }
    int bits = BitsForMax(static_cast<uint32_t>(range));
    seg.packed_ = PackedArray::Pack(codes, bits);
  } else {
    seg.raw_i64_ = values;
  }
  seg.zone_map_ = ZoneMap::Build(values, seg.has_nulls_ ? &seg.nulls_ : nullptr);
  return seg;
}

ColumnSegment ColumnSegment::BuildDouble(const std::vector<double>& values,
                                         const BitVector* nulls) {
  ColumnSegment seg;
  seg.type_ = ValueType::kDouble;
  seg.size_ = values.size();
  if (nulls != nullptr && nulls->CountSet() > 0) {
    seg.has_nulls_ = true;
    seg.nulls_ = *nulls;
  }
  seg.raw_f64_ = values;
  seg.zone_map_ =
      ZoneMap::BuildFromDoubles(values, seg.has_nulls_ ? &seg.nulls_ : nullptr);
  return seg;
}

ColumnSegment ColumnSegment::BuildString(const std::vector<std::string>& values,
                                         const BitVector* nulls) {
  ColumnSegment seg;
  seg.type_ = ValueType::kString;
  seg.size_ = values.size();
  if (nulls != nullptr && nulls->CountSet() > 0) {
    seg.has_nulls_ = true;
    seg.nulls_ = *nulls;
  }
  // Dictionary over non-null values only.
  std::vector<std::string> non_null;
  non_null.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (seg.has_nulls_ && seg.nulls_.Get(i)) continue;
    non_null.push_back(values[i]);
  }
  seg.dict_ = std::make_shared<Dictionary>(Dictionary::Build(non_null));
  std::vector<uint32_t> codes(values.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    if (seg.has_nulls_ && seg.nulls_.Get(i)) continue;
    int64_t code = seg.dict_->Encode(values[i]);
    OLTAP_DCHECK(code >= 0);
    codes[i] = static_cast<uint32_t>(code);
  }
  uint32_t max_code = seg.dict_->size() > 0 ? seg.dict_->size() - 1 : 0;
  seg.packed_ = PackedArray::Pack(codes, BitsForMax(max_code));
  seg.zone_map_ = ZoneMap::BuildFromCodes(
      codes, seg.has_nulls_ ? &seg.nulls_ : nullptr);
  return seg;
}

ColumnSegment ColumnSegment::Build(ValueType type,
                                   const std::vector<Value>& values) {
  BitVector nulls(values.size());
  bool any_null = false;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) {
      nulls.Set(i);
      any_null = true;
    }
  }
  const BitVector* nulls_ptr = any_null ? &nulls : nullptr;
  switch (type) {
    case ValueType::kInt64: {
      std::vector<int64_t> v(values.size(), 0);
      for (size_t i = 0; i < values.size(); ++i) {
        if (!values[i].is_null()) v[i] = values[i].AsInt64();
      }
      return BuildInt64(v, nulls_ptr);
    }
    case ValueType::kDouble: {
      std::vector<double> v(values.size(), 0);
      for (size_t i = 0; i < values.size(); ++i) {
        if (!values[i].is_null()) v[i] = values[i].AsDouble();
      }
      return BuildDouble(v, nulls_ptr);
    }
    case ValueType::kString: {
      std::vector<std::string> v(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        if (!values[i].is_null()) v[i] = values[i].AsString();
      }
      return BuildString(v, nulls_ptr);
    }
  }
  return ColumnSegment();
}

int64_t ColumnSegment::GetInt64(size_t i) const {
  OLTAP_DCHECK(type_ == ValueType::kInt64);
  if (int64_rle_) {
    // Last run whose start <= i.
    auto it = std::upper_bound(rle_starts_.begin(), rle_starts_.end(),
                               static_cast<uint32_t>(i));
    return rle_values_[(it - rle_starts_.begin()) - 1];
  }
  if (int64_packed_) {
    return for_base_ + static_cast<int64_t>(packed_.Get(i));
  }
  return raw_i64_[i];
}

ColumnSegment::Encoding ColumnSegment::encoding() const {
  if (type_ == ValueType::kString) return Encoding::kDictionary;
  if (int64_rle_) return Encoding::kRle;
  if (int64_packed_) return Encoding::kPacked;
  return Encoding::kRaw;
}

double ColumnSegment::GetDouble(size_t i) const {
  OLTAP_DCHECK(type_ == ValueType::kDouble);
  return raw_f64_[i];
}

std::string_view ColumnSegment::GetString(size_t i) const {
  OLTAP_DCHECK(type_ == ValueType::kString);
  return dict_->Decode(packed_.Get(i));
}

Value ColumnSegment::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int64(GetInt64(i));
    case ValueType::kDouble:
      return Value::Double(GetDouble(i));
    case ValueType::kString:
      return Value::String(std::string(GetString(i)));
  }
  return Value();
}

void ColumnSegment::ApplyNullMask(BitVector* out) const {
  if (!has_nulls_) return;
  BitVector non_null = nulls_;
  non_null.Not();
  out->And(non_null);
}

void ColumnSegment::AllNonNull(BitVector* out) const {
  out->Resize(size_);
  out->SetAll();
  ApplyNullMask(out);
}

void ColumnSegment::ScanInt64(CompareOp op, int64_t constant,
                              BitVector* out) const {
  if (int64_rle_) {
    // One predicate evaluation per run; matching runs fill word-at-a-time.
    out->Resize(size_);
    out->ClearAll();
    for (size_t r = 0; r < rle_values_.size(); ++r) {
      int64_t v = rle_values_[r];
      int cmp = v < constant ? -1 : v > constant ? 1 : 0;
      if (CompareHolds(op, cmp)) {
        out->SetRange(rle_starts_[r], rle_starts_[r + 1]);
      }
    }
    return;
  }
  if (int64_packed_) {
    // Rewrite into code space. Constants outside the observed range get
    // handled by the boundary cases below.
    uint32_t max_code = packed_.size() > 0
                            ? (uint32_t{1} << packed_.code_bits()) - 1
                            : 0;
    int64_t max_domain = for_base_ + static_cast<int64_t>(max_code);
    if (constant < for_base_) {
      switch (op) {
        case CompareOp::kLt:
        case CompareOp::kLe:
        case CompareOp::kEq:
          out->Resize(size_);
          out->ClearAll();
          return;
        default:
          AllNonNull(out);
          return;
      }
    }
    if (constant > max_domain) {
      switch (op) {
        case CompareOp::kGt:
        case CompareOp::kGe:
        case CompareOp::kEq:
          out->Resize(size_);
          out->ClearAll();
          return;
        default:
          AllNonNull(out);
          return;
      }
    }
    packed_.Scan(op, static_cast<uint32_t>(constant - for_base_), out);
    ApplyNullMask(out);
    return;
  }
  out->Resize(size_);
  out->ClearAll();
  for (size_t i = 0; i < size_; ++i) {
    if (has_nulls_ && nulls_.Get(i)) continue;
    int64_t v = raw_i64_[i];
    int cmp = v < constant ? -1 : v > constant ? 1 : 0;
    if (CompareHolds(op, cmp)) out->Set(i);
  }
}

void ColumnSegment::ScanDouble(CompareOp op, double constant,
                               BitVector* out) const {
  out->Resize(size_);
  out->ClearAll();
  for (size_t i = 0; i < size_; ++i) {
    if (has_nulls_ && nulls_.Get(i)) continue;
    double v = raw_f64_[i];
    int cmp = v < constant ? -1 : v > constant ? 1 : 0;
    if (CompareHolds(op, cmp)) out->Set(i);
  }
}

void ColumnSegment::ScanString(CompareOp op, std::string_view constant,
                               BitVector* out) const {
  const Dictionary& dict = *dict_;
  uint32_t n = dict.size();
  switch (op) {
    case CompareOp::kEq: {
      int64_t code = dict.Encode(constant);
      if (code < 0) {
        out->Resize(size_);
        out->ClearAll();
        return;
      }
      packed_.Scan(CompareOp::kEq, static_cast<uint32_t>(code), out);
      break;
    }
    case CompareOp::kNe: {
      int64_t code = dict.Encode(constant);
      if (code < 0) {
        AllNonNull(out);
        return;
      }
      packed_.Scan(CompareOp::kNe, static_cast<uint32_t>(code), out);
      break;
    }
    case CompareOp::kLt:
    case CompareOp::kGe: {
      uint32_t lb = dict.LowerBound(constant);
      // codes < lb  <=>  value < constant (order-preserving dictionary).
      if (op == CompareOp::kLt) {
        if (lb == 0) {
          out->Resize(size_);
          out->ClearAll();
          return;
        }
        packed_.ScanRange(0, lb - 1, out);
      } else {
        if (lb >= n) {
          out->Resize(size_);
          out->ClearAll();
          return;
        }
        packed_.ScanRange(lb, n == 0 ? 0 : n - 1, out);
      }
      break;
    }
    case CompareOp::kLe:
    case CompareOp::kGt: {
      uint32_t ub = dict.UpperBound(constant);
      // codes < ub  <=>  value <= constant.
      if (op == CompareOp::kLe) {
        if (ub == 0) {
          out->Resize(size_);
          out->ClearAll();
          return;
        }
        packed_.ScanRange(0, ub - 1, out);
      } else {
        if (ub >= n) {
          out->Resize(size_);
          out->ClearAll();
          return;
        }
        packed_.ScanRange(ub, n == 0 ? 0 : n - 1, out);
      }
      break;
    }
  }
  ApplyNullMask(out);
}

void ColumnSegment::ScanCompare(CompareOp op, const Value& constant,
                                BitVector* out) const {
  if (constant.is_null()) {
    // SQL semantics: comparisons with NULL match nothing.
    out->Resize(size_);
    out->ClearAll();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      if (constant.type() == ValueType::kDouble) {
        // Compare in double space against the raw values.
        out->Resize(size_);
        out->ClearAll();
        for (size_t i = 0; i < size_; ++i) {
          if (IsNull(i)) continue;
          double v = static_cast<double>(GetInt64(i));
          double c = constant.AsDouble();
          int cmp = v < c ? -1 : v > c ? 1 : 0;
          if (CompareHolds(op, cmp)) out->Set(i);
        }
        return;
      }
      ScanInt64(op, constant.AsInt64(), out);
      return;
    case ValueType::kDouble:
      ScanDouble(op, constant.AsDouble(), out);
      return;
    case ValueType::kString:
      OLTAP_DCHECK(constant.type() == ValueType::kString);
      ScanString(op, constant.AsStringView(), out);
      return;
  }
}

namespace {

// An inclusive code-space range plus its value-space image for zone tests.
struct CodeRange {
  uint32_t code_lo;
  uint32_t code_hi;
  double value_lo;
  double value_hi;
};

}  // namespace

void ColumnSegment::ScanCompareZoned(CompareOp op, const Value& constant,
                                     BitVector* out,
                                     size_t* zones_pruned) const {
  if (zones_pruned != nullptr) *zones_pruned = 0;
  // Decompose into at most two inclusive code ranges; fall back when the
  // encoding has no code space to range over.
  std::vector<CodeRange> ranges;
  bool rewritable = false;

  if (!constant.is_null() && type_ == ValueType::kInt64 && int64_packed_ &&
      constant.type() == ValueType::kInt64) {
    rewritable = true;
    uint32_t max_code = (uint32_t{1} << packed_.code_bits()) - 1;
    int64_t dom_lo = for_base_;
    int64_t dom_hi = for_base_ + static_cast<int64_t>(max_code);
    auto add = [&](int64_t lo, int64_t hi) {
      lo = std::max(lo, dom_lo);
      hi = std::min(hi, dom_hi);
      if (lo > hi) return;
      ranges.push_back(CodeRange{static_cast<uint32_t>(lo - for_base_),
                                 static_cast<uint32_t>(hi - for_base_),
                                 static_cast<double>(lo),
                                 static_cast<double>(hi)});
    };
    int64_t c = constant.AsInt64();
    switch (op) {
      case CompareOp::kEq:
        add(c, c);
        break;
      case CompareOp::kNe:
        if (c > INT64_MIN) add(dom_lo, c - 1);
        if (c < INT64_MAX) add(c + 1, dom_hi);
        break;
      case CompareOp::kLt:
        if (c > INT64_MIN) add(dom_lo, c - 1);
        break;
      case CompareOp::kLe:
        add(dom_lo, c);
        break;
      case CompareOp::kGt:
        if (c < INT64_MAX) add(c + 1, dom_hi);
        break;
      case CompareOp::kGe:
        add(c, dom_hi);
        break;
    }
  } else if (!constant.is_null() && type_ == ValueType::kString &&
             constant.type() == ValueType::kString && dict_ != nullptr &&
             dict_->size() > 0) {
    rewritable = true;
    uint32_t n = dict_->size();
    auto add = [&](int64_t lo, int64_t hi) {
      lo = std::max<int64_t>(lo, 0);
      hi = std::min<int64_t>(hi, n - 1);
      if (lo > hi) return;
      // String zone maps are built over codes, so value == code space.
      ranges.push_back(CodeRange{static_cast<uint32_t>(lo),
                                 static_cast<uint32_t>(hi),
                                 static_cast<double>(lo),
                                 static_cast<double>(hi)});
    };
    std::string_view s = constant.AsStringView();
    switch (op) {
      case CompareOp::kEq: {
        int64_t code = dict_->Encode(s);
        if (code >= 0) add(code, code);
        break;
      }
      case CompareOp::kNe: {
        int64_t code = dict_->Encode(s);
        if (code < 0) {
          add(0, n - 1);
        } else {
          add(0, code - 1);
          add(code + 1, n - 1);
        }
        break;
      }
      case CompareOp::kLt:
        add(0, static_cast<int64_t>(dict_->LowerBound(s)) - 1);
        break;
      case CompareOp::kLe:
        add(0, static_cast<int64_t>(dict_->UpperBound(s)) - 1);
        break;
      case CompareOp::kGt:
        add(dict_->UpperBound(s), n - 1);
        break;
      case CompareOp::kGe:
        add(dict_->LowerBound(s), n - 1);
        break;
    }
  }

  if (!rewritable) {
    ScanCompare(op, constant, out);
    return;
  }

  out->Resize(size_);
  out->ClearAll();
  const size_t zone_rows = zone_map_.zone_rows();
  const size_t num_zones = zone_map_.num_zones();
  std::vector<bool> zone_used(num_zones, false);
  for (const CodeRange& range : ranges) {
    for (size_t z = 0; z < num_zones; ++z) {
      double zmin, zmax;
      if (!zone_map_.ZoneBounds(z, &zmin, &zmax)) continue;  // all NULL
      if (zmax < range.value_lo || zmin > range.value_hi) continue;
      zone_used[z] = true;
      size_t begin = z * zone_rows;
      size_t end = std::min(size_, begin + zone_rows);
      packed_.ScanRangeWindow(range.code_lo, range.code_hi, begin, end, out);
    }
  }
  if (zones_pruned != nullptr) {
    for (size_t z = 0; z < num_zones; ++z) {
      if (!zone_used[z]) ++*zones_pruned;
    }
  }
  ApplyNullMask(out);
}

void ColumnSegment::Gather(const std::vector<uint32_t>& rids,
                           ColumnVector* out) const {
  OLTAP_DCHECK(out->type() == type_);
  out->Reserve(out->size() + rids.size());
  // `cell(rid)` appends one non-null cell; nulls are handled here.
  auto each = [&](auto cell) {
    for (uint32_t rid : rids) {
      if (has_nulls_ && nulls_.Get(rid)) {
        out->AppendNull();
      } else {
        cell(rid);
      }
    }
  };
  switch (encoding()) {
    case Encoding::kRle: {
      // Ascending rids: the run index only moves forward.
      size_t run = 0;
      each([&](uint32_t rid) {
        while (rle_starts_[run + 1] <= rid) ++run;
        out->AppendInt64(rle_values_[run]);
      });
      return;
    }
    case Encoding::kPacked:
      each([&](uint32_t rid) {
        out->AppendInt64(for_base_ + static_cast<int64_t>(packed_.Get(rid)));
      });
      return;
    case Encoding::kDictionary:
      each([&](uint32_t rid) {
        out->AppendString(std::string(dict_->Decode(packed_.Get(rid))));
      });
      return;
    case Encoding::kRaw:
      if (type_ == ValueType::kDouble) {
        each([&](uint32_t rid) { out->AppendDouble(raw_f64_[rid]); });
      } else {
        each([&](uint32_t rid) { out->AppendInt64(raw_i64_[rid]); });
      }
      return;
  }
}

void ColumnSegment::GatherDoubles(const BitVector* sel,
                                  std::vector<double>* out,
                                  std::vector<uint32_t>* row_ids) const {
  out->clear();
  if (row_ids != nullptr) row_ids->clear();
  auto emit = [&](size_t i) {
    if (IsNull(i)) return;
    double v = type_ == ValueType::kDouble
                   ? raw_f64_[i]
                   : static_cast<double>(GetInt64(i));
    out->push_back(v);
    if (row_ids != nullptr) row_ids->push_back(static_cast<uint32_t>(i));
  };
  if (sel == nullptr) {
    for (size_t i = 0; i < size_; ++i) emit(i);
  } else {
    for (size_t i = sel->FindNextSet(0); i < sel->size();
         i = sel->FindNextSet(i + 1)) {
      emit(i);
    }
  }
}

size_t ColumnSegment::MemoryBytes() const {
  size_t total = packed_.MemoryBytes();
  total += raw_i64_.capacity() * sizeof(int64_t);
  total += rle_values_.capacity() * sizeof(int64_t);
  total += rle_starts_.capacity() * sizeof(uint32_t);
  total += raw_f64_.capacity() * sizeof(double);
  total += nulls_.num_words() * sizeof(uint64_t);
  if (dict_ != nullptr) total += dict_->MemoryBytes();
  return total;
}

}  // namespace oltap
