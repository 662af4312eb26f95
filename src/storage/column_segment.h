#ifndef OLTAP_STORAGE_COLUMN_SEGMENT_H_
#define OLTAP_STORAGE_COLUMN_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"
#include "storage/bitpack.h"
#include "storage/dictionary.h"
#include "storage/value.h"
#include "storage/zone_map.h"

namespace oltap {

class ColumnVector;

// Immutable, read-optimized storage for one column of a columnar main
// fragment. Built once (bulk load or merge), then scanned concurrently
// without synchronization.
//
// Encodings, per the surveyed systems (compression trades bits for
// chronons [15]):
//  - INT64: run-length encoding when runs are long (clustered/sorted
//    data); else frame-of-reference — codes = value - min, bit-packed —
//    when the value range fits 31 bits; raw array otherwise.
//  - STRING: order-preserving dictionary + bit-packed codes (HANA/BLU).
//  - DOUBLE: raw array (floats are scanned scalar, as in practice).
// Every segment carries a null bitmap (if any nulls) and a zone map.
class ColumnSegment {
 public:
  enum class Encoding : uint8_t { kRaw, kPacked, kRle, kDictionary };

  ColumnSegment() = default;

  static ColumnSegment BuildInt64(const std::vector<int64_t>& values,
                                  const BitVector* nulls = nullptr);
  // As BuildInt64 but never chooses RLE (benchmark ablations).
  static ColumnSegment BuildInt64NoRle(const std::vector<int64_t>& values,
                                       const BitVector* nulls = nullptr);
  static ColumnSegment BuildDouble(const std::vector<double>& values,
                                   const BitVector* nulls = nullptr);
  static ColumnSegment BuildString(const std::vector<std::string>& values,
                                   const BitVector* nulls = nullptr);
  // Dispatches on type; `values[i]` must match `type` or be NULL.
  static ColumnSegment Build(ValueType type, const std::vector<Value>& values);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return has_nulls_; }
  bool IsNull(size_t i) const { return has_nulls_ && nulls_.Get(i); }

  // Point accessors (OLTP-style tuple reconstruction). Callers must check
  // IsNull first; values for null slots are unspecified.
  int64_t GetInt64(size_t i) const;
  double GetDouble(size_t i) const;
  std::string_view GetString(size_t i) const;
  Value GetValue(size_t i) const;

  // Evaluates `column <op> constant` over the whole segment into a
  // selection bitvector (one bit per row; NULL rows never match). Uses the
  // dictionary / frame-of-reference rewrite plus the SWAR packed kernel
  // when the encoding allows, scalar otherwise.
  void ScanCompare(CompareOp op, const Value& constant, BitVector* out) const;

  // Zone-pruned variant: the in-memory storage index in action. Consults
  // the zone map and runs the packed kernel only over zones that may
  // match; on data with any clustering this skips most of the segment.
  // Output is identical to ScanCompare. Falls back to the full scan for
  // encodings without a code-space rewrite (raw int64, double).
  // `zones_pruned`, if given, receives the number of skipped zones.
  void ScanCompareZoned(CompareOp op, const Value& constant, BitVector* out,
                        size_t* zones_pruned = nullptr) const;

  // Appends rows `rids` (ascending) to `out`, a vector of this segment's
  // type. Switches on the encoding once per call; an RLE segment walks its
  // runs forward instead of searching per row.
  void Gather(const std::vector<uint32_t>& rids, ColumnVector* out) const;

  // Bulk decode of int64/double content into `out[i]` for selected rows;
  // used by vectorized aggregation. `sel` may be null (all rows).
  void GatherDoubles(const BitVector* sel, std::vector<double>* out,
                     std::vector<uint32_t>* row_ids) const;

  const ZoneMap& zone_map() const { return zone_map_; }
  // Dictionary for string segments, nullptr otherwise.
  const Dictionary* dictionary() const { return dict_.get(); }
  // True if the int64 segment is bit-packed (frame-of-reference).
  bool int64_packed() const { return int64_packed_; }
  Encoding encoding() const;
  // Number of runs in an RLE segment (tests/ablation diagnostics).
  size_t num_runs() const { return rle_values_.size(); }

  size_t MemoryBytes() const;

 private:
  static ColumnSegment BuildInt64Impl(const std::vector<int64_t>& values,
                                      const BitVector* nulls, bool allow_rle);

  void ScanInt64(CompareOp op, int64_t constant, BitVector* out) const;
  void ScanDouble(CompareOp op, double constant, BitVector* out) const;
  void ScanString(CompareOp op, std::string_view constant,
                  BitVector* out) const;
  // Clears bits of null rows in `out`.
  void ApplyNullMask(BitVector* out) const;
  // Fills `out` with all non-null rows set.
  void AllNonNull(BitVector* out) const;

  ValueType type_ = ValueType::kInt64;
  size_t size_ = 0;
  bool has_nulls_ = false;
  BitVector nulls_;

  // INT64 encodings.
  bool int64_packed_ = false;
  bool int64_rle_ = false;
  int64_t for_base_ = 0;  // frame-of-reference base (minimum value)
  PackedArray packed_;    // also holds string dictionary codes
  std::vector<int64_t> raw_i64_;
  // RLE: run r covers rows [rle_starts_[r], rle_starts_[r+1]) with value
  // rle_values_[r]; rle_starts_ has a trailing sentinel == size().
  std::vector<int64_t> rle_values_;
  std::vector<uint32_t> rle_starts_;

  // DOUBLE.
  std::vector<double> raw_f64_;

  // STRING.
  std::shared_ptr<Dictionary> dict_;

  ZoneMap zone_map_;
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_COLUMN_SEGMENT_H_
