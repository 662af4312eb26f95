#ifndef OLTAP_STORAGE_BITPACK_H_
#define OLTAP_STORAGE_BITPACK_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"

namespace oltap {

// Comparison operators understood by the packed-scan kernels.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

// True when a three-way comparison result `cmp` (negative, zero or
// positive as the value is below, equal to or above the constant)
// satisfies `op`. Kernels that hoist the switch out of their loop keep
// their own.
inline bool CompareHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Minimum bits needed to represent values in [0, max_value].
int BitsForMax(uint32_t max_value);

// Fixed-width bit-packed code array with a SWAR (SIMD-within-a-register)
// scan path — the portable equivalent of the SIMD-scan technique of
// Willhalm et al. [42] that HANA and BLU build their column scans on.
//
// Layout: each code occupies a field of `field_bits` = code_bits + 1 bits
// (one guard bit for borrow-free SWAR comparison); fields never straddle
// 64-bit word boundaries, so a word holds 64 / field_bits codes and scans
// process that many codes per arithmetic operation.
class PackedArray {
 public:
  PackedArray() = default;

  // Packs `codes`; every code must fit in `code_bits` (<= 31).
  static PackedArray Pack(const std::vector<uint32_t>& codes, int code_bits);

  size_t size() const { return size_; }
  int code_bits() const { return code_bits_; }
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  uint32_t Get(size_t i) const {
    size_t word = i / codes_per_word_;
    size_t slot = i % codes_per_word_;
    return static_cast<uint32_t>(
               words_[word] >> (slot * field_bits_)) &
           code_mask_;
  }

  // Evaluates `code <op> constant` over all codes, writing one bit per code
  // into `out` (resized to size()). Uses the word-parallel kernel: ~8/k
  // codes per subtract for k-bit codes.
  void Scan(CompareOp op, uint32_t constant, BitVector* out) const;

  // Sets out bits for lo <= code <= hi over indexes [begin, end) only,
  // leaving bits outside the window untouched. `out` must already be sized
  // to size(). Zone-skipping scans call this per surviving zone; every
  // comparison operator decomposes into at most two inclusive code ranges.
  void ScanRangeWindow(uint32_t lo, uint32_t hi, size_t begin, size_t end,
                       BitVector* out) const;

  // Evaluates lo <= code <= hi (the shape dictionary rewrite produces for
  // string ranges). Degenerate ranges yield an empty selection.
  void ScanRange(uint32_t lo, uint32_t hi, BitVector* out) const;

  // Reference scalar implementation (used by tests and as the baseline in
  // the E2 benchmark).
  void ScanScalar(CompareOp op, uint32_t constant, BitVector* out) const;

 private:
  // Sets out bit i for each field whose guard bit is set in `ge_mask`
  // semantics; helper for Scan.
  void ScanGe(uint32_t constant, BitVector* out) const;

  std::vector<uint64_t> words_;
  size_t size_ = 0;
  int code_bits_ = 0;
  int field_bits_ = 0;
  size_t codes_per_word_ = 0;
  uint32_t code_mask_ = 0;
  uint64_t guard_mask_ = 0;   // guard (top) bit of every field
  uint64_t field_lsb_mask_ = 0;  // bit 0 of every field
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_BITPACK_H_
