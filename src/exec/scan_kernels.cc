#include "exec/scan_kernels.h"

namespace oltap {
namespace kernels {
namespace {

template <typename T, typename Cmp>
void CompareImpl(const T* v, size_t n, Cmp cmp, BitVector* out) {
  out->Resize(n);
  out->ClearAll();
  uint64_t* words = out->mutable_words();
  size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    uint64_t bits = 0;
    const T* base = v + w * 64;
    for (int i = 0; i < 64; ++i) {
      bits |= static_cast<uint64_t>(cmp(base[i])) << i;
    }
    words[w] = bits;
  }
  for (size_t i = full * 64; i < n; ++i) {
    if (cmp(v[i])) out->Set(i);
  }
}

template <typename T>
void CompareDispatch(const T* v, size_t n, CompareOp op, T c,
                     BitVector* out) {
  switch (op) {
    case CompareOp::kEq:
      CompareImpl(v, n, [c](T x) { return x == c; }, out);
      return;
    case CompareOp::kNe:
      CompareImpl(v, n, [c](T x) { return x != c; }, out);
      return;
    case CompareOp::kLt:
      CompareImpl(v, n, [c](T x) { return x < c; }, out);
      return;
    case CompareOp::kLe:
      CompareImpl(v, n, [c](T x) { return x <= c; }, out);
      return;
    case CompareOp::kGt:
      CompareImpl(v, n, [c](T x) { return x > c; }, out);
      return;
    case CompareOp::kGe:
      CompareImpl(v, n, [c](T x) { return x >= c; }, out);
      return;
  }
}

}  // namespace

void CompareInt64(const int64_t* v, size_t n, CompareOp op, int64_t c,
                  BitVector* out) {
  CompareDispatch(v, n, op, c, out);
}

double SumDoubleSelected(const double* v, size_t n, const BitVector* sel) {
  double sum = 0;
  if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) sum += v[i];
    return sum;
  }
  for (size_t i = sel->FindNextSet(0); i < n; i = sel->FindNextSet(i + 1)) {
    sum += v[i];
  }
  return sum;
}

}  // namespace kernels
}  // namespace oltap
