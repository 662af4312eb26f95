#ifndef OLTAP_EXEC_SCAN_KERNELS_H_
#define OLTAP_EXEC_SCAN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "storage/bitpack.h"

namespace oltap {
namespace kernels {

// Tight-loop primitives shared by the vectorized engine, the shared-scan
// server, and the NUMA scan dispatcher. These deliberately contain no
// virtual calls and no per-value branching beyond the comparison itself —
// they are the "vectorized" side of the E7 execution-model comparison.

// out[i] = v[i] <op> c, over raw int64 data (no nulls).
void CompareInt64(const int64_t* v, size_t n, CompareOp op, int64_t c,
                  BitVector* out);

// Sum of v[i] where sel bit set (sel == nullptr means all).
double SumDoubleSelected(const double* v, size_t n, const BitVector* sel);

}  // namespace kernels
}  // namespace oltap

#endif  // OLTAP_EXEC_SCAN_KERNELS_H_
