#ifndef OLTAP_COMMON_TYPES_H_
#define OLTAP_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace oltap {

// Logical position of a row within a table's storage (column-store rowid or
// delta offset). 32 bits bounds a single table fragment at 4B rows, which is
// ample for an in-memory engine; the distributed layer shards well before.
using RowId = uint32_t;
inline constexpr RowId kInvalidRowId = std::numeric_limits<RowId>::max();

// MVCC timestamps. The global timestamp oracle hands out monotonically
// increasing commit timestamps. While a transaction is active, versions it
// wrote carry (kTxnIdFlag | txn_id) in begin/end fields so concurrent
// readers can tell "uncommitted, owned by txn X" from a real timestamp.
using Timestamp = uint64_t;
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max() >> 1;  // below the txn-id flag
inline constexpr Timestamp kTxnIdFlag = uint64_t{1} << 63;

// Rows per execution batch (a few L1-friendly vectors), and so per chunk of
// a columnar delta, whose chunks a scan consumes one batch at a time.
inline constexpr size_t kDefaultBatchRows = 2048;

inline constexpr bool IsTxnId(Timestamp t) { return (t & kTxnIdFlag) != 0; }
inline constexpr uint64_t TxnIdOf(Timestamp t) { return t & ~kTxnIdFlag; }
inline constexpr Timestamp MakeTxnMarker(uint64_t txn_id) {
  return kTxnIdFlag | txn_id;
}

}  // namespace oltap

#endif  // OLTAP_COMMON_TYPES_H_
