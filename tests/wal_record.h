#ifndef OLTAP_TESTS_WAL_RECORD_H_
#define OLTAP_TESTS_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "txn/wal.h"

namespace oltap {

// The serialized commit body of `ops`, for Wal::LogCommit and
// Wal::LogCommitBatch.
inline std::string CommitRecord(uint64_t txn_id, Timestamp commit_ts,
                                const std::vector<WalOp>& ops) {
  Wal::CommitBody body(txn_id, commit_ts);
  for (const WalOp& op : ops) body.Add(op);
  return body.Take();
}

// Appends `ops` to `wal` as one commit (Wal::LogCommit).
inline Status LogOps(Wal* wal, uint64_t txn_id, Timestamp commit_ts,
                     const std::vector<WalOp>& ops) {
  return wal->LogCommit(CommitRecord(txn_id, commit_ts, ops));
}

}  // namespace oltap

#endif  // OLTAP_TESTS_WAL_RECORD_H_
