#ifndef OLTAP_TXN_WAL_H_
#define OLTAP_TXN_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "storage/row.h"

namespace oltap {

class ThreadPool;

// One logged operation within a committed transaction: a DML write, or a
// DDL record of a table or materialized-view creation. DDL records ride
// the same frames and commit timestamps as DML, so one stream carries a
// database from an empty catalog to its current state.
struct WalOp {
  enum Kind : uint8_t {
    kInsert = 0,
    kUpdate = 1,
    kDelete = 2,
    kCreateTable = 3,  // table = the new table; key = its definition
    kCreateView = 4,   // table = the view; key = its CREATE text
  };
  Kind kind = kInsert;
  std::string table;
  // Encoded PK for DML (empty for keyless inserts); the payload for DDL.
  std::string key;
  Row row;  // full image for insert/update; empty for delete and DDL

  // The CREATE TABLE record of `table`: name, storage format, columns and
  // primary key.
  static WalOp CreateTable(const Table& table);
  // The CREATE MATERIALIZED VIEW record of view `name`, whose statement
  // text `ddl` re-creates it.
  static WalOp CreateView(std::string name, std::string ddl);
};

// What Wal::Replay applied and the options it takes (Wal::ReplayStats and
// Wal::ReplayOptions). They live at namespace scope so that Replay's
// `options = {}` default argument names a complete type.
struct WalReplayStats {
  size_t txns_applied = 0;
  size_t ops_applied = 0;
  Timestamp max_commit_ts = 0;
  bool truncated_tail = false;  // hit a torn/corrupt record and stopped
  // Texts of the log's CREATE MATERIALIZED VIEW records, in log order.
  // Replay creates no view: the caller does, once the bases are applied.
  std::vector<std::string> view_ddls;
};

struct WalReplayOptions {
  // Records with commit_ts <= skip_through_ts are skipped (checkpoint
  // recovery replays only the tail; the image holds every table and view
  // whose creation commits at or below its timestamp). 0 skips nothing:
  // live commits start at ts 1, and ts-0 records — a checkpoint image
  // taken before the first commit — must still apply.
  Timestamp skip_through_ts = 0;
};

// Write-ahead log of committed transactions (redo-only: the deferred-write
// transaction manager never applies uncommitted changes, so recovery is a
// pure forward replay — the same simplification Hekaton-style in-memory
// engines make). Records carry a checksum; replay stops at the first torn
// or corrupt record.
//
// One frame kind: u32 payload length, u64 checksum of the payload, then
// the payload — one or more commit bodies, each u32 length + body. A
// LogCommit frame carries one body; a LogCommitBatch frame carries a
// whole group-commit batch (txn/log_writer.h). The single checksum is
// what gives a torn batch all-or-nothing semantics: a tear anywhere in
// the frame fails the checksum, so replay applies none of its commits and
// no prefix of a torn batch can resurrect.
//
// A commit body is u64 txn id, u64 commit timestamp, u16 op count, then
// per op: u8 kind, table name, key (both u32 length + bytes), u16 column
// count and the tagged values. CREATE TABLE and CREATE MATERIALIZED VIEW
// are op kinds too (WalOp), logged as commits of their own.
//
// The log always accumulates into an in-memory buffer; when opened with a
// path it also appends to that file, and LogCommit/LogCommitBatch flush
// (and optionally fsync) before returning.
//
// Segmentation: with a non-zero segment size the log rotates into
// *segments* at frame boundaries — the active segment seals once it
// reaches the size and a fresh one opens (file-backed logs rotate into
// "<path>.<id>" suffix files). Segments are the unit of truncation: once
// a checkpoint covers every commit in a sealed segment, TruncateBelow
// drops it, bounding both retained log bytes and the recovery replay
// tail. buffer()/size() always cover the *retained* segments only.
class Wal {
 public:
  struct Options {
    // fsync the file at the commit durability point. fflush alone hands
    // the record to the OS (survives process death, not OS crash);
    // fsync makes the commit durable across power loss at the cost of a
    // device write per commit (or per batch, under group commit).
    bool fsync_on_commit = false;
    // Rotate the active segment once it reaches this many bytes
    // (checked after each append, so segments overshoot by at most one
    // frame). 0 = never rotate: the log is one unbounded segment, the
    // pre-segmentation behavior.
    uint64_t segment_bytes = 0;
  };

  // One retained segment, oldest first; the last entry is the active
  // (still-appending) segment.
  struct SegmentInfo {
    uint64_t id = 0;
    Timestamp max_commit_ts = 0;  // newest commit in the segment
    uint64_t bytes = 0;
  };

  Wal() = default;
  explicit Wal(const Options& options) : options_(options) {}
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (creating or appending) a file-backed log.
  static Result<std::unique_ptr<Wal>> OpenFile(const std::string& path) {
    return OpenFile(path, Options{});
  }
  static Result<std::unique_ptr<Wal>> OpenFile(const std::string& path,
                                               const Options& options);

  // Builds one commit record *body* (no frame header) op by op, so a
  // committer serializes straight from its own write set, on its own
  // thread and without a lock, for LogCommit or LogCommitBatch.
  class CommitBody {
   public:
    // The most ops one body holds: the count is a u16 on disk.
    static constexpr size_t kMaxOps = 0xFFFF;

    CommitBody(uint64_t txn_id, Timestamp commit_ts);
    void Add(WalOp::Kind kind, const std::string& table,
             const std::string& key, const Row& row);
    void Add(const WalOp& op) { Add(op.kind, op.table, op.key, op.row); }
    size_t num_ops() const { return num_ops_; }
    // The finished body; the builder is spent. Checks num_ops() <=
    // kMaxOps: a larger write set must be refused before it gets here.
    std::string Take();

   private:
    std::string body_;
    size_t num_ops_ = 0;
  };

  // Appends one commit body as a frame of its own (a batch of one).
  // Thread-safe; called by the transaction manager at the durability
  // point (after validation, before apply).
  // On a short write, flush/fsync failure, or injected fault (failpoints
  // "wal.append.torn", "wal.append.error", "wal.fsync.error") the record
  // is not durable and the caller must fail the commit. The failed
  // append is undone — buffer and file are trimmed back to the last
  // complete record — so recovery never resurrects the failed
  // transaction. When the partial bytes cannot be removed (a torn append
  // deliberately leaves them; a file trim can fail) the Wal seals
  // instead: every later LogCommit returns kUnavailable, because a
  // commit appended after a tear would be acknowledged yet unreachable
  // by Replay, which stops at the first corrupt record.
  Status LogCommit(std::string body);

  // Appends `bodies` (each a CommitBody) as ONE frame —
  // one checksum over the whole batch, one flush, one fsync. All-or-
  // nothing: on any failure (short write, flush/fsync error, injected
  // "wal.batch.torn" / "wal.fsync.error") the entire batch is undone or
  // the log seals, and every commit in the batch must be failed by the
  // caller; no prefix of the batch is ever durable on its own.
  // "wal.fsync.stall" injects a delay before the fsync (commit-latency
  // fault, not a durability fault).
  Status LogCommitBatch(const std::vector<std::string>& bodies);

  // True once a failed append has left the log torn (see LogCommit).
  // Mirrored into the obs gauge "wal.sealed" at seal time so operators
  // see a dead log before the next commit fails.
  bool sealed() const;

  // Seals the log explicitly: every later append fails with kUnavailable.
  // Models the device going away — the crash-anywhere torture seals at
  // the kill instant so no commit can acknowledge after the crash cut.
  void Seal();

  // Serialized bytes logged so far across the retained segments (memory
  // copy; tests and Replay use it). Truncated segments are gone — this is
  // exactly the replay tail recovery will walk.
  std::string buffer() const;

  // Byte length of the retained log — use instead of buffer() when only
  // the length is needed (buffer() copies the whole log under the mutex).
  size_t size() const;

  // Commits logged (a frame counts each body it carries).
  size_t num_records() const;

  // --- Segmentation & truncation ---

  // Retained segments, oldest first (the last is the active one).
  std::vector<SegmentInfo> Segments() const;
  size_t num_segments() const;

  // Total bytes dropped by TruncateBelow over the log's lifetime.
  uint64_t truncated_bytes() const;

  // Changes the rotation size for future appends (SQL: SET
  // wal_segment_bytes). 0 stops further rotation.
  void set_segment_bytes(uint64_t bytes);

  // Drops the longest prefix of *sealed* segments whose every commit is
  // at or below `horizon` (the active segment never drops). The caller
  // must pass a horizon no newer than its latest durable checkpoint's
  // timestamp — recovery replays the retained tail with skip_through_ts
  // >= the dropped commits, so nothing is lost. Failpoint
  // "wal.truncate.error" fails the call before anything is dropped
  // (crash-before-truncation; retried on the next checkpoint round).
  // On success *dropped_bytes (optional) reports the bytes removed.
  Status TruncateBelow(Timestamp horizon, uint64_t* dropped_bytes = nullptr);

  // The commit timestamp a serialized commit body carries (bodies are
  // what CommitBody builds and LogCommitBatch consumes). The
  // group-commit writer uses this to expose its oldest still-unpersisted
  // commit as a truncation pin.
  static Timestamp PeekBodyCommitTs(const std::string& body);

  using ReplayStats = WalReplayStats;
  using ReplayOptions = WalReplayOptions;

  // Replays serialized log `data` — the live log, or the stream inside a
  // checkpoint image (txn/checkpoint.h) — into `catalog`. A serial decode
  // pass checks each CREATE TABLE record against the catalog (an existing
  // table must match its name, format, columns and key exactly) and
  // partitions the DML by table in log order; a mismatch, or an op on a
  // table neither in the catalog nor created by the log, fails before
  // anything changes. Then the log's tables are added (replay logs
  // nothing) and each table's ops apply in log order — concurrently on
  // `pool` (the caller is one of the workers), or by the caller alone when
  // it is null. Ops on different tables commute, so the result does not
  // depend on the pool; an apply failure is reported for the first
  // failing table in name order.
  //
  // A table created by its own record applies its ops directly. A table
  // that existed before the call replays idempotently: a keyed op is
  // skipped when the table holds a write to that key at >= the op's
  // commit timestamp (image rows, logged keyless, are identified by the
  // key encoded from their row), so recovery that stopped partway can run
  // again. Ops on keyless tables carry no identity and are NOT
  // deduplicated. CREATE MATERIALIZED VIEW records return their texts in
  // stats.view_ddls for the caller to run once the bases are in place. The
  // caller fast-forwards the transaction manager once with
  // AdvanceTo(stats.max_commit_ts).
  static Result<ReplayStats> Replay(std::string_view data, Catalog* catalog,
                                    const ReplayOptions& options = {},
                                    ThreadPool* pool = nullptr);

 private:
  // One sealed (rotated-out, no longer appending) segment.
  struct Segment {
    uint64_t id = 0;
    Timestamp max_commit_ts = 0;
    std::string data;
    std::string file_path;  // empty for memory-only logs
  };

  // The append path of LogCommit (`single`: one commit, failpoints
  // "wal.append.torn" / "wal.append.error") and LogCommitBatch (failpoint
  // "wal.batch.torn"): frames `bodies`, then tears, fails or appends it.
  Status AppendBodies(const std::vector<std::string>& bodies, bool single);
  // Appends `frame` to the active segment and the file (if any), with
  // flush + optional fsync; on failure rolls back to the pre-append
  // length or seals. Caller holds mu_. `records` is how many commits the
  // frame carries; `max_ts` the newest commit timestamp in the frame.
  Status AppendFrameLocked(const std::string& frame, size_t records,
                           Timestamp max_ts);
  // Rotates the active segment out if it reached segment_bytes. Caller
  // holds mu_.
  void MaybeRotateLocked();
  // Publishes wal.segments / wal.retained_bytes. Caller holds mu_.
  void RefreshGaugesLocked();
  // Marks the log torn and publishes the "wal.sealed" gauge. Caller
  // holds mu_.
  void SealLocked();

  Options options_;
  mutable std::mutex mu_;
  std::vector<Segment> sealed_segments_;  // oldest first
  size_t sealed_bytes_ = 0;               // sum over sealed_segments_
  std::string buf_;                       // active segment
  uint64_t active_id_ = 0;
  Timestamp active_max_ts_ = 0;
  uint64_t truncated_bytes_ = 0;
  size_t num_records_ = 0;
  bool sealed_ = false;
  std::FILE* file_ = nullptr;  // active segment's file
  long file_end_ = 0;          // its length: where the next frame lands
  std::string path_;           // base path of a file-backed log
};

}  // namespace oltap

#endif  // OLTAP_TXN_WAL_H_
