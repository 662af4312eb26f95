#ifndef OLTAP_TXN_LOG_WRITER_H_
#define OLTAP_TXN_LOG_WRITER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/wal.h"

namespace oltap {

// Group commit by leader/follower hand-off, with no log-writer thread and
// no timer (Aether's flush pipelining, Johnson et al., VLDB 2010). A
// committer queues its serialized body; if no batch is being written it
// becomes the leader: it takes up to max_batch queued bodies (its own
// first), writes them on its own thread as ONE Wal::LogCommitBatch frame
// — one checksum, one flush, one fsync — and acks that batch. Commits
// that arrive during the write queue as followers; the leader hands
// leadership to the oldest of them and returns, and they form the next
// batch. A lone commit waits for nothing; under load batches grow.
//
// Contract with TransactionManager::Commit: the committer blocks in
// Commit() while still holding its key stripe locks, and applies only on
// OK, so ack implies durable. A batch fails atomically: if its append
// fails (torn batch, fsync error, sealed log) EVERY commit in it gets the
// error and none may be acknowledged or applied — the Wal's single batch
// checksum enforces the same all-or-nothing on the recovery side.
//
// Failpoint "logwriter.crash" simulates a leader dying with its batch in
// hand: that batch and everything queued behind it fail with the
// injected status, and later commits fail fast with kUnavailable until
// Restart(). Failpoint "logwriter.lead" is hit by every leader before it
// takes its batch; armed with an OK status and an action it holds the
// leader there while followers queue (tests use it to shape batches).
class LogWriter {
 public:
  struct Options {
    // Max commits per batch (per frame).
    size_t max_batch = 64;
  };

  explicit LogWriter(Wal* wal) : LogWriter(wal, Options()) {}
  LogWriter(Wal* wal, const Options& options)
      : wal_(wal), options_(options) {}
  ~LogWriter();  // calls Stop()

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Makes one serialized commit body (Wal::CommitBody) durable. Returns
  // once the batch holding it is written (OK) or failed (the batch's
  // error). After Stop() or a crash, fails at once with kUnavailable.
  Status Commit(std::string body);

  // Stops accepting commits and waits until every queued commit is
  // written — or failed deterministically with the append error, when
  // the log is sealed. Safe to call twice.
  void Stop();

  // Accepts commits again after a crash or Stop(). Fails with
  // kFailedPrecondition if the writer is still running.
  Status Restart();

  bool running() const;

  // Oldest commit timestamp among bodies not yet durable — queued ones
  // and the batch a leader is writing (kMaxTimestamp when none). The
  // checkpoint daemon folds this into its WAL-truncation pin. (Pending
  // commits are newer than any checkpoint — the visible watermark trails
  // durability — so this pin is a backstop.)
  Timestamp MinPendingCommitTs() const;

  struct Stats {
    uint64_t batches = 0;
    uint64_t commits = 0;
    uint64_t crashes = 0;
    size_t pending = 0;  // commits queued or being written, not yet acked
  };
  Stats stats() const;

 private:
  // One blocked committer; lives on its thread's stack until acked.
  struct Waiter {
    std::string body;
    Timestamp commit_ts = 0;
    Status status;
    bool done = false;  // status is final
    bool lead = false;  // handed leadership
    std::condition_variable cv;
  };

  // Writes one batch as the leader — always the oldest queued commit, at
  // queue_.front() — then acks it and hands leadership on. Called and
  // returns with mu_ held.
  void Lead(std::unique_lock<std::mutex>* lock);
  // Sets the final status of `w` and wakes it. Caller holds mu_ (the
  // waiter may return, destroying its cv, as soon as mu_ is released).
  static void Complete(Waiter* w, const Status& st);

  Wal* const wal_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable idle_;   // signalled when no leader remains
  std::vector<Waiter*> queue_;     // oldest first
  std::vector<Waiter*> writing_;   // the batch the leader has in hand
  bool leading_ = false;           // a leader is active or handed over
  bool running_ = true;            // accepting commits
  Stats stats_;
};

}  // namespace oltap

#endif  // OLTAP_TXN_LOG_WRITER_H_
