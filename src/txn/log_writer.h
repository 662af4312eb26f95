#ifndef OLTAP_TXN_LOG_WRITER_H_
#define OLTAP_TXN_LOG_WRITER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/wal.h"

namespace oltap {

// Group commit: a dedicated log-writer thread that drains queued commit
// records, serializes many of them into ONE frame, issues ONE
// flush+fsync for the whole batch (Wal::LogCommitBatch), and only then
// completes the waiting committers' futures. Amortizing the fsync across
// the batch is the classic group-commit trade (terrier's log_manager,
// Aether): per-commit latency grows by at most the persist interval,
// sustained commit throughput stops being bound by device syncs.
//
// Contract with TransactionManager::Commit:
//  - the committer serializes its record (Wal::SerializeCommitBody) on its
//    own thread, submits the body, and blocks on the returned future
//    while still holding its key stripe locks — the commit is not applied
//    and not acknowledged until the future resolves OK, so ack still
//    implies durable;
//  - a batch fails atomically: if the batch's append fails (torn batch,
//    fsync error, sealed log) EVERY future in the batch resolves to that
//    error and none of those commits may be acknowledged or applied. The
//    Wal's single batch checksum enforces the same all-or-nothing on the
//    recovery side.
//
// Failpoint "logwriter.crash" simulates the writer thread dying: the
// current batch and everything queued behind it fail with the injected
// status, the thread exits, and later submissions fail fast with
// kUnavailable until Restart() re-spawns the thread.
class LogWriter {
 public:
  struct Options {
    // Max commits per batch: a full batch is written immediately.
    size_t max_batch = 64;
    // How long the writer waits for more commits to join a non-empty,
    // non-full batch before persisting it (the persist interval; bounds
    // the latency a commit pays for grouping). 0 = persist immediately.
    int64_t persist_interval_us = 100;
  };

  explicit LogWriter(Wal* wal) : LogWriter(wal, Options()) {}
  LogWriter(Wal* wal, const Options& options);
  ~LogWriter();  // calls Stop()

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Queues one serialized commit body for the next batch. The future
  // resolves after the batch containing it is durable (OK) or failed
  // (the batch's error). After Stop() or a writer crash, resolves
  // immediately with kUnavailable.
  std::future<Status> SubmitCommit(std::string body);

  // Stops the writer. In-flight and queued commits are drained into a
  // final batch when the log still accepts writes; when it does not
  // (sealed), they fail deterministically with the append error. Safe to
  // call twice.
  void Stop();

  // Re-spawns the writer thread after a crash or Stop(). Fails with
  // kFailedPrecondition if it is still running.
  Status Restart();

  bool running() const;

  // Oldest commit timestamp among queued-but-not-yet-persisted bodies
  // (kMaxTimestamp when the queue is empty). The checkpoint daemon folds
  // this into its WAL-truncation pin: a segment may only drop once no
  // in-flight batch could still need its position in the log. (In
  // practice queued commits are always newer than the checkpoint — the
  // visible watermark trails durability — so this pin is a backstop.)
  Timestamp MinPendingCommitTs() const;

  struct Stats {
    uint64_t batches = 0;
    uint64_t commits = 0;
    uint64_t crashes = 0;
  };
  Stats stats() const;

 private:
  struct Pending {
    std::string body;
    std::promise<Status> done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void Run();
  // Fails every entry of `batch` with `st` and publishes their wait times.
  static void FailBatch(std::vector<Pending>* batch, const Status& st);

  Wal* const wal_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> queue_;
  bool stop_ = false;
  bool running_ = false;   // writer thread is live (accepting work)
  std::thread thread_;
  Stats stats_;
};

}  // namespace oltap

#endif  // OLTAP_TXN_LOG_WRITER_H_
