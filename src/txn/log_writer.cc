#include "txn/log_writer.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oltap {

LogWriter::~LogWriter() { Stop(); }

Status LogWriter::Commit(std::string body) {
  static obs::Histogram* wait_us =
      obs::MetricsRegistry::Default()->GetHistogram("wal.group_wait_us");
  const uint64_t enqueued_ns = obs::MonotonicNanos();
  Waiter self;
  self.commit_ts = Wal::PeekBodyCommitTs(body);
  self.body = std::move(body);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!running_) {
      self.status =
          Status::Unavailable("log writer is not running; commit not logged");
    } else {
      queue_.push_back(&self);
      if (leading_) {
        self.cv.wait(lock, [&] { return self.done || self.lead; });
      }
      if (!self.done) {
        leading_ = true;
        Lead(&lock);
      }
    }
  }
  wait_us->Record((obs::MonotonicNanos() - enqueued_ns) / 1000);  // to ack
  return self.status;
}

void LogWriter::Complete(Waiter* w, const Status& st) {
  w->status = st;
  w->done = true;
  w->cv.notify_one();
}

void LogWriter::Lead(std::unique_lock<std::mutex>* lock) {
  static Failpoint& hold = FailpointRegistry::Get().Register("logwriter.lead");
  if (hold.IsActive()) {
    lock->unlock();
    (void)hold.Evaluate();  // a hold point only: its status is ignored
    lock->lock();
  }

  // The leader heads the queue; followers that queued while it waited
  // for mu_ ride along in its batch.
  const size_t n =
      std::min(queue_.size(), std::max<size_t>(1, options_.max_batch));
  writing_.assign(queue_.begin(), queue_.begin() + static_cast<long>(n));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<long>(n));
  lock->unlock();

  // The batch's waiters block until Complete, so their bodies are the
  // leader's to move while mu_ is released.
  Status crash = OLTAP_FAILPOINT_STATUS("logwriter.crash");
  Status st = crash;
  if (crash.ok()) {
    std::vector<std::string> bodies;
    bodies.reserve(n);
    for (Waiter* w : writing_) bodies.push_back(std::move(w->body));
    st = wal_->LogCommitBatch(bodies);
  }

  lock->lock();
  // Stats first, acks second: a committer that observes its ack must
  // also observe the batch accounted for.
  if (crash.ok()) {
    ++stats_.batches;
    stats_.commits += n;
  } else {
    // The leader died with its batch in hand: that batch and everything
    // queued behind it fail (none of it reached the log), and later
    // commits fail fast until Restart().
    ++stats_.crashes;
    running_ = false;
    for (Waiter* w : queue_) Complete(w, crash);
    queue_.clear();
  }
  for (Waiter* w : writing_) Complete(w, st);
  writing_.clear();
  if (queue_.empty()) {
    leading_ = false;
    idle_.notify_all();
  } else {
    queue_.front()->lead = true;
    queue_.front()->cv.notify_one();
  }
}

void LogWriter::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  running_ = false;
  // Leaders keep handing over until the queue is empty.
  idle_.wait(lock, [&] { return !leading_; });
}

Status LogWriter::Restart() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition("log writer is still running");
  }
  idle_.wait(lock, [&] { return !leading_; });
  running_ = true;
  return Status::OK();
}

bool LogWriter::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

Timestamp LogWriter::MinPendingCommitTs() const {
  std::lock_guard<std::mutex> lock(mu_);
  Timestamp min_ts = kMaxTimestamp;
  for (const Waiter* w : queue_) min_ts = std::min(min_ts, w->commit_ts);
  for (const Waiter* w : writing_) min_ts = std::min(min_ts, w->commit_ts);
  return min_ts;
}

LogWriter::Stats LogWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.pending = queue_.size() + writing_.size();
  return stats;
}

}  // namespace oltap
