#include "txn/checkpoint_daemon.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "txn/log_writer.h"

namespace oltap {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CheckpointDaemon::CheckpointDaemon(Catalog* catalog, TransactionManager* tm,
                                   Wal* wal, const Options& options)
    : catalog_(catalog), tm_(tm), wal_(wal), options_(options) {
  if (options_.keep_images == 0) options_.keep_images = 1;
  if (options_.autostart) Start();
}

CheckpointDaemon::~CheckpointDaemon() { Stop(); }

void CheckpointDaemon::set_extra_pin(std::function<Timestamp()> fn) {
  extra_pin_ = std::move(fn);
}

void CheckpointDaemon::set_view_ddls(std::function<std::vector<WalOp>()> fn) {
  view_ddls_ = std::move(fn);
}

void CheckpointDaemon::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) return;
  if (thread_.joinable()) thread_.join();
  stop_ = false;
  running_ = true;
  thread_ = std::thread(&CheckpointDaemon::Run, this);
}

void CheckpointDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(thread_mu_);
  running_ = false;
}

bool CheckpointDaemon::running() const {
  std::lock_guard<std::mutex> lock(thread_mu_);
  return running_;
}

Status CheckpointDaemon::Restart() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) {
    return Status::FailedPrecondition("checkpoint daemon is still running");
  }
  if (thread_.joinable()) thread_.join();
  stop_ = false;
  running_ = true;
  thread_ = std::thread(&CheckpointDaemon::Run, this);
  return Status::OK();
}

void CheckpointDaemon::Run() {
  // Trigger bookkeeping is thread-local: `last_attempt` spaces rounds by
  // the interval even when a round fails (no hot retry loop).
  int64_t last_attempt = NowMicros();
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_) {
    int64_t tick;
    {
      std::lock_guard<std::mutex> olock(options_mu_);
      tick = options_.tick_us;
    }
    cv_.wait_for(lock, std::chrono::microseconds(tick > 0 ? tick : 1000),
                 [&] { return stop_; });
    if (stop_) break;
    lock.unlock();

    // Daemon-thread crash: the thread exits without checkpointing and
    // without touching the store — exactly what a process that loses its
    // checkpointer experiences. Restart() revives it.
    Status crash = OLTAP_FAILPOINT_STATUS("checkpoint.daemon.crash");
    if (!crash.ok()) {
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.crashes;
      }
      lock.lock();
      running_ = false;
      return;
    }

    int64_t interval;
    uint64_t trigger_bytes;
    {
      std::lock_guard<std::mutex> olock(options_mu_);
      interval = options_.interval_us;
      trigger_bytes = options_.wal_trigger_bytes;
    }
    int64_t now = NowMicros();
    bool due = interval > 0 && now - last_attempt >= interval;
    if (!due && trigger_bytes > 0 && wal_ != nullptr) {
      uint64_t cur = wal_->size();
      uint64_t base = wal_bytes_at_last_ckpt_.load(std::memory_order_relaxed);
      due = cur > base && cur - base >= trigger_bytes;
    }
    if (due) {
      CheckpointNow();  // failures counted in stats; next tick retries
      last_attempt = NowMicros();
    }
    lock.lock();
  }
  running_ = false;
}

Timestamp CheckpointDaemon::PinnedHorizonFor(Timestamp candidate_ts) const {
  Timestamp horizon = candidate_ts;
  horizon = std::min(horizon, tm_->OldestActiveSnapshot());
  if (extra_pin_) horizon = std::min(horizon, extra_pin_());
  LogWriter* lw = tm_->log_writer();
  if (lw != nullptr) horizon = std::min(horizon, lw->MinPendingCommitTs());
  return horizon;
}

Timestamp CheckpointDaemon::PinnedHorizon() const {
  return PinnedHorizonFor(last_ckpt_ts_.load(std::memory_order_acquire));
}

Result<CheckpointDaemon::CheckpointResult> CheckpointDaemon::CheckpointNow() {
  static obs::Counter* written =
      obs::MetricsRegistry::Default()->GetCounter("ckpt.written");
  static obs::Counter* failed =
      obs::MetricsRegistry::Default()->GetCounter("ckpt.failed");
  static obs::Histogram* duration_us =
      obs::MetricsRegistry::Default()->GetHistogram("ckpt.duration_us");
  static obs::Gauge* last_ts_gauge =
      obs::MetricsRegistry::Default()->GetGauge("ckpt.last_ts");

  std::lock_guard<std::mutex> round(round_mu_);
  Options opts;
  {
    std::lock_guard<std::mutex> olock(options_mu_);
    opts = options_;
  }

  int64_t t0 = NowMicros();

  // The open transaction IS the pin: its begin timestamp sits in the
  // active-snapshot registry for the whole scan, so no concurrent merge
  // garbage-collects a version the snapshot at `ts` still needs.
  Timestamp ts = 0;
  Result<std::string> image = [&]() -> Result<std::string> {
    std::unique_ptr<Transaction> pin = tm_->Begin();
    ts = pin->begin_ts();
    // Views are listed after the pin: a view whose record commits at or
    // below `ts` registered before that commit finished, so the image
    // holds it, and recovery may skip its record in the tail.
    std::vector<WalOp> views;
    if (view_ddls_) views = view_ddls_();
    return WriteCheckpoint(*catalog_, ts, views);
  }();
  if (!image.ok()) {
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.failed;
    }
    failed->Add(1);
    return image.status();
  }

  bool valid = CheckpointIsValid(*image);

  CheckpointResult result;
  Status install_error = Status::OK();
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    uint64_t id = next_image_id_++;
    result.id = id;
    result.ts = ts;
    result.bytes = image->size();
    store_.images.push_back(
        CheckpointStore::Image{id, ts, std::move(*image)});
    while (store_.images.size() > opts.keep_images) {
      store_.images.erase(store_.images.begin());
    }

    if (!valid) {
      // Crash mid-image-write ("checkpoint.write.torn"): the torn bytes
      // reached the device but the manifest never endorses them, and
      // nothing is truncated — recovery skips the image and replays the
      // longer tail from the previous checkpoint.
      install_error =
          Status::Corruption("checkpoint image torn during write; not endorsed");
    } else {
      std::vector<CheckpointManifestEntry> entries;
      entries.reserve(store_.images.size());
      for (const CheckpointStore::Image& img : store_.images) {
        if (!CheckpointIsValid(img.data)) continue;  // never endorse torn
        CheckpointManifestEntry e;
        e.id = img.id;
        e.ts = img.ts;
        e.checksum = CheckpointChecksum(img.data);
        e.bytes = img.data.size();
        entries.push_back(e);
      }
      std::string manifest = SerializeManifest(entries);
      Status torn = OLTAP_FAILPOINT_STATUS("checkpoint.manifest.torn");
      if (!torn.ok()) {
        // Crash mid-manifest-write: the manifest on the device is garbage.
        // Recovery detects the tear via the manifest self-checksum and
        // falls back to scanning the retained images directly.
        manifest.resize(manifest.size() - std::min<size_t>(7, manifest.size()));
        store_.manifest = std::move(manifest);
        install_error = torn;
      } else {
        store_.manifest = std::move(manifest);
      }
    }

    if (install_error.ok()) {
      last_ckpt_ts_.store(ts, std::memory_order_release);
      last_ckpt_wall_us_.store(NowMicros(), std::memory_order_release);

      // Truncation happens only on fully successful rounds, under the same
      // lock as the install: a crash cut never sees the log truncated
      // against a checkpoint it cannot read back.
      if (opts.truncate_wal && wal_ != nullptr) {
        uint64_t dropped = 0;
        Status st = wal_->TruncateBelow(PinnedHorizonFor(ts), &dropped);
        if (st.ok() && dropped > 0) {
          result.wal_truncated = dropped;
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.truncations;
          stats_.truncated_bytes += dropped;
        }
        // A truncation failure ("wal.truncate.error") keeps the full log —
        // strictly safe; the next successful round retries.
      }
      wal_bytes_at_last_ckpt_.store(wal_ != nullptr ? wal_->size() : 0,
                                    std::memory_order_release);
    }
  }

  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    if (install_error.ok()) {
      ++stats_.written;
    } else {
      ++stats_.failed;
    }
  }
  if (!install_error.ok()) {
    failed->Add(1);
    return install_error;
  }
  written->Add(1);
  last_ts_gauge->Set(static_cast<int64_t>(ts));
  duration_us->Record(static_cast<uint64_t>(
      std::max<int64_t>(0, NowMicros() - t0)));
  return result;
}

CheckpointStore CheckpointDaemon::StoreCopy() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return store_;
}

CheckpointDaemon::CrashImage CheckpointDaemon::CaptureCrashImage() {
  CrashImage out;
  std::lock_guard<std::mutex> lock(store_mu_);
  // Seal FIRST: in-flight appends serialize with the seal under the Wal
  // mutex, so every commit that acknowledged before this instant has its
  // bytes in the copied buffer, and nothing can acknowledge after it.
  if (wal_ != nullptr) {
    wal_->Seal();
    out.wal = wal_->buffer();
  }
  out.store = store_;
  return out;
}

CheckpointDaemon::Stats CheckpointDaemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Timestamp CheckpointDaemon::last_checkpoint_ts() const {
  return last_ckpt_ts_.load(std::memory_order_acquire);
}

int64_t CheckpointDaemon::AgeMicros(int64_t now_us) const {
  int64_t last = last_ckpt_wall_us_.load(std::memory_order_acquire);
  if (last < 0) return -1;
  return std::max<int64_t>(0, now_us - last);
}

void CheckpointDaemon::set_interval_us(int64_t us) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.interval_us = us;
}

void CheckpointDaemon::set_wal_trigger_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.wal_trigger_bytes = bytes;
}

void CheckpointDaemon::set_truncate_wal(bool on) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_.truncate_wal = on;
}

int64_t CheckpointDaemon::interval_us() const {
  std::lock_guard<std::mutex> lock(options_mu_);
  return options_.interval_us;
}

}  // namespace oltap
