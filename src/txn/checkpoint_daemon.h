#ifndef OLTAP_TXN_CHECKPOINT_DAEMON_H_
#define OLTAP_TXN_CHECKPOINT_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "txn/checkpoint.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

namespace oltap {

// Online checkpointing: a background daemon that takes consistent
// snapshot-isolation checkpoints *while the engine serves traffic*,
// maintains the checkpoint chain + manifest (txn/checkpoint.h), and
// truncates WAL segments the newest durable checkpoint has made
// redundant. This is what turns "recovers after a test" into "runs
// forever": without it the log grows without bound and recovery time
// grows with total history instead of the tail.
//
// One checkpoint round:
//   1. Begin a read-only transaction — its begin timestamp is the
//      checkpoint's snapshot ts, and its registration in the
//      active-snapshot registry is what keeps concurrent merges from
//      garbage-collecting versions the checkpoint scan still needs.
//      (Merges still run and still fold the delta into the main during
//      the scan — the pin only defers version pruning below the
//      snapshot, so the delta store stays bounded under a long
//      checkpoint.)
//   2. WriteCheckpoint at ts: the logged tables' definitions and rows,
//      then the view records (view backing tables are unlogged; recovery
//      re-creates each view from the restored bases).
//   3. Validate and install: image + rebuilt manifest swap in under one
//      lock, so a crash cut never observes the image without its
//      manifest entry or vice versa. An image that fails validation
//      ("checkpoint.write.torn" fired — crash mid-image-write) installs
//      WITHOUT a manifest update and truncates nothing: recovery falls
//      back past it to the previous chain entry plus a longer WAL tail.
//   4. Truncate WAL segments wholly at or below the *pinned horizon*:
//        min( checkpoint ts,
//             oldest active snapshot,
//             min materialized-view change-log cursor (extra pin),
//             oldest un-acked group-commit batch ).
//      Only fully successful rounds truncate, so the retained tail
//      always covers everything past the newest *manifest-endorsed*
//      checkpoint.
//
// Failpoints: "checkpoint.daemon.crash" kills the daemon thread (like
// "logwriter.crash"; Restart() revives it), "checkpoint.manifest.torn"
// tears the manifest bytes mid-write, "checkpoint.write.torn" /
// "checkpoint.write.error" / "checkpoint.scan.stall" act inside
// WriteCheckpoint, and "wal.truncate.error" fails the truncation step.
class CheckpointDaemon {
 public:
  struct Options {
    // Time trigger: checkpoint when this much has passed since the last
    // one. <= 0 disables the time trigger.
    int64_t interval_us = 200'000;
    // Byte trigger: checkpoint when the WAL has accumulated this many
    // bytes since the last checkpoint. 0 disables the byte trigger.
    uint64_t wal_trigger_bytes = 0;
    // Daemon poll cadence.
    int64_t tick_us = 1'000;
    // Checkpoint-chain length: older images fall off the chain. >= 1;
    // 2 keeps one fallback generation.
    size_t keep_images = 2;
    // Truncate WAL segments after each successful checkpoint. Off keeps
    // the full log (the equivalence tests compare checkpoint recovery
    // against full replay, which needs the whole history).
    bool truncate_wal = true;
    // Spawn the background thread in the constructor.
    bool autostart = false;
  };

  // `wal` may be null (no durability): checkpoints still accumulate in
  // the store, truncation is a no-op.
  CheckpointDaemon(Catalog* catalog, TransactionManager* tm, Wal* wal,
                   const Options& options);
  ~CheckpointDaemon();  // Stop()

  CheckpointDaemon(const CheckpointDaemon&) = delete;
  CheckpointDaemon& operator=(const CheckpointDaemon&) = delete;

  // Extra truncation pin (min materialized-view change-log cursor);
  // evaluated fresh each round. Install before Start.
  void set_extra_pin(std::function<Timestamp()> fn);
  // CREATE MATERIALIZED VIEW records (WalOp::CreateView) to carry in each
  // image; evaluated fresh each round. Install before Start.
  void set_view_ddls(std::function<std::vector<WalOp>()> fn);

  void Start();
  void Stop();
  bool running() const;
  // Re-spawns the daemon thread after "checkpoint.daemon.crash" or
  // Stop(). kFailedPrecondition while still running.
  Status Restart();

  struct CheckpointResult {
    uint64_t id = 0;
    Timestamp ts = 0;
    uint64_t bytes = 0;            // image size
    uint64_t wal_truncated = 0;    // bytes dropped this round
  };

  // One synchronous checkpoint round (SQL CHECKPOINT; also what the
  // daemon thread runs on trigger). Thread-safe; rounds serialize.
  Result<CheckpointResult> CheckpointNow();

  // Copy of the durable checkpoint state (chain + manifest).
  CheckpointStore StoreCopy() const;

  // A consistent crash cut of (checkpoint store, WAL): the WAL is sealed
  // FIRST — no commit can append (and therefore acknowledge) after the
  // cut — then both sides are copied under the install/truncate lock, so
  // the cut never splits a manifest install or a truncation. This models
  // the durable bytes a real crash at this instant would leave behind;
  // the crash-anywhere torture recovers from exactly this.
  struct CrashImage {
    CheckpointStore store;
    std::string wal;
  };
  CrashImage CaptureCrashImage();

  struct Stats {
    uint64_t written = 0;      // fully successful rounds
    uint64_t failed = 0;       // rounds that errored (incl. torn installs)
    uint64_t crashes = 0;      // daemon-thread crashes (failpoint)
    uint64_t truncations = 0;  // truncation calls that dropped bytes
    uint64_t truncated_bytes = 0;
  };
  Stats stats() const;

  // Snapshot timestamp of the newest manifest-endorsed checkpoint (0 when
  // none yet).
  Timestamp last_checkpoint_ts() const;
  // Microseconds since the newest successful checkpoint completed; -1
  // when none yet. Feeds the ckpt.age_us gauge / SHOW STATS.
  int64_t AgeMicros(int64_t now_us) const;

  // The truncation pin the next round would use (tests assert each
  // component holds the horizon back).
  Timestamp PinnedHorizon() const;

  // Live re-tuning (SQL: SET checkpoint_interval_us).
  void set_interval_us(int64_t us);
  void set_wal_trigger_bytes(uint64_t bytes);
  void set_truncate_wal(bool on);
  int64_t interval_us() const;

 private:
  void Run();
  // The pin with the candidate checkpoint ts folded in. `candidate_ts`
  // is the newest ts truncation may reach.
  Timestamp PinnedHorizonFor(Timestamp candidate_ts) const;

  Catalog* const catalog_;
  TransactionManager* const tm_;
  Wal* const wal_;

  mutable std::mutex options_mu_;
  Options options_;

  std::function<Timestamp()> extra_pin_;
  std::function<std::vector<WalOp>()> view_ddls_;

  // Serializes checkpoint rounds (the scan phase runs outside store_mu_).
  std::mutex round_mu_;

  // Guards store_, the manifest install, and WAL truncation — the
  // "durable device" lock CaptureCrashImage synchronizes with.
  mutable std::mutex store_mu_;
  CheckpointStore store_;
  uint64_t next_image_id_ = 1;
  std::atomic<Timestamp> last_ckpt_ts_{0};
  std::atomic<int64_t> last_ckpt_wall_us_{-1};
  std::atomic<uint64_t> wal_bytes_at_last_ckpt_{0};

  mutable std::mutex stats_mu_;
  Stats stats_;

  mutable std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace oltap

#endif  // OLTAP_TXN_CHECKPOINT_DAEMON_H_
