#ifndef OLTAP_TXN_CHECKPOINT_H_
#define OLTAP_TXN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "txn/wal.h"

namespace oltap {

// Consistent checkpointing: serializes every row visible at `ts` so
// recovery can start from the checkpoint and replay only the WAL tail,
// instead of replaying history from the beginning — the standard
// checkpoint + log-truncation pattern of in-memory engines.
//
// Image format (version 2):
//   magic "OLTAPCK2"
//   u64   checkpoint timestamp
//   catalog section: every table's name, format, columns, and key, so
//     restoration can rebuild the catalog from nothing;
//   view section: CREATE MATERIALIZED VIEW statements (their backing
//     tables are *excluded* from the catalog/data sections — recovery
//     re-runs the DDL, which rebuilds each view from the restored bases);
//   data section: WAL-encoded bulk-insert records (one per <= 32000 rows)
//     stamped with commit timestamp `ts`, so restoration is ordinary
//     replay;
//   u64   whole-image checksum, salted — a torn or bit-flipped image
//     fails validation up front instead of surfacing mid-restore.
//
// Because data reads go through a snapshot at `ts`, the checkpoint is
// transaction-consistent even while OLTP continues. The caller must hold
// `ts` pinned in the active-snapshot registry for the duration of the
// scan (Begin a transaction and keep it open), or a concurrent merge
// could garbage-collect versions the scan still needs.
//
// Fault injection: "checkpoint.write.error" fails the write outright;
// "checkpoint.write.torn" returns an image truncated mid-write, modeling
// a crash during the checkpoint write — CheckpointIsValid detects the
// tear and the recovery driver falls back to an older checkpoint.

struct CheckpointWriteOptions {
  // Tables to leave out of the catalog + data sections (materialized-view
  // backing tables; their contents are rebuilt by re-running view_ddls).
  std::vector<std::string> exclude_tables;
  // CREATE MATERIALIZED VIEW statements to carry in the view section.
  std::vector<std::string> view_ddls;
};

Result<std::string> WriteCheckpoint(const Catalog& catalog, Timestamp ts);
Result<std::string> WriteCheckpoint(const Catalog& catalog, Timestamp ts,
                                    const CheckpointWriteOptions& options);

// True when `image` carries the v2 magic and its salted whole-image
// checksum matches. Cheap (one hash pass); run before mutating a catalog.
bool CheckpointIsValid(const std::string& image);

// What RestoreCheckpoint found in the image besides table data.
struct CheckpointContents {
  Timestamp ts = 0;
  std::vector<std::string> view_ddls;
};

// Restores a checkpoint image. Tables missing from `catalog` are created
// from the serialized schemas (recovery from a truly empty catalog);
// tables that already exist must match the serialized schema exactly —
// a mismatch fails with kCorruption before any data is applied. Over
// pre-existing tables the data section replays idempotently, so restoring
// the same image again over keyed tables changes nothing. With a non-null
// `pool` the data section replays partitioned by table on the pool.
// Recovery goes through Database::RecoverFromCheckpointStore, which
// restores the image it selects and then replays the WAL tail.
// Failpoint site: "checkpoint.restore.error".
Result<Wal::ReplayStats> RestoreCheckpoint(const std::string& image,
                                           Catalog* catalog,
                                           CheckpointContents* contents = nullptr,
                                           ThreadPool* pool = nullptr);

// --- Checkpoint chain: versioned images + manifest -----------------------
//
// The checkpoint daemon retains the last few images as a *chain* and
// points at the newest with a checksummed manifest. Recovery reads the
// manifest to find the newest valid image; a torn manifest or a torn
// image falls back automatically — first to older manifest entries, then
// to scanning the retained images directly — trading a longer WAL-tail
// replay for the damage.

struct CheckpointManifestEntry {
  uint64_t id = 0;
  Timestamp ts = 0;
  uint64_t checksum = 0;  // salted whole-image checksum of the image
  uint64_t bytes = 0;
};

// The durable state the daemon maintains: retained images (oldest first)
// plus the serialized manifest. This is what a crash preserves and what
// recovery consumes.
struct CheckpointStore {
  struct Image {
    uint64_t id = 0;
    Timestamp ts = 0;
    std::string data;
  };
  std::vector<Image> images;  // oldest first
  std::string manifest;

  bool empty() const { return images.empty() && manifest.empty(); }
};

// Salted whole-image checksum, as recorded in manifest entries.
uint64_t CheckpointChecksum(const std::string& image);

std::string SerializeManifest(const std::vector<CheckpointManifestEntry>& entries);
// kCorruption on a torn or checksum-failing manifest.
Result<std::vector<CheckpointManifestEntry>> ParseManifest(
    const std::string& data);

// Picks the newest usable image from the store: walk the manifest newest-
// first (entry's image must exist, match the recorded checksum, and pass
// CheckpointIsValid); if the manifest is torn or exhausted, scan the
// retained images newest-first validating each. Every candidate skipped
// counts into *fallbacks (optional). kNotFound when no image qualifies —
// recovery then replays the full retained WAL.
Result<CheckpointStore::Image> SelectRecoveryImage(const CheckpointStore& store,
                                                   size_t* fallbacks = nullptr);

}  // namespace oltap

#endif  // OLTAP_TXN_CHECKPOINT_H_
