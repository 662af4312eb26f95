#ifndef OLTAP_TXN_CHECKPOINT_H_
#define OLTAP_TXN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
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
// An image is a WAL stream (txn/wal.h) in a checksummed envelope, so
// restoring one is ordinary Wal::Replay. Image format (version 3):
//   magic "OLTAPCK3"
//   u64   checkpoint timestamp
//   WAL stream, every record stamped with commit timestamp `ts`:
//     CREATE TABLE records for every logged table (view backing tables
//       are unlogged: their views rebuild them);
//     bulk-insert records of every row visible at ts (<= 32000 rows per
//       record);
//     CREATE MATERIALIZED VIEW records for the `views` passed in, which
//       recovery runs once the bases are restored;
//   u64   whole-image checksum, salted — a torn or bit-flipped image
//     fails validation up front instead of surfacing mid-restore, and
//     the magic keeps a bare WAL stream from ever passing as an image.
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
Result<std::string> WriteCheckpoint(const Catalog& catalog, Timestamp ts,
                                    const std::vector<WalOp>& views = {});

// True when `image` carries the v3 magic and its salted whole-image
// checksum matches. Cheap (one hash pass); run before mutating a catalog.
bool CheckpointIsValid(const std::string& image);

// The timestamp and WAL stream of a valid image (the stream is a view
// into `image`); kCorruption when the image is torn. Recovery replays the
// stream, then the WAL tail past the timestamp
// (Database::RecoverFromCheckpointStore). Failpoint site:
// "checkpoint.restore.error".
Status CheckpointStream(const std::string& image, Timestamp* ts,
                        std::string_view* stream);

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
