#include "txn/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "txn/codec.h"

namespace oltap {
namespace {

// One WAL record holds a uint16 op count; chunk bulk inserts well below it.
constexpr size_t kRowsPerRecord = 32000;

constexpr char kImageMagic[8] = {'O', 'L', 'T', 'A', 'P', 'C', 'K', '3'};
constexpr char kManifestMagic[8] = {'O', 'L', 'T', 'A', 'P', 'M', 'F', '1'};

// Salts distinguish an image checksum from a manifest checksum from the
// WAL's (unsalted) frame checksums, so bytes of one kind can never
// validate as another.
constexpr uint64_t kImageChecksumSalt = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kManifestChecksumSalt = 0x165667b19e3779f9ull;

using codec::PutU32;
using codec::PutU64;
using codec::Reader;

}  // namespace

uint64_t CheckpointChecksum(const std::string& image) {
  return HashBytes(image.data(), image.size()) ^ kImageChecksumSalt;
}

bool CheckpointIsValid(const std::string& image) {
  if (image.size() < sizeof(kImageMagic) + 8 + 8) return false;
  if (std::memcmp(image.data(), kImageMagic, sizeof(kImageMagic)) != 0) {
    return false;
  }
  const size_t body = image.size() - 8;
  Reader r{image.data() + body, image.data() + image.size()};
  uint64_t want = r.U64();
  return (HashBytes(image.data(), body) ^ kImageChecksumSalt) == want;
}

Result<std::string> WriteCheckpoint(const Catalog& catalog, Timestamp ts,
                                    const std::vector<WalOp>& views) {
  OLTAP_FAILPOINT("checkpoint.write.error");
  // Logged tables only: a view's backing table is rebuilt by its view.
  std::vector<const Table*> tables;
  for (const Table* table : catalog.AllTables()) {
    if (table->logged()) tables.push_back(table);
  }
  std::sort(tables.begin(), tables.end(),  // deterministic output
            [](const Table* a, const Table* b) {
              return a->name() < b->name();
            });

  // The stream: every record is a commit at `ts`, so restoring the image
  // is ordinary replay.
  Wal stream;
  Status write_status;
  Wal::CommitBody body(/*txn_id=*/0, ts);
  // Logs the ops added to `body` as one record (none: nothing); the first
  // failure sticks.
  auto flush = [&] {
    if (body.num_ops() == 0) return;
    Status st = stream.LogCommit(body.Take());
    if (write_status.ok()) write_status = st;
    body = Wal::CommitBody(/*txn_id=*/0, ts);
  };
  for (const Table* table : tables) body.Add(WalOp::CreateTable(*table));
  flush();

  // Bulk inserts of every row visible at ts. The per-table scan is the
  // long pole of a checkpoint; the stall failpoint stretches it so tests
  // can overlap a "slow" checkpoint with live DML and merges.
  for (const Table* table : tables) {
    if (!write_status.ok()) return write_status;
    // A fired stall sleeps instead of failing — it models a slow scan,
    // not a broken one.
    if (!OLTAP_FAILPOINT_STATUS("checkpoint.scan.stall").ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    table->ScanVisible(ts, [&](const Row& row) {
      body.Add(WalOp::kInsert, table->name(), /*key=*/"", row);
      if (body.num_ops() >= kRowsPerRecord) flush();
    });
    flush();
  }
  // Views last: recovery creates them once their bases are restored.
  if (write_status.ok()) {
    for (const WalOp& view : views) body.Add(view);
    flush();
  }
  if (!write_status.ok()) return write_status;

  std::string image(kImageMagic, sizeof(kImageMagic));
  PutU64(&image, ts);
  image += stream.buffer();
  PutU64(&image, HashBytes(image.data(), image.size()) ^ kImageChecksumSalt);

  // Torn-write injection: the tail of the image never reached disk (crash
  // mid-checkpoint). Chopping bytes destroys the trailing whole-image
  // checksum, which CheckpointIsValid reports up front.
  if (!OLTAP_FAILPOINT_STATUS("checkpoint.write.torn").ok()) {
    image.resize(image.size() - std::min<size_t>(image.size(), 5));
  }
  return image;
}

Status CheckpointStream(const std::string& image, Timestamp* ts,
                        std::string_view* stream) {
  OLTAP_FAILPOINT("checkpoint.restore.error");
  if (!CheckpointIsValid(image)) {
    return Status::Corruption("checkpoint is torn");
  }
  Reader r{image.data() + sizeof(kImageMagic), image.data() + image.size()};
  *ts = r.U64();
  const size_t header = sizeof(kImageMagic) + 8;
  *stream = std::string_view(image).substr(header, image.size() - header - 8);
  return Status::OK();
}

std::string SerializeManifest(
    const std::vector<CheckpointManifestEntry>& entries) {
  std::string out(kManifestMagic, sizeof(kManifestMagic));
  PutU32(&out, static_cast<uint32_t>(entries.size()));
  for (const CheckpointManifestEntry& e : entries) {
    PutU64(&out, e.id);
    PutU64(&out, e.ts);
    PutU64(&out, e.checksum);
    PutU64(&out, e.bytes);
  }
  PutU64(&out, HashBytes(out.data(), out.size()) ^ kManifestChecksumSalt);
  return out;
}

Result<std::vector<CheckpointManifestEntry>> ParseManifest(
    const std::string& data) {
  if (data.size() < sizeof(kManifestMagic) + 4 + 8 ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Corruption("checkpoint manifest is torn");
  }
  const size_t body = data.size() - 8;
  {
    Reader tail{data.data() + body, data.data() + data.size()};
    if ((HashBytes(data.data(), body) ^ kManifestChecksumSalt) !=
        tail.U64()) {
      return Status::Corruption("checkpoint manifest is torn");
    }
  }
  Reader r{data.data() + sizeof(kManifestMagic), data.data() + body};
  uint32_t count = r.U32();
  std::vector<CheckpointManifestEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count && r.ok; ++i) {
    CheckpointManifestEntry e;
    e.id = r.U64();
    e.ts = r.U64();
    e.checksum = r.U64();
    e.bytes = r.U64();
    entries.push_back(e);
  }
  if (!r.ok || r.p != r.end) {
    return Status::Corruption("checkpoint manifest is torn");
  }
  return entries;
}

Result<CheckpointStore::Image> SelectRecoveryImage(const CheckpointStore& store,
                                                   size_t* fallbacks) {
  size_t skipped = 0;
  auto find_image = [&](uint64_t id) -> const CheckpointStore::Image* {
    for (const CheckpointStore::Image& img : store.images) {
      if (img.id == id) return &img;
    }
    return nullptr;
  };

  // Primary path: the manifest names the valid chain, newest first.
  if (!store.manifest.empty()) {
    auto parsed = ParseManifest(store.manifest);
    if (parsed.ok()) {
      const std::vector<CheckpointManifestEntry>& entries = parsed.value();
      // Images newer than the newest manifest entry are rounds whose
      // manifest write never completed (crash mid-checkpoint): recovery
      // falls back past them, and they count as such.
      uint64_t endorsed = entries.empty() ? 0 : entries.back().id;
      for (const CheckpointStore::Image& img : store.images) {
        if (img.id > endorsed) ++skipped;
      }
      for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        const CheckpointStore::Image* img = find_image(it->id);
        if (img != nullptr && CheckpointChecksum(img->data) == it->checksum &&
            CheckpointIsValid(img->data)) {
          if (fallbacks != nullptr) *fallbacks = skipped;
          return *img;
        }
        ++skipped;
      }
    } else {
      ++skipped;  // the torn manifest itself
    }
  }

  // Fallback: the manifest is torn (or every entry it names is damaged) —
  // scan the retained images directly, newest first.
  for (auto it = store.images.rbegin(); it != store.images.rend(); ++it) {
    if (CheckpointIsValid(it->data)) {
      // An image the (valid) manifest does not endorse is one whose
      // manifest write never completed: usable, but only via fallback.
      if (fallbacks != nullptr) *fallbacks = skipped;
      return *it;
    }
    ++skipped;
  }
  if (fallbacks != nullptr) *fallbacks = skipped;
  return Status::NotFound("no valid checkpoint image in the store");
}

}  // namespace oltap
