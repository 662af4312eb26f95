#include "txn/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"

namespace oltap {
namespace {

// One WAL record holds a uint16 op count; chunk bulk inserts well below it.
constexpr size_t kRowsPerRecord = 32000;

constexpr char kImageMagic[8] = {'O', 'L', 'T', 'A', 'P', 'C', 'K', '2'};
constexpr char kManifestMagic[8] = {'O', 'L', 'T', 'A', 'P', 'M', 'F', '1'};

// Salts distinguish an image checksum from a manifest checksum from the
// WAL's frame checksums, so bytes of one kind can never validate as
// another.
constexpr uint64_t kImageChecksumSalt = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kManifestChecksumSalt = 0x165667b19e3779f9ull;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct Reader {
  const char* p;
  const char* end;
  bool ok = true;

  bool Need(size_t n) {
    if (static_cast<size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(*p++);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    p += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    p += 8;
    return v;
  }
  std::string Bytes() {
    uint32_t n = U32();
    if (!Need(n)) return std::string();
    std::string s(p, n);
    p += n;
    return s;
  }
};

// Serialized form of one table's definition in the catalog section.
void PutTableDef(std::string* out, const Table& table) {
  PutBytes(out, table.name());
  PutU8(out, static_cast<uint8_t>(table.format()));
  const Schema& schema = table.schema();
  PutU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    PutBytes(out, col.name);
    PutU8(out, static_cast<uint8_t>(col.type));
    PutU8(out, col.nullable ? 1 : 0);
  }
  PutU32(out, static_cast<uint32_t>(schema.key_columns().size()));
  for (int k : schema.key_columns()) PutU32(out, static_cast<uint32_t>(k));
}

struct TableDef {
  std::string name;
  TableFormat format = TableFormat::kRow;
  std::vector<ColumnDef> columns;
  std::vector<int> key_columns;
};

bool ReadTableDef(Reader* r, TableDef* out) {
  out->name = r->Bytes();
  out->format = static_cast<TableFormat>(r->U8());
  uint32_t ncols = r->U32();
  if (!r->ok || ncols > (1u << 16)) return false;
  out->columns.clear();
  out->columns.reserve(ncols);
  for (uint32_t c = 0; c < ncols && r->ok; ++c) {
    ColumnDef col;
    col.name = r->Bytes();
    col.type = static_cast<ValueType>(r->U8());
    col.nullable = r->U8() != 0;
    out->columns.push_back(std::move(col));
  }
  uint32_t nkeys = r->U32();
  if (!r->ok || nkeys > ncols) return false;
  out->key_columns.clear();
  out->key_columns.reserve(nkeys);
  for (uint32_t k = 0; k < nkeys && r->ok; ++k) {
    out->key_columns.push_back(static_cast<int>(r->U32()));
  }
  return r->ok;
}

// Compares a serialized table definition with a live table; the
// difference text names the first divergence.
Status MatchSchema(const TableDef& def, const Table& table) {
  auto mismatch = [&](const std::string& what) {
    return Status::Corruption("checkpoint schema mismatch for table " +
                              def.name + ": " + what);
  };
  if (table.format() != def.format) return mismatch("storage format differs");
  const Schema& schema = table.schema();
  if (schema.num_columns() != def.columns.size()) {
    return mismatch("column count " + std::to_string(schema.num_columns()) +
                    " vs " + std::to_string(def.columns.size()));
  }
  for (size_t c = 0; c < def.columns.size(); ++c) {
    const ColumnDef& want = def.columns[c];
    const ColumnDef& have = schema.column(c);
    if (have.name != want.name || have.type != want.type ||
        have.nullable != want.nullable) {
      return mismatch("column " + std::to_string(c) + " (" + have.name +
                      ") differs");
    }
  }
  if (schema.key_columns() != def.key_columns) {
    return mismatch("primary key differs");
  }
  return Status::OK();
}

// Parses the image header + catalog + view sections; on success *r points
// at the data section (whose length was validated by the checksum check).
Status ParseImagePrefix(const std::string& image, Reader* r, Timestamp* ts,
                        std::vector<TableDef>* tables,
                        std::vector<std::string>* view_ddls) {
  if (!CheckpointIsValid(image)) {
    return Status::Corruption("checkpoint is torn");
  }
  r->p = image.data() + sizeof(kImageMagic);
  r->end = image.data() + image.size() - 8;  // trailing checksum
  *ts = r->U64();
  uint32_t ntables = r->U32();
  if (!r->ok || ntables > (1u << 20)) {
    return Status::Corruption("malformed checkpoint catalog section");
  }
  tables->clear();
  tables->reserve(ntables);
  for (uint32_t t = 0; t < ntables; ++t) {
    TableDef def;
    if (!ReadTableDef(r, &def)) {
      return Status::Corruption("malformed checkpoint table definition");
    }
    tables->push_back(std::move(def));
  }
  uint32_t nviews = r->U32();
  if (!r->ok || nviews > (1u << 16)) {
    return Status::Corruption("malformed checkpoint view section");
  }
  view_ddls->clear();
  view_ddls->reserve(nviews);
  for (uint32_t v = 0; v < nviews; ++v) {
    view_ddls->push_back(r->Bytes());
  }
  uint64_t data_len = r->U64();
  if (!r->ok || data_len != static_cast<uint64_t>(r->end - r->p)) {
    return Status::Corruption("malformed checkpoint data section");
  }
  return Status::OK();
}

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

Result<std::string> WriteCheckpoint(const Catalog& catalog, Timestamp ts) {
  return WriteCheckpoint(catalog, ts, CheckpointWriteOptions{});
}

Result<std::string> WriteCheckpoint(const Catalog& catalog, Timestamp ts,
                                    const CheckpointWriteOptions& options) {
  OLTAP_FAILPOINT("checkpoint.write.error");
  std::set<std::string> excluded(options.exclude_tables.begin(),
                                 options.exclude_tables.end());
  std::vector<std::string> names = catalog.TableNames();
  std::sort(names.begin(), names.end());  // deterministic output
  names.erase(std::remove_if(names.begin(), names.end(),
                             [&](const std::string& n) {
                               return excluded.count(n) != 0;
                             }),
              names.end());

  std::string image(kImageMagic, sizeof(kImageMagic));
  PutU64(&image, ts);

  // Catalog section: the schemas recovery needs to rebuild every table
  // from an empty catalog.
  PutU32(&image, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    PutTableDef(&image, *catalog.GetTable(name));
  }

  // View section: DDL replayed after the data is restored (the initial
  // build doubles as the rebuild).
  PutU32(&image, static_cast<uint32_t>(options.view_ddls.size()));
  for (const std::string& ddl : options.view_ddls) PutBytes(&image, ddl);

  // Data section: WAL-encoded bulk inserts of every row visible at ts.
  // The per-table scan is the long pole of a checkpoint; the stall
  // failpoint stretches it so tests can overlap a "slow" checkpoint with
  // live DML and merges.
  Wal buffer;
  Status write_status;
  for (const std::string& name : names) {
    // A fired stall sleeps instead of failing — it models a slow scan,
    // not a broken one.
    if (!OLTAP_FAILPOINT_STATUS("checkpoint.scan.stall").ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const Table* table = catalog.GetTable(name);
    std::vector<WalOp> ops;
    ops.reserve(kRowsPerRecord);
    auto flush = [&] {
      if (!ops.empty()) {
        Status st = buffer.LogCommit(/*txn_id=*/0, ts, ops);
        if (write_status.ok()) write_status = st;
        ops.clear();
      }
    };
    table->ScanVisible(ts, [&](const Row& row) {
      WalOp op;
      op.kind = WalOp::kInsert;
      op.table = name;
      op.row = row;
      ops.push_back(std::move(op));
      if (ops.size() >= kRowsPerRecord) flush();
    });
    flush();
    if (!write_status.ok()) return write_status;
  }
  std::string data = buffer.buffer();
  PutU64(&image, data.size());
  image += data;

  PutU64(&image, HashBytes(image.data(), image.size()) ^ kImageChecksumSalt);

  // Torn-write injection: the tail of the image never reached disk (crash
  // mid-checkpoint). Chopping bytes destroys the trailing whole-image
  // checksum, which CheckpointIsValid reports up front.
  if (!OLTAP_FAILPOINT_STATUS("checkpoint.write.torn").ok()) {
    image.resize(image.size() - std::min<size_t>(image.size(), 5));
  }
  return image;
}

Result<Wal::ReplayStats> RestoreCheckpoint(const std::string& image,
                                           Catalog* catalog,
                                           CheckpointContents* contents,
                                           ThreadPool* pool) {
  OLTAP_FAILPOINT("checkpoint.restore.error");
  Reader r{nullptr, nullptr};
  Timestamp ts = 0;
  std::vector<TableDef> tables;
  std::vector<std::string> view_ddls;
  OLTAP_RETURN_NOT_OK(ParseImagePrefix(image, &r, &ts, &tables, &view_ddls));

  // Schema pass before any data is applied: verify every pre-existing
  // table, then create the missing ones. A mismatch leaves the catalog
  // untouched.
  for (const TableDef& def : tables) {
    if (const Table* existing = catalog->GetTable(def.name)) {
      OLTAP_RETURN_NOT_OK(MatchSchema(def, *existing));
    }
  }
  // A table that already existed may already hold the image's rows (a
  // re-run restore), so then the data replays idempotently; tables
  // created here are empty and skip the per-row check.
  Wal::ReplayOptions options;
  for (const TableDef& def : tables) {
    if (catalog->GetTable(def.name) != nullptr) {
      options.idempotent = true;
      continue;
    }
    std::vector<int> keys = def.key_columns;
    OLTAP_RETURN_NOT_OK(catalog->CreateTable(
        def.name, Schema(def.columns, std::move(keys)), def.format));
  }

  std::string data(r.p, static_cast<size_t>(r.end - r.p));
  OLTAP_ASSIGN_OR_RETURN(Wal::ReplayStats stats,
                         Wal::Replay(data, catalog, options, pool));
  stats.max_commit_ts = std::max(stats.max_commit_ts, ts);
  if (contents != nullptr) {
    contents->ts = ts;
    contents->view_ddls = std::move(view_ddls);
  }
  return stats;
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
