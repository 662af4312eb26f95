#include "txn/wal.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/codec.h"

namespace oltap {
namespace {

using codec::PutBytes;
using codec::PutU16;
using codec::PutU32;
using codec::PutU64;
using codec::PutU8;
using codec::Reader;

enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagString = 3,
};

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, kTagNull);
    PutU8(out, static_cast<uint8_t>(v.type()));
    return;
  }
  switch (v.type()) {
    case ValueType::kInt64:
      PutU8(out, kTagInt);
      PutU64(out, static_cast<uint64_t>(v.AsInt64()));
      return;
    case ValueType::kDouble: {
      PutU8(out, kTagDouble);
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, 8);
      PutU64(out, bits);
      return;
    }
    case ValueType::kString:
      PutU8(out, kTagString);
      PutBytes(out, v.AsString());
      return;
  }
}

Value ReadValue(Reader* r) {
  switch (r->U8()) {
    case kTagNull:
      return Value::Null(static_cast<ValueType>(r->U8()));
    case kTagInt:
      return Value::Int64(static_cast<int64_t>(r->U64()));
    case kTagDouble: {
      uint64_t bits = r->U64();
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case kTagString:
      return Value::String(r->Bytes());
    default:
      r->ok = false;
      return Value();
  }
}

// The table a CREATE TABLE record defines (WalOp::CreateTable's
// encoding), or nullptr when the payload is malformed.
std::unique_ptr<Table> DecodeTable(const std::string& payload) {
  Reader r{payload.data(), payload.data() + payload.size()};
  std::string name = r.Bytes();
  const auto format = static_cast<TableFormat>(r.U8());
  uint32_t ncols = r.U32();
  if (!r.ok || ncols > (1u << 16)) return nullptr;
  std::vector<ColumnDef> columns(ncols);
  for (ColumnDef& col : columns) {
    col.name = r.Bytes();
    col.type = static_cast<ValueType>(r.U8());
    col.nullable = r.U8() != 0;
  }
  uint32_t nkeys = r.U32();
  if (!r.ok || nkeys > ncols) return nullptr;
  std::vector<int> keys(nkeys);
  for (int& k : keys) k = static_cast<int>(r.U32());
  if (!r.ok || r.p != r.end) return nullptr;
  return std::make_unique<Table>(
      std::move(name), Schema(std::move(columns), std::move(keys)), format);
}

// The length of open file `f`, where its next "ab"-mode write lands.
long FileEnd(std::FILE* f) {
  std::fseek(f, 0, SEEK_END);
  return std::ftell(f);
}

// The commit timestamp of a commit body (CommitBody: u64 txn_id,
// u64 commit_ts, ...); 0 when the body is too short.
Timestamp BodyCommitTs(const char* data, size_t len) {
  Reader r{data, data + len};
  r.U64();  // txn_id
  Timestamp ts = r.U64();
  return r.ok ? ts : 0;
}

// One decoded commit, before its ops are applied.
struct DecodedTxn {
  uint64_t txn_id = 0;
  Timestamp commit_ts = 0;
  std::vector<WalOp> ops;
};

// Parses a record body (txn_id, commit_ts, ops). Returns kCorruption on a
// malformed body — the checksum already passed, so this is real damage,
// not a torn tail.
Status ParseBody(const char* data, size_t len, DecodedTxn* out) {
  Reader r{data, data + len};
  out->txn_id = r.U64();
  out->commit_ts = r.U64();
  uint16_t nops = r.U16();
  out->ops.clear();
  out->ops.reserve(nops);
  for (uint16_t i = 0; i < nops && r.ok; ++i) {
    WalOp op;
    const uint8_t kind = r.U8();
    if (kind > WalOp::kCreateView) {
      return Status::Corruption("unknown WAL op kind " + std::to_string(kind));
    }
    op.kind = static_cast<WalOp::Kind>(kind);
    op.table = r.Bytes();
    op.key = r.Bytes();
    uint16_t ncols = r.U16();
    op.row.reserve(ncols);
    for (uint16_t c = 0; c < ncols && r.ok; ++c) {
      op.row.push_back(ReadValue(&r));
    }
    if (!r.ok) return Status::Corruption("malformed WAL op");
    out->ops.push_back(std::move(op));
  }
  if (!r.ok) return Status::Corruption("malformed WAL record body");
  return Status::OK();
}

// Collapses a commit's writes to one net op per key. A transaction may
// write the same key several times (a NewOrder drawing the same item
// twice updates that stock row twice); the live commit applies them in
// order, but every op in the record carries the same commit timestamp, so
// the idempotent skip in ApplyOp would drop everything after the first
// write to a key and lose the later state. The net effect against the
// pre-commit state is what replay must apply:
//   insert, update*      -> insert with the final row
//   insert .. delete     -> nothing (the row never existed before or after)
//   update, update*      -> the last update
//   update .. delete     -> the delete
//   delete .. insert     -> update with the new row (the key pre-existed)
// Keyless ops and DDL carry no key identity and are kept untouched, in
// order.
bool HasKeyIdentity(const WalOp& op) {
  return !op.key.empty() && op.kind <= WalOp::kDelete;
}

void CollapseDuplicateKeyOps(std::vector<WalOp>* ops) {
  // Fast path: duplicate keyed writes inside one commit are rare.
  std::set<std::pair<std::string_view, std::string_view>> seen;
  bool dup = false;
  for (const WalOp& op : *ops) {
    if (!HasKeyIdentity(op)) continue;
    if (!seen.insert({op.table, op.key}).second) {
      dup = true;
      break;
    }
  }
  if (!dup) return;

  struct Net {
    bool cancelled = false;  // insert..delete: emit nothing
    WalOp op;
  };
  std::map<std::pair<std::string, std::string>, Net> nets;
  std::vector<std::pair<std::string, std::string>> order;  // first touch
  std::vector<WalOp> keyless;
  for (WalOp& op : *ops) {
    if (!HasKeyIdentity(op)) {
      keyless.push_back(std::move(op));
      continue;
    }
    auto id = std::make_pair(op.table, op.key);
    auto it = nets.find(id);
    if (it == nets.end()) {
      order.push_back(id);
      nets[std::move(id)] = Net{false, std::move(op)};
      continue;
    }
    Net& net = it->second;
    if (net.cancelled) {
      // insert..delete..insert: the key still never pre-existed.
      net.cancelled = false;
      net.op = std::move(op);
      continue;
    }
    switch (net.op.kind) {
      case WalOp::kInsert:
        if (op.kind == WalOp::kDelete) {
          net.cancelled = true;
        } else {
          net.op.row = std::move(op.row);  // insert with the final row
        }
        break;
      case WalOp::kUpdate:
        net.op.kind = op.kind == WalOp::kDelete ? WalOp::kDelete
                                                : WalOp::kUpdate;
        net.op.row = std::move(op.row);
        break;
      case WalOp::kDelete:
        // delete..insert: the key pre-existed, so the net is an update.
        net.op.kind = WalOp::kUpdate;
        net.op.row = std::move(op.row);
        break;
      case WalOp::kCreateTable:
      case WalOp::kCreateView:
        break;  // no key identity: never collected here
    }
  }

  ops->clear();
  for (const auto& id : order) {
    Net& net = nets[id];
    if (!net.cancelled) ops->push_back(std::move(net.op));
  }
  for (WalOp& op : keyless) ops->push_back(std::move(op));
}

// True when `table` already holds a write to `op`'s key at >= commit_ts
// (the idempotent re-run test). Checkpoint image rows are logged keyless,
// so an insert into a keyed table is identified by the key encoded from
// its row. LastWriteTs reads 0 both for a key never written and for one
// written only at ts 0 (a ts-0 image), so at commit_ts 0 the key's
// presence decides.
bool AlreadyApplied(const Table& table, const WalOp& op, Timestamp commit_ts) {
  const Schema& schema = table.schema();
  if (!schema.HasKey()) return false;
  std::string encoded;
  std::string_view key = op.key;
  if (key.empty()) {
    encoded = EncodeKey(schema, op.row);
    key = encoded;
  }
  Timestamp last = table.LastWriteTs(key);
  if (last > 0 || commit_ts > 0) return last >= commit_ts;
  Row existing;
  return table.Lookup(key, 0, &existing);
}

// Applies one op; with `idempotent`, an op AlreadyApplied reports is
// skipped. `applied` reports whether the op mutated the table.
Status ApplyOp(Table* table, const WalOp& op, Timestamp commit_ts,
               bool idempotent, bool* applied) {
  *applied = false;
  if (idempotent && AlreadyApplied(*table, op, commit_ts)) {
    return Status::OK();
  }
  Status st;
  switch (op.kind) {
    case WalOp::kInsert:
      st = table->InsertCommitted(op.row, commit_ts);
      break;
    case WalOp::kUpdate:
      st = table->UpdateCommitted(op.key, op.row, commit_ts);
      break;
    case WalOp::kDelete:
      st = table->DeleteCommitted(op.key, commit_ts);
      break;
    case WalOp::kCreateTable:
    case WalOp::kCreateView:
      return Status::Internal("DDL reached the WAL apply pass");
  }
  if (!st.ok()) {
    return Status::Corruption("WAL replay apply failed (table=" +
                              table->name() + " kind=" +
                              std::to_string(static_cast<int>(op.kind)) +
                              " commit_ts=" + std::to_string(commit_ts) +
                              "): " + st.ToString());
  }
  *applied = true;
  return st;
}

// Walks the frames of `data`, calling `body_fn(ptr, len)` for every commit
// body in every frame with a valid checksum. Stops at the first torn or
// corrupt frame, setting *truncated. body_fn may return an error to abort
// the walk.
Status ForEachBody(std::string_view data, bool* truncated,
                   const std::function<Status(const char*, size_t)>& body_fn) {
  *truncated = false;
  Reader outer{data.data(), data.data() + data.size()};
  while (outer.p < outer.end) {
    uint32_t len = outer.U32();
    uint64_t checksum = outer.U64();
    if (!outer.ok || !outer.Need(len) ||
        HashBytes(outer.p, len) != checksum) {
      *truncated = true;
      return Status::OK();
    }
    Reader frame{outer.p, outer.p + len};
    outer.p += len;
    while (frame.p < frame.end) {
      uint32_t blen = frame.U32();
      if (!frame.ok || !frame.Need(blen)) {
        // The checksum passed but the body structure does not parse: real
        // corruption, not a tear.
        return Status::Corruption("malformed WAL frame");
      }
      OLTAP_RETURN_NOT_OK(body_fn(frame.p, blen));
      frame.p += blen;
    }
  }
  return Status::OK();
}

}  // namespace

Wal::~Wal() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<Wal>> Wal::OpenFile(const std::string& path,
                                           const Options& options) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Unavailable("cannot open WAL file: " + path);
  }
  auto wal = std::make_unique<Wal>(options);
  wal->file_ = f;
  wal->file_end_ = FileEnd(f);
  wal->path_ = path;
  return wal;
}

WalOp WalOp::CreateTable(const Table& table) {
  WalOp op;
  op.kind = kCreateTable;
  op.table = table.name();
  PutBytes(&op.key, table.name());
  PutU8(&op.key, static_cast<uint8_t>(table.format()));
  const Schema& schema = table.schema();
  PutU32(&op.key, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    PutBytes(&op.key, col.name);
    PutU8(&op.key, static_cast<uint8_t>(col.type));
    PutU8(&op.key, col.nullable ? 1 : 0);
  }
  PutU32(&op.key, static_cast<uint32_t>(schema.key_columns().size()));
  for (int k : schema.key_columns()) PutU32(&op.key, static_cast<uint32_t>(k));
  return op;
}

WalOp WalOp::CreateView(std::string name, std::string ddl) {
  WalOp op;
  op.kind = kCreateView;
  op.table = std::move(name);
  op.key = std::move(ddl);
  return op;
}

Timestamp Wal::PeekBodyCommitTs(const std::string& body) {
  return BodyCommitTs(body.data(), body.size());
}

Wal::CommitBody::CommitBody(uint64_t txn_id, Timestamp commit_ts) {
  PutU64(&body_, txn_id);
  PutU64(&body_, commit_ts);
  PutU16(&body_, 0);  // op count, set by Take
}

void Wal::CommitBody::Add(WalOp::Kind kind, const std::string& table,
                          const std::string& key, const Row& row) {
  PutU8(&body_, kind);
  PutBytes(&body_, table);
  PutBytes(&body_, key);
  PutU16(&body_, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) PutValue(&body_, v);
  ++num_ops_;
}

std::string Wal::CommitBody::Take() {
  OLTAP_CHECK(num_ops_ <= kMaxOps) << num_ops_ << " ops in one commit body";
  body_[16] = static_cast<char>(num_ops_ & 0xff);
  body_[17] = static_cast<char>(num_ops_ >> 8);
  return std::move(body_);
}

void Wal::SealLocked() {
  sealed_ = true;
  static obs::Gauge* sealed_gauge =
      obs::MetricsRegistry::Default()->GetGauge("wal.sealed");
  sealed_gauge->Set(1);
}

void Wal::RefreshGaugesLocked() {
  static obs::Gauge* segments =
      obs::MetricsRegistry::Default()->GetGauge("wal.segments");
  static obs::Gauge* retained =
      obs::MetricsRegistry::Default()->GetGauge("wal.retained_bytes");
  segments->Set(static_cast<int64_t>(sealed_segments_.size() + 1));
  retained->Set(static_cast<int64_t>(sealed_bytes_ + buf_.size()));
}

void Wal::MaybeRotateLocked() {
  if (options_.segment_bytes == 0 || buf_.size() < options_.segment_bytes) {
    return;
  }
  Segment seg;
  seg.id = active_id_;
  seg.max_commit_ts = active_max_ts_;
  seg.data = std::move(buf_);
  if (file_ != nullptr) {
    // The sealed segment keeps its file; the active segment continues in
    // "<base>.<id>". A rotation that cannot open the next file seals the
    // log — appends could not be made durable.
    seg.file_path = active_id_ == 0
                        ? path_
                        : path_ + "." + std::to_string(active_id_);
    std::fclose(file_);
    std::string next = path_ + "." + std::to_string(active_id_ + 1);
    file_ = std::fopen(next.c_str(), "ab");
    if (file_ == nullptr) SealLocked();
    file_end_ = file_ == nullptr ? 0 : FileEnd(file_);
  }
  sealed_bytes_ += seg.data.size();
  sealed_segments_.push_back(std::move(seg));
  // The moved-from buffer starts empty: size the new segment up front
  // rather than regrowing it by doubling on the commit path.
  buf_.clear();
  buf_.reserve(options_.segment_bytes);
  ++active_id_;
  active_max_ts_ = 0;
  RefreshGaugesLocked();
}

Status Wal::AppendFrameLocked(const std::string& frame, size_t records,
                              Timestamp max_ts) {
  const size_t good_size = buf_.size();
  // Undoes a failed append: buf_ and the file shrink back to the last
  // complete frame, keeping the log appendable. If the file cannot be
  // restored it is torn at an unknown point, so the Wal seals instead.
  auto fail = [&](Status st) {
    buf_.resize(good_size);
    if (file_ != nullptr) {
      std::clearerr(file_);
      bool restored = false;
#if defined(__unix__) || defined(__APPLE__)
      restored = std::fflush(file_) == 0 &&
                 ::ftruncate(fileno(file_), file_end_) == 0;
#endif
      if (!restored) SealLocked();
    }
    return st;
  };

  buf_ += frame;
  if (file_ != nullptr) {
    size_t written = std::fwrite(frame.data(), 1, frame.size(), file_);
    if (written != frame.size()) {
      return fail(Status::Unavailable("short WAL write: " +
                                      std::to_string(written) + " of " +
                                      std::to_string(frame.size()) +
                                      " bytes"));
    }
    if (std::fflush(file_) != 0) {
      return fail(Status::Unavailable("WAL flush failed"));
    }
    if (options_.fsync_on_commit) {
      static obs::Histogram* fsync_ns =
          obs::MetricsRegistry::Default()->GetHistogram("wal.fsync_ns");
      obs::ScopedTimer fsync_timer(fsync_ns);
      // Device-stall fault: the fsync eventually succeeds but takes a
      // long time (commit-latency fault, not a durability fault).
      if (!OLTAP_FAILPOINT_STATUS("wal.fsync.stall").ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      Status synced = OLTAP_FAILPOINT_STATUS("wal.fsync.error");
      if (!synced.ok()) return fail(synced);
#if defined(__unix__) || defined(__APPLE__)
      if (::fsync(fileno(file_)) != 0) {
        return fail(Status::Unavailable("WAL fsync failed"));
      }
#endif
      static obs::Counter* fsyncs =
          obs::MetricsRegistry::Default()->GetCounter("wal.fsyncs");
      fsyncs->Add(1);
    }
    file_end_ += static_cast<long>(frame.size());
  }
  num_records_ += records;
  active_max_ts_ = std::max(active_max_ts_, max_ts);
  static obs::Counter* record_count =
      obs::MetricsRegistry::Default()->GetCounter("wal.records");
  static obs::Counter* bytes =
      obs::MetricsRegistry::Default()->GetCounter("wal.bytes");
  record_count->Add(records);
  bytes->Add(frame.size());
  MaybeRotateLocked();
  return Status::OK();
}

Status Wal::LogCommit(std::string body) {
  std::vector<std::string> bodies;
  bodies.push_back(std::move(body));
  return AppendBodies(bodies, /*single=*/true);
}

Status Wal::LogCommitBatch(const std::vector<std::string>& bodies) {
  if (bodies.empty()) return Status::OK();
  return AppendBodies(bodies, /*single=*/false);
}

Status Wal::AppendBodies(const std::vector<std::string>& bodies, bool single) {
  static obs::Histogram* append_ns =
      obs::MetricsRegistry::Default()->GetHistogram("wal.append_ns");
  obs::ScopedTimer append_timer(append_ns);

  constexpr size_t kHeader = 12;  // u32 payload length + u64 checksum
  size_t total = kHeader;
  for (const std::string& body : bodies) total += body.size() + 4;
  std::string frame(kHeader, '\0');
  frame.reserve(total);
  for (const std::string& body : bodies) PutBytes(&frame, body);
  std::string header;
  PutU32(&header, static_cast<uint32_t>(frame.size() - kHeader));
  PutU64(&header, HashBytes(frame.data() + kHeader, frame.size() - kHeader));
  frame.replace(0, kHeader, header);

  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) {
    return Status::Unavailable("WAL sealed after a failed append");
  }

  // Torn-append injection: only a prefix of the frame reaches the log, as
  // if the process died mid-write. The partial bytes stay — they are the
  // crash artifact recovery must stop at — so the log seals itself:
  // Replay stops at the first corrupt frame, and a commit appended after
  // the tear would be acknowledged yet silently lost. Because one checksum
  // covers the whole frame, no commit of a torn batch survives, matching
  // the all-failed statuses the group committer hands out.
  Status torn = single ? OLTAP_FAILPOINT_STATUS("wal.append.torn")
                       : OLTAP_FAILPOINT_STATUS("wal.batch.torn");
  if (!torn.ok()) {
    std::string prefix = frame.substr(0, frame.size() / 2);
    buf_ += prefix;
    if (file_ != nullptr) {
      std::fwrite(prefix.data(), 1, prefix.size(), file_);
      std::fflush(file_);
    }
    SealLocked();
    return torn;
  }
  // Clean append failure of a single commit: nothing reaches the log.
  if (single) OLTAP_FAILPOINT("wal.append.error");

  Timestamp max_ts = 0;
  for (const std::string& body : bodies) {
    max_ts = std::max(max_ts, PeekBodyCommitTs(body));
  }
  Status st = AppendFrameLocked(frame, bodies.size(), max_ts);
  if (st.ok() && !single) {
    static obs::Counter* batches =
        obs::MetricsRegistry::Default()->GetCounter("wal.batches");
    static obs::Histogram* batch_size =
        obs::MetricsRegistry::Default()->GetHistogram("wal.batch_size");
    batches->Add(1);
    batch_size->Record(bodies.size());
  }
  return st;
}

bool Wal::sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

void Wal::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  SealLocked();
}

std::string Wal::buffer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(sealed_bytes_ + buf_.size());
  for (const Segment& seg : sealed_segments_) out += seg.data;
  out += buf_;
  return out;
}

size_t Wal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_bytes_ + buf_.size();
}

size_t Wal::num_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_records_;
}

std::vector<Wal::SegmentInfo> Wal::Segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentInfo> out;
  out.reserve(sealed_segments_.size() + 1);
  for (const Segment& seg : sealed_segments_) {
    out.push_back({seg.id, seg.max_commit_ts, seg.data.size()});
  }
  out.push_back({active_id_, active_max_ts_, buf_.size()});
  return out;
}

size_t Wal::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_segments_.size() + 1;
}

uint64_t Wal::truncated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_bytes_;
}

void Wal::set_segment_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.segment_bytes = bytes;
  MaybeRotateLocked();  // an over-size active segment rotates right away
}

Status Wal::TruncateBelow(Timestamp horizon, uint64_t* dropped_bytes) {
  if (dropped_bytes != nullptr) *dropped_bytes = 0;
  std::lock_guard<std::mutex> lock(mu_);
  // Crash-before-truncation: the call fails with nothing dropped; the
  // segments stay until the next checkpoint round retries.
  OLTAP_FAILPOINT("wal.truncate.error");
  size_t drop = 0;
  uint64_t bytes = 0;
  while (drop < sealed_segments_.size() &&
         sealed_segments_[drop].max_commit_ts <= horizon) {
    bytes += sealed_segments_[drop].data.size();
    if (!sealed_segments_[drop].file_path.empty()) {
      std::remove(sealed_segments_[drop].file_path.c_str());
    }
    ++drop;
  }
  if (drop == 0) return Status::OK();
  sealed_segments_.erase(sealed_segments_.begin(),
                         sealed_segments_.begin() + static_cast<long>(drop));
  sealed_bytes_ -= bytes;
  truncated_bytes_ += bytes;
  if (dropped_bytes != nullptr) *dropped_bytes = bytes;
  static obs::Counter* truncated =
      obs::MetricsRegistry::Default()->GetCounter("wal.truncated_bytes");
  truncated->Add(bytes);
  RefreshGaugesLocked();
  return Status::OK();
}

Result<Wal::ReplayStats> Wal::Replay(std::string_view data, Catalog* catalog,
                                     const ReplayOptions& options,
                                     ThreadPool* pool) {
  // Decode pass: check the DDL, and partition every DML op by table name,
  // preserving log order within each table. Ops on different tables
  // commute, so applying each table's ops in log order reproduces the
  // whole log's effect.
  struct TablePartition {
    Table* table = nullptr;
    bool existed = false;  // in the catalog before this replay: idempotent
    std::vector<std::pair<Timestamp, WalOp>> ops;
    Status status;
    size_t applied = 0;
  };
  std::map<std::string, TablePartition> partitions;
  std::map<std::string, std::unique_ptr<Table>> created;

  ReplayStats stats;
  DecodedTxn txn;
  Status walk = ForEachBody(
      data, &stats.truncated_tail, [&](const char* p, size_t len) -> Status {
        // skip_through_ts == 0 skips nothing: live commits start at ts 1,
        // and ts-0 records (a checkpoint image taken before the first
        // commit — bulk-loaded state) must still apply. Skipped records
        // are not parsed.
        if (options.skip_through_ts > 0 &&
            BodyCommitTs(p, len) <= options.skip_through_ts) {
          return Status::OK();
        }
        OLTAP_RETURN_NOT_OK(ParseBody(p, len, &txn));
        CollapseDuplicateKeyOps(&txn.ops);
        for (WalOp& op : txn.ops) {
          if (op.kind == WalOp::kCreateView) {
            stats.view_ddls.push_back(std::move(op.key));
            continue;
          }
          if (op.kind == WalOp::kCreateTable) {
            // A table that exists already, or that the log created
            // earlier, must match the record exactly: same name, format,
            // columns and key, hence the same encoding.
            auto it = created.find(op.table);
            const Table* existing = it != created.end()
                                        ? it->second.get()
                                        : catalog->GetTable(op.table);
            if (existing == nullptr) {
              std::unique_ptr<Table> table = DecodeTable(op.key);
              if (table == nullptr || table->name() != op.table) {
                return Status::Corruption(
                    "malformed CREATE TABLE record for " + op.table);
              }
              created.emplace(op.table, std::move(table));
            } else if (WalOp::CreateTable(*existing).key != op.key) {
              return Status::Corruption("WAL schema mismatch for table " +
                                        op.table);
            }
            continue;
          }
          partitions[op.table].ops.emplace_back(txn.commit_ts, std::move(op));
        }
        stats.max_commit_ts = std::max(stats.max_commit_ts, txn.commit_ts);
        ++stats.txns_applied;
        return Status::OK();
      });
  if (!walk.ok()) return walk;
  for (auto& [name, part] : partitions) {
    part.table = catalog->GetTable(name);
    part.existed = part.table != nullptr;
    if (!part.existed && created.count(name) == 0) {
      return Status::NotFound("WAL references unknown table: " + name);
    }
  }

  // The log decoded whole: create its tables, then apply.
  for (auto& [name, table] : created) {
    auto it = partitions.find(name);
    if (it != partitions.end()) it->second.table = table.get();
    OLTAP_RETURN_NOT_OK(catalog->AddTable(std::move(table)));
  }

  // Apply pass: workers claim whole tables and apply each in log order.
  // With a null pool the caller is the only worker.
  std::vector<TablePartition*> work;
  work.reserve(partitions.size());
  for (auto& [name, part] : partitions) work.push_back(&part);
  std::atomic<size_t> cursor{0};
  const size_t dop =
      pool == nullptr ? 1 : std::min(work.size(), pool->num_threads() + 1);
  RunOnWorkers(pool, dop, [&](size_t) {
    for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < work.size(); i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      TablePartition* part = work[i];
      for (const auto& [commit_ts, op] : part->ops) {
        bool applied = false;
        part->status =
            ApplyOp(part->table, op, commit_ts, part->existed, &applied);
        if (!part->status.ok()) break;
        if (applied) ++part->applied;
      }
    }
  });
  // Errors surface in table-name order, whichever worker hit them first.
  for (const TablePartition* part : work) {
    if (!part->status.ok()) return part->status;
    stats.ops_applied += part->applied;
  }
  return stats;
}

}  // namespace oltap
