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

namespace oltap {
namespace {

// High bit of a frame's length word marks a group-commit batch frame; the
// low 31 bits are the payload length (bodies are far below 2 GiB).
constexpr uint32_t kBatchFlag = 0x80000000u;

// Batch frames salt their checksum so the frame *kind* is checksum-
// protected too: a bit flip on the flag would otherwise reinterpret a
// record frame as a batch (or vice versa) with a still-valid payload
// checksum, turning corruption into a parse error instead of a clean
// torn-tail stop (the WAL fuzz tests pin this down).
constexpr uint64_t kBatchChecksumSalt = 0x9e3779b97f4a7c15ull;

// --- little-endian primitive (de)serialization into a std::string ---

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
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

// Reader with bounds checking; any failure flips ok to false.
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
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint8_t>(p[0]) |
                 (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8);
    p += 2;
    return v;
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

std::string FrameRecord(const std::string& body) {
  std::string record;
  PutU32(&record, static_cast<uint32_t>(body.size()));
  PutU64(&record, HashBytes(body.data(), body.size()));
  record += body;
  return record;
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
    op.kind = static_cast<WalOp::Kind>(r.U8());
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
// Keyless ops carry no identity and are kept untouched, in order.
void CollapseDuplicateKeyOps(std::vector<WalOp>* ops) {
  // Fast path: duplicate keyed writes inside one commit are rare.
  std::set<std::pair<std::string_view, std::string_view>> seen;
  bool dup = false;
  for (const WalOp& op : *ops) {
    if (op.key.empty()) continue;
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
    if (op.key.empty()) {
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
// body in every frame with a valid checksum (a batch frame yields one call
// per sub-record). Stops at the first torn/corrupt frame, setting
// *truncated. body_fn may return an error to abort the walk.
Status ForEachBody(const std::string& data, bool* truncated,
                   const std::function<Status(const char*, size_t)>& body_fn) {
  *truncated = false;
  Reader outer{data.data(), data.data() + data.size()};
  while (outer.p < outer.end) {
    uint32_t raw = outer.U32();
    uint64_t checksum = outer.U64();
    const bool is_batch = (raw & kBatchFlag) != 0;
    const uint32_t len = raw & ~kBatchFlag;
    if (is_batch) checksum ^= kBatchChecksumSalt;
    if (!outer.ok || !outer.Need(len) ||
        HashBytes(outer.p, len) != checksum) {
      *truncated = true;
      return Status::OK();
    }
    const char* payload = outer.p;
    outer.p += len;
    if (!is_batch) {
      OLTAP_RETURN_NOT_OK(body_fn(payload, len));
      continue;
    }
    Reader br{payload, payload + len};
    while (br.p < br.end) {
      uint32_t blen = br.U32();
      if (!br.ok || !br.Need(blen)) {
        // The batch checksum passed but the sub-record structure does
        // not parse: real corruption, not a tear.
        return Status::Corruption("malformed WAL batch frame");
      }
      OLTAP_RETURN_NOT_OK(body_fn(br.p, blen));
      br.p += blen;
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
  wal->path_ = path;
  return wal;
}

Timestamp Wal::PeekBodyCommitTs(const std::string& body) {
  // Body layout (SerializeCommitBody): u64 txn_id, u64 commit_ts, ...
  Reader r{body.data(), body.data() + body.size()};
  r.U64();  // txn_id
  Timestamp ts = r.U64();
  return r.ok ? ts : 0;
}

std::string Wal::SerializeCommitBody(uint64_t txn_id, Timestamp commit_ts,
                                     const std::vector<WalOp>& ops) {
  std::string body;
  PutU64(&body, txn_id);
  PutU64(&body, commit_ts);
  PutU16(&body, static_cast<uint16_t>(ops.size()));
  for (const WalOp& op : ops) {
    PutU8(&body, op.kind);
    PutBytes(&body, op.table);
    PutBytes(&body, op.key);
    PutU16(&body, static_cast<uint16_t>(op.row.size()));
    for (const Value& v : op.row) PutValue(&body, v);
  }
  return body;
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
  }
  sealed_bytes_ += seg.data.size();
  sealed_segments_.push_back(std::move(seg));
  buf_.clear();
  ++active_id_;
  active_max_ts_ = 0;
  RefreshGaugesLocked();
}

Status Wal::AppendFrameLocked(const std::string& frame, size_t records,
                              Timestamp max_ts) {
  const size_t good_size = buf_.size();
  long file_start = -1;
  if (file_ != nullptr) {
    // Where this frame begins ("ab" mode appends at end-of-file), so a
    // failed append can be trimmed back off the file.
    std::fseek(file_, 0, SEEK_END);
    file_start = std::ftell(file_);
  }
  // Undoes a failed append: buf_ and the file shrink back to the last
  // complete frame, keeping the log appendable. If the file cannot be
  // restored it is torn at an unknown point, so the Wal seals instead.
  auto fail = [&](Status st) {
    buf_.resize(good_size);
    if (file_ != nullptr) {
      std::clearerr(file_);
      bool restored = false;
#if defined(__unix__) || defined(__APPLE__)
      restored = file_start >= 0 && std::fflush(file_) == 0 &&
                 ::ftruncate(fileno(file_), file_start) == 0;
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

Status Wal::LogCommit(uint64_t txn_id, Timestamp commit_ts,
                      const std::vector<WalOp>& ops) {
  static obs::Histogram* append_ns =
      obs::MetricsRegistry::Default()->GetHistogram("wal.append_ns");
  obs::ScopedTimer append_timer(append_ns);
  std::string record = FrameRecord(SerializeCommitBody(txn_id, commit_ts, ops));
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) {
    return Status::Unavailable("WAL sealed after a failed append");
  }

  // Torn-append injection: only a prefix of the record reaches the log,
  // as if the process died mid-write. The partial bytes stay — they are
  // the crash artifact recovery must stop at — so the log seals itself:
  // Replay stops at the first corrupt record, and a commit appended
  // after the tear would be acknowledged yet silently lost.
  Status torn = OLTAP_FAILPOINT_STATUS("wal.append.torn");
  if (!torn.ok()) {
    std::string prefix = record.substr(0, record.size() / 2);
    buf_ += prefix;
    if (file_ != nullptr) {
      std::fwrite(prefix.data(), 1, prefix.size(), file_);
      std::fflush(file_);
    }
    SealLocked();
    return torn;
  }
  // Clean append failure: nothing reaches the log.
  OLTAP_FAILPOINT("wal.append.error");

  return AppendFrameLocked(record, 1, commit_ts);
}

Status Wal::LogCommitBatch(const std::vector<std::string>& bodies) {
  if (bodies.empty()) return Status::OK();
  static obs::Histogram* append_ns =
      obs::MetricsRegistry::Default()->GetHistogram("wal.append_ns");
  obs::ScopedTimer append_timer(append_ns);

  std::string payload;
  size_t total = 0;
  for (const std::string& body : bodies) total += body.size() + 4;
  payload.reserve(total);
  for (const std::string& body : bodies) PutBytes(&payload, body);
  std::string frame;
  frame.reserve(payload.size() + 12);
  PutU32(&frame, static_cast<uint32_t>(payload.size()) | kBatchFlag);
  PutU64(&frame,
         HashBytes(payload.data(), payload.size()) ^ kBatchChecksumSalt);
  frame += payload;

  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) {
    return Status::Unavailable("WAL sealed after a failed append");
  }

  // Batch-boundary tear: the process died with only a prefix of the batch
  // frame on disk. Because ONE checksum covers the whole batch, replay
  // rejects the entire frame — no commit in the batch survives, matching
  // the all-failed futures the group committer hands out. The partial
  // bytes stay and the log seals, exactly like a torn single append.
  Status torn = OLTAP_FAILPOINT_STATUS("wal.batch.torn");
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

  Timestamp max_ts = 0;
  for (const std::string& body : bodies) {
    max_ts = std::max(max_ts, PeekBodyCommitTs(body));
  }
  Status st = AppendFrameLocked(frame, bodies.size(), max_ts);
  if (st.ok()) {
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

Result<Wal::ReplayStats> Wal::Replay(const std::string& data, Catalog* catalog,
                                     const ReplayOptions& options,
                                     ThreadPool* pool) {
  // Decode pass: partition every op by table, preserving log order within
  // each table. Ops on different tables commute, so applying each table's
  // ops in log order reproduces the whole log's effect.
  struct TablePartition {
    Table* table = nullptr;
    std::vector<std::pair<Timestamp, WalOp>> ops;
    Status status;
    size_t applied = 0;
  };
  std::map<std::string, TablePartition> partitions;

  const std::set<std::string> skipped(options.skip_tables.begin(),
                                      options.skip_tables.end());
  ReplayStats stats;
  DecodedTxn txn;
  Status walk = ForEachBody(
      data, &stats.truncated_tail, [&](const char* p, size_t len) -> Status {
        OLTAP_RETURN_NOT_OK(ParseBody(p, len, &txn));
        // skip_through_ts == 0 skips nothing: live commits start at ts 1,
        // and ts-0 records (a checkpoint image's data section when the
        // snapshot predates the first commit — bulk-loaded state) must
        // still apply.
        if (options.skip_through_ts > 0 &&
            txn.commit_ts <= options.skip_through_ts) {
          return Status::OK();
        }
        CollapseDuplicateKeyOps(&txn.ops);
        for (WalOp& op : txn.ops) {
          if (skipped.count(op.table) != 0) continue;
          TablePartition& part = partitions[op.table];
          if (part.table == nullptr) {
            part.table = catalog->GetTable(op.table);
            if (part.table == nullptr) {
              return Status::NotFound("WAL references unknown table: " +
                                      op.table);
            }
          }
          part.ops.emplace_back(txn.commit_ts, std::move(op));
        }
        stats.max_commit_ts = std::max(stats.max_commit_ts, txn.commit_ts);
        ++stats.txns_applied;
        return Status::OK();
      });
  if (!walk.ok()) return walk;

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
            ApplyOp(part->table, op, commit_ts, options.idempotent, &applied);
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
