// HTAP ledger benchmark: three fixed-rate CH-benCHmark workloads driven
// through the public oltap API, end-to-end metrics from an untraced run,
// per-layer metrics from a traced run (spans recorded here, around calls
// into each module's public functions), and correctness checks that fail
// the run on any mismatch.
//
//   htap_ledger --workload <oltp_durable|htap_ch|htap_views> --seed <n>
//               --seconds <s> --trace <0|1> --workdir <dir>
//               [--span-file <path>] [--tiny]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// htapbench/README.md documents the workloads, the metrics and the
// layer -> end-to-end predictions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sched/merge_daemon.h"
#include "sched/workload_manager.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/freshness.h"
#include "txn/checkpoint_daemon.h"
#include "txn/log_writer.h"
#include "txn/wal.h"
#include "view/view.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace oltap {
namespace ledger {
namespace {

// ---------------------------------------------------------------------------
// Fixed parameters. Changing any of them changes the benchmark, not the
// program under test.

constexpr int kWarehouses = 4;
// Initial orders per district (60k loaded order lines at 4 warehouses):
// large enough that the orders a run adds (about 4.5k per 20 s at
// 500 txn/s) do not dominate the fact tables, so per-window figures drift
// little with table growth.
constexpr int kInitialOrders = 150;
constexpr double kWarmupS = 1.0;
constexpr int kSetupReps = 9;  // setup_s is the median of these
// Retry policy for serialization aborts: an aborted op is retried with the
// same arguments after sleeping min(kBackoffBaseUs * 2^(k-1), kBackoffCapUs)
// before attempt k, until it commits or kRetryBudgetUs have passed since
// its first attempt; then it counts as failed, at infinite latency. The
// budget is time-based because a conflicting writer starved of CPU by a
// parallel scan can hold its write intent for tens of milliseconds, which
// a fixed attempt count with short backoffs does not outlast.
constexpr int64_t kBackoffBaseUs = 50;
constexpr int64_t kBackoffCapUs = 1000;
constexpr int64_t kRetryBudgetUs = 1'000'000;
// Stand-in for the infinite latency of a failed op in percentiles.
constexpr double kFailedLatencyUs = 1e12;
// Every kTraceSampleEvery-th analytic request of a traced run also times
// sql::Parse, ViewManager::TryRoute and EXPLAIN on its statement.
constexpr uint64_t kTraceSampleEvery = 4;
// Timed rounds of the end-of-run probe (each: every CH query once at DOP 1
// and kRoutedProbeReads / kProbeRounds routed reads).
constexpr int kProbeRounds = 20;
// Tail percentiles are medians over this many windows of a run.
constexpr size_t kWindows = 10;
// Checkpoint cadence of oltp_durable: every 16 MiB of WAL (about 5000
// txns), with no time trigger, so rounds and the recovery tail fall at the
// same points of the op stream in every run.
constexpr int64_t kCheckpointIntervalUs = 0;
constexpr uint64_t kCheckpointWalBytes = 16u << 20;
// Recoveries of the final image; recovery.time_s is their median.
constexpr int kRecoveryReps = 3;
// Routed reads in the end-of-run routing probe.
constexpr int kRoutedProbeReads = 20000;

constexpr const char* kDeferredView = "ol_w_deferred";
const char* const kViewDdl[] = {
    "CREATE MATERIALIZED VIEW ol_wd_sync SYNC AS "
    "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id, ol_d_id",
    "CREATE MATERIALIZED VIEW ol_w_deferred DEFERRED AS "
    "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id",
};
// The routed reads: one per view, alternating.
const char* const kRoutedSql[] = {
    "SELECT ol_w_id, ol_d_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id, ol_d_id",
    "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id",
};

// Operator kinds reported by exec.self_ms.<kind> (EXPLAIN ANALYZE names);
// any other kind is summed into exec.self_ms.other.
const char* const kOperatorKinds[] = {
    "Scan",          "ParallelScan",          "Filter",
    "ParallelFilter", "HashJoin",             "ParallelHashJoin",
    "HashAggregate", "ParallelHashAggregate", "Project",
    "Sort",          "TopN",                  "Limit",
};
// Span-name prefixes whose self time trace.self_ms.<layer> reports.
const char* const kTraceLayers[] = {"workload", "sched", "txn",
                                    "sql",      "view",  "exec"};

enum class Client { kNone, kCh, kRouted };

struct WorkloadSpec {
  const char* name;
  double rate;            // offered TPC-C txn/s (open loop)
  bool durable;           // file WAL + group commit + checkpoint daemon
  Client client;          // the one closed-loop analytic client
  int64_t late_limit_us;  // validity: generator lateness p99 limit
};

const WorkloadSpec kWorkloads[] = {
    {"oltp_durable", 500, true, Client::kNone, 50000},
    {"htap_ch", 500, false, Client::kCh, 50000},
    {"htap_views", 500, false, Client::kRouted, 50000},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".bench_build/work";
  std::string span_file;
};

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// Degree of parallelism of analytic grants, and the exec pool's size: two
// cores stay with the OLTP stream and the generator, so an always-busy
// analytic client does not compete with them for every core.
size_t AnalyticDop() { return std::max<size_t>(1, Nproc() - 2); }

CHConfig MakeConfig(const Options& o) {
  CHConfig c;
  c.warehouses = o.tiny ? 2 : kWarehouses;
  c.initial_orders_per_district = kInitialOrders;
  if (o.tiny) {
    c.customers_per_district = 20;
    c.items = 200;
    c.initial_orders_per_district = 20;
  }
  c.seed = o.seed;
  return c;
}

double Rate(const Options& o) { return o.tiny ? 100 : o.spec->rate; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Since(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

// Nearest-rank percentile of an ascending vector; 0 when empty.
double Pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Pct(v, 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Failures recorded by the correctness checks; any entry fails the run.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.empty();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

// Exact encoding of a row (doubles by bit pattern), for byte-level
// result comparison.
std::string EncodeRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out.push_back(static_cast<char>(v.type()));
    if (v.is_null()) {
      out.push_back('N');
      continue;
    }
    switch (v.type()) {
      case ValueType::kInt64: {
        int64_t x = v.AsInt64();
        out.append(reinterpret_cast<const char*>(&x), sizeof x);
        break;
      }
      case ValueType::kDouble: {
        double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        out.append(reinterpret_cast<const char*>(&bits), sizeof bits);
        break;
      }
      case ValueType::kString:
        out.append(std::to_string(v.AsString().size()));
        out.push_back(':');
        out.append(v.AsString());
        break;
    }
  }
  return out;
}

std::vector<std::string> EncodeRows(const std::vector<Row>& rows,
                                    bool sorted) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(EncodeRow(r));
  if (sorted) std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory during the run, written as JSON lines at run end.

// kCheck: untimed requests of the end-of-run correctness checks.
enum class Phase : uint8_t { kWarmup, kMeasured, kCheck, kProbe };
const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kWarmup:
      return "warmup";
    case Phase::kMeasured:
      return "measured";
    case Phase::kCheck:
      return "check";
    case Phase::kProbe:
      return "probe";
  }
  return "?";
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = request root
  uint64_t request = 0;
  Phase phase = Phase::kMeasured;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records a span; returns its id (0 when tracing is off).
  uint64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
               uint64_t parent, uint64_t request, Phase phase,
               uint64_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = NewId();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        Span{std::move(name), start_ns, end_ns, id, parent, request, phase});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"phase\":\"" << PhaseName(s.phase) << "\"}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The system under test for one pass: database, optional file WAL, loaded
// CH-benCHmark tables, materialized views.

struct World {
  std::unique_ptr<Wal> wal;  // declared first: outlives the database
  std::unique_ptr<Database> db;
  std::unique_ptr<CHBenchmark> bench;
};

bool SetUp(const Options& o, const std::string& dir, World* w,
           std::string* err) {
  std::filesystem::create_directories(dir);
  if (o.spec->durable) {
    // Flush policy: one write + fflush per group-commit batch, no fsync.
    // Commits survive a process crash (what CaptureCrashImage models), not
    // power loss. With an fsync per batch the OLTP latency followed the
    // shared virtual disk, whose fsync time drifted between runs far more
    // than any end-to-end bound allows (htapbench/README.md).
    Wal::Options wopts;
    wopts.fsync_on_commit = false;
    wopts.segment_bytes = 1 << 20;
    auto wal = Wal::OpenFile(dir + "/wal", wopts);
    if (!wal.ok()) {
      *err = wal.status().ToString();
      return false;
    }
    w->wal = std::move(*wal);
  }
  w->db = std::make_unique<Database>(w->wal.get());
  w->bench = std::make_unique<CHBenchmark>(w->db.get(), MakeConfig(o));
  Status st = w->bench->CreateTables();
  if (st.ok()) st = w->bench->Load();
  if (!st.ok()) {
    *err = st.ToString();
    return false;
  }
  if (o.spec->client == Client::kRouted) {
    for (const char* ddl : kViewDdl) {
      auto r = w->db->Execute(ddl);
      if (!r.ok()) {
        *err = r.status().ToString();
        return false;
      }
    }
  }
  if (o.spec->durable) {
    // The bulk load bypasses the log: an initial checkpoint makes it
    // durable before the first acknowledged commit.
    auto ck = w->db->EnsureCheckpointer()->CheckpointNow();
    if (!ck.ok()) {
      *err = ck.status().ToString();
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Registry snapshots at phase boundaries (the registry is process-global).

struct RegistryView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, double>> hist_count_sum;

  static RegistryView Take() {
    RegistryView v;
    obs::MetricsSnapshot s = obs::MetricsRegistry::Default()->Snapshot();
    for (auto& [name, value] : s.counters) v.counters[name] = value;
    for (auto& [name, h] : s.histograms) {
      v.hist_count_sum[name] = {h.count, h.mean * static_cast<double>(h.count)};
    }
    return v;
  }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : static_cast<double>(it->second);
  }
  std::pair<double, double> Hist(const std::string& name) const {
    auto it = hist_count_sum.find(name);
    if (it == hist_count_sum.end()) return {0, 0};
    return {static_cast<double>(it->second.first), it->second.second};
  }
};

// Counter delta and histogram-mean delta between two snapshots.
struct RegistryDelta {
  RegistryView from, to;
  double Counter(const std::string& name) const {
    return to.Counter(name) - from.Counter(name);
  }
  double Mean(const std::string& name) const {
    auto [c1, s1] = to.Hist(name);
    auto [c0, s0] = from.Hist(name);
    return Ratio(s1 - s0, c1 - c0);
  }
};

// ---------------------------------------------------------------------------
// One TPC-C op of the open-loop stream.

struct OpRecord {
  TxnKind kind = TxnKind::kNewOrder;
  uint64_t seed = 0;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  int attempts = 0;
  bool ok = false;
  bool measured = false;
  NewOrderAck ack;
};

Status RunKind(CHBenchmark* bench, TxnKind kind, Rng* rng, NewOrderAck* ack) {
  switch (kind) {
    case TxnKind::kNewOrder:
      return bench->NewOrder(rng, 0, ack);
    case TxnKind::kPayment:
      return bench->Payment(rng, 0);
    case TxnKind::kOrderStatus:
      return bench->OrderStatus(rng, 0);
    case TxnKind::kDelivery:
      return bench->Delivery(rng, 0);
    case TxnKind::kStockLevel:
      return bench->StockLevel(rng, 0);
  }
  return Status::Internal("unknown kind");
}

// One analytic request's outcome.
struct ReadSample {
  size_t query = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  Phase phase = Phase::kMeasured;
  int64_t staleness_us = -1;  // DEFERRED view staleness after the read
};

// The closed-loop analytic client's request path, shared by the live phase
// and the end-of-run probes: submit through the workload manager, run
// under the admission grant, record latency and spans.
class AnalyticClient {
 public:
  AnalyticClient(Database* db, SpanLog* spans) : db_(db), spans_(spans) {}

  static const std::string& Sql(Client kind, size_t q) {
    static const std::vector<std::string> routed(std::begin(kRoutedSql),
                                                 std::end(kRoutedSql));
    return kind == Client::kCh ? CHBenchmark::Queries()[q].sql : routed[q];
  }
  // Short query label: "A1".."A13" for CH, "R1"/"R2" for routed reads.
  static std::string Label(Client kind, size_t q) {
    if (kind == Client::kRouted) return "R" + std::to_string(q + 1);
    const std::string& n = CHBenchmark::Queries()[q].name;
    return n.substr(0, n.find('-'));
  }
  static size_t NumQueries(Client kind) {
    return kind == Client::kCh ? CHBenchmark::Queries().size()
                               : std::size(kRoutedSql);
  }

  // Runs one request through `wm`, or on the calling thread when `wm` is
  // null (the timed rounds of the quiesced probe; see Pass::Probe).
  ReadSample Run(WorkloadManager* wm, Client kind, size_t q, Phase phase,
                 std::vector<Row>* rows_out) {
    const std::string& sql = Sql(kind, q);
    const uint64_t request = next_request_++;
    const bool sampled =
        spans_->enabled() && request % kTraceSampleEvery == 0;
    const uint64_t root = spans_->enabled() ? spans_->NewId() : 0;
    ReadSample sample;
    sample.query = q;
    sample.phase = phase;
    sample.submit_ns = NowNs();
    std::string label = Label(kind, q);
    const uint64_t req_id = (1ull << 40) | request;
    auto work = [&](const CancellationToken&,
                    const QueryGrant& grant) -> Status {
      if (wm != nullptr) {
        spans_->Add("sched.olap_wait", sample.submit_ns, NowNs(), root,
                    req_id, phase);
      }
      if (sampled) {
        const char* cls = kind == Client::kCh ? "ch" : "routed";
        int64_t p0 = NowNs();
        auto parsed = sql::Parse(sql);
        int64_t p1 = NowNs();
        spans_->Add(std::string("sql.parse.") + cls, p0, p1, root, req_id,
                    phase);
        if (kind == Client::kRouted && parsed.ok() &&
            parsed->select != nullptr) {
          (void)db_->view_manager()->TryRoute(*parsed->select,
                                              db_->max_staleness_us());
          spans_->Add("view.route", p1, NowNs(), root, req_id, phase);
        }
        int64_t e0 = NowNs();
        auto plan = db_->Execute("EXPLAIN " + sql, grant);
        if (plan.ok()) statements_.fetch_add(1, std::memory_order_relaxed);
        spans_->Add(std::string("sql.explain.") + cls, e0, NowNs(), root,
                    req_id, phase);
      }
      int64_t x0 = NowNs();
      auto res = db_->Execute(sql, grant);
      spans_->Add("exec." + label, x0, NowNs(), root, req_id, phase);
      if (!res.ok()) return res.status();
      statements_.fetch_add(1, std::memory_order_relaxed);
      if (rows_out != nullptr) *rows_out = std::move(res->rows);
      return Status::OK();
    };
    Status st;
    if (wm != nullptr) {
      st = wm->SubmitBudgeted(QueryClass::kOlap, WorkloadManager::QuerySpec{},
                              work)
               .done.get();
    } else {
      st = work(CancellationToken(), QueryGrant{});
    }
    sample.done_ns = NowNs();
    sample.ok = st.ok();
    if (!st.ok()) {
      std::fprintf(stderr, "analytic request %s failed: %s\n", label.c_str(),
                   st.ToString().c_str());
    }
    spans_->Add("olap." + label, sample.submit_ns, sample.done_ns, 0, req_id,
                phase, root);
    if (kind == Client::kRouted) {
      sample.staleness_us = db_->view_manager()->StalenessMicros(
          kDeferredView, SystemClock::Get()->NowMicros());
    }
    return sample;
  }

  // SQL statements this client executed successfully (each commits one
  // read-only transaction).
  uint64_t statements() const { return statements_.load(); }

 private:
  Database* db_;
  SpanLog* spans_;
  uint64_t next_request_ = 0;
  std::atomic<uint64_t> statements_{0};
};

WorkloadManager::Options WmOptions(size_t workers) {
  WorkloadManager::Options o;
  o.num_workers = workers;
  o.policy = SchedulingPolicy::kOltpPriority;
  o.max_parallel_dop = AnalyticDop();
  o.degraded_dop = 1;
  return o;
}

// ---------------------------------------------------------------------------
// Result of one pass (setup, live phase, checks, probes).

struct PassResult {
  std::map<std::string, double> e2e;       // end-to-end metrics
  std::map<std::string, double> layers;    // per-layer metrics (traced)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Set when the offered load was not delivered as specified (generator
  // lateness or a growing backlog); reported, not fatal.
  bool flagged = false;
  std::string flag_reason;
};

struct TableDump {
  std::map<std::string, std::vector<std::string>> rows;  // sorted encodings
};

TableDump DumpTables(Database* db) {
  TableDump d;
  Timestamp ts = db->txn_manager()->oracle()->CurrentReadTs();
  for (Table* t : db->catalog()->AllTables()) {
    std::vector<std::string>& out = d.rows[t->name()];
    t->ScanVisible(ts, [&](const Row& r) { out.push_back(EncodeRow(r)); });
    std::sort(out.begin(), out.end());
  }
  return d;
}

Result<std::vector<Row>> Query(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  if (!r.ok()) return r.status();
  return std::move(r->rows);
}

// TPC-C consistency conditions 1 and 2 on a quiesced database.
void CheckConsistency(Database* db, const char* which, Checks* checks) {
  const std::string tag = std::string(which) + ": ";
  auto wh = Query(db, "SELECT w_id, w_ytd FROM warehouse");
  auto dist = Query(db,
                    "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district");
  auto omax = Query(db,
                    "SELECT o_w_id, o_d_id, MAX(o_id) AS m FROM orders "
                    "GROUP BY o_w_id, o_d_id");
  auto nomax = Query(db,
                     "SELECT no_w_id, no_d_id, MAX(no_o_id) AS m FROM "
                     "neworder GROUP BY no_w_id, no_d_id");
  checks->Expect(wh.ok() && dist.ok() && omax.ok() && nomax.ok(),
                 tag + "consistency queries failed");
  if (!(wh.ok() && dist.ok() && omax.ok() && nomax.ok())) return;
  std::map<int64_t, double> d_ytd;
  std::map<std::pair<int64_t, int64_t>, int64_t> next_o, max_o, max_no;
  for (const Row& r : *dist) {
    d_ytd[r[0].AsInt64()] += r[2].AsDouble();
    next_o[{r[0].AsInt64(), r[1].AsInt64()}] = r[3].AsInt64();
  }
  for (const Row& r : *omax) max_o[{r[0].AsInt64(), r[1].AsInt64()}] =
      r[2].AsInt64();
  for (const Row& r : *nomax) max_no[{r[0].AsInt64(), r[1].AsInt64()}] =
      r[2].AsInt64();
  for (const Row& r : *wh) {
    double w_ytd = r[1].AsDouble();
    double sum = d_ytd[r[0].AsInt64()];
    checks->Expect(std::fabs(w_ytd - sum) <= 1e-9 * std::fabs(w_ytd) + 1e-6,
                   tag + "condition 1 (W_YTD = sum D_YTD) violated for w=" +
                       std::to_string(r[0].AsInt64()));
  }
  checks->Expect(!next_o.empty(), tag + "no districts");
  for (auto& [key, next] : next_o) {
    bool ok = max_o.count(key) && max_o[key] == next - 1 &&
              (!max_no.count(key) || max_no[key] == next - 1);
    checks->Expect(ok, tag + "condition 2 (D_NEXT_O_ID-1 = max(O_ID) = "
                             "max(NO_O_ID)) violated for w=" +
                           std::to_string(key.first) +
                           " d=" + std::to_string(key.second));
  }
}

// ---------------------------------------------------------------------------
// The pass.

class Pass {
 public:
  Pass(const Options& o, bool traced, Checks* checks)
      : o_(o), spec_(*o.spec), spans_(traced), checks_(checks) {}

  PassResult Run();
  const SpanLog& spans() const { return spans_; }

 private:
  void RunOp(size_t i);
  void Generate(int64_t start_ns, size_t total_ops, size_t warmup_ops);
  void Monitor();
  void LiveClient(WorkloadManager* wm);
  void PostRun(PassResult* result);
  void DopCheck();
  void RoutingCheck(AnalyticClient* client, Database* db,
                    WorkloadManager* wm);
  void Probe(AnalyticClient* routed_client, WorkloadManager* wm);
  void Recover(PassResult* result);
  void ComputeE2e(PassResult* result);
  void ComputeLayers(PassResult* result);

  const Options& o_;
  const WorkloadSpec& spec_;
  SpanLog spans_;
  Checks* checks_;

  World world_;
  std::vector<double> setup_s_;
  std::vector<OpRecord> ops_;
  size_t loaded_orders_ = 0;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> generating_{false};
  std::atomic<bool> measuring_{false};
  WorkloadManager* live_wm_ = nullptr;
  std::unique_ptr<AnalyticClient> client_;
  std::vector<ReadSample> live_reads_;
  std::vector<ReadSample> probe_reads_;    // CH queries (timed probe)
  std::vector<ReadSample> routed_probe_;   // routed reads (routing probe)
  std::vector<double> backlog_samples_;    // outstanding ops, measured
  std::vector<double> delta_row_samples_;  // unmerged delta rows, measured
  RegistryView reg_start_, reg_warm_, reg_end_;
  double measured_s_ = 0;
  double recovery_s_ = 0;
  double peak_rss_mb_ = 0;
  size_t tail_txns_ = 0;
  std::map<std::string, double> op_self_ms_;  // EXPLAIN ANALYZE self time
  // DOP-1 rows of each CH query on the quiesced state (encoded).
  std::vector<std::optional<std::vector<std::string>>> dop1_rows_;
  std::unique_ptr<ThreadPool> exec_pool_;
};

void Pass::RunOp(size_t i) {
  OpRecord& r = ops_[i];
  const int64_t start = NowNs();
  const Phase phase = r.measured ? Phase::kMeasured : Phase::kWarmup;
  const uint64_t root = spans_.enabled() ? spans_.NewId() : 0;
  const std::string kind_span =
      std::string("txn.") + TxnKindToString(r.kind);
  Status st;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      if (NowNs() - start >= kRetryBudgetUs * 1000) break;
      int64_t b0 = NowNs();
      int64_t us = std::min(kBackoffBaseUs << std::min(attempt - 1, 20),
                            kBackoffCapUs);
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      spans_.Add("txn.backoff", b0, NowNs(), root, i, phase);
    }
    // Fresh Rng per attempt: a retry replays the op's arguments.
    Rng rng(r.seed);
    (void)rng.Uniform(100);  // the kind draw (ConcurrentDriver::KindFor)
    int64_t a0 = NowNs();
    st = RunKind(world_.bench.get(), r.kind, &rng, &r.ack);
    spans_.Add(kind_span, a0, NowNs(), root, i, phase);
    ++r.attempts;
    if (st.code() != StatusCode::kAborted) break;
  }
  r.ok = st.ok();
  r.done_ns = NowNs();
  if (!st.ok()) {
    std::fprintf(stderr, "op %zu (%s) failed after %d attempts: %s\n", i,
                 TxnKindToString(r.kind), r.attempts, st.ToString().c_str());
  }
  if (spans_.enabled()) {
    spans_.Add("workload.gen_late", r.due_ns, r.submit_ns, root, i, phase);
    spans_.Add("sched.oltp_wait", r.submit_ns, start, root, i, phase);
    spans_.Add("oltp.op", r.due_ns, r.done_ns, 0, i, phase, root);
  }
  completed_.fetch_add(1, std::memory_order_acq_rel);
}

// Open-loop generator: op i is due at start + i / rate and is submitted
// at its due time whether or not earlier ops have finished.
void Pass::Generate(int64_t start_ns, size_t total_ops, size_t warmup_ops) {
  const double period_ns = 1e9 / Rate(o_);
  std::vector<std::future<Status>> done;
  done.reserve(total_ops);
  for (size_t i = 0; i < total_ops; ++i) {
    OpRecord& r = ops_[i];
    r.due_ns = start_ns + static_cast<int64_t>(i * period_ns);
    if (i == warmup_ops) {
      reg_warm_ = RegistryView::Take();
      measuring_.store(true, std::memory_order_release);
    }
    int64_t now = NowNs();
    if (now < r.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(r.due_ns - now));
    }
    r.submit_ns = NowNs();
    submitted_.fetch_add(1, std::memory_order_acq_rel);
    done.push_back(live_wm_->Submit(QueryClass::kOltp, [this, i] { RunOp(i); }));
  }
  measuring_.store(false, std::memory_order_release);
  generating_.store(false, std::memory_order_release);
  for (size_t i = 0; i < done.size(); ++i) {
    Status st = done[i].get();
    if (!st.ok() && ops_[i].done_ns == 0) {
      // Refused by admission: never ran. Counts as failed.
      ops_[i].done_ns = NowNs();
      completed_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

// Samples the generator backlog and the unmerged delta size while the
// measured window is open.
void Pass::Monitor() {
  while (generating_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (!measuring_.load(std::memory_order_acquire)) continue;
    double outstanding =
        static_cast<double>(submitted_.load(std::memory_order_acquire)) -
        static_cast<double>(completed_.load(std::memory_order_acquire));
    backlog_samples_.push_back(outstanding);
    delta_row_samples_.push_back(static_cast<double>(
        ProbeFreshness(*world_.db->catalog(),
                       SystemClock::Get()->NowMicros())
            .delta_rows));
  }
}

void Pass::LiveClient(WorkloadManager* wm) {
  size_t q = 0;
  const size_t n = AnalyticClient::NumQueries(spec_.client);
  while (generating_.load(std::memory_order_acquire)) {
    Phase phase = measuring_.load(std::memory_order_acquire)
                      ? Phase::kMeasured
                      : Phase::kWarmup;
    live_reads_.push_back(client_->Run(wm, spec_.client, q, phase, nullptr));
    q = (q + 1) % n;
  }
}

PassResult Pass::Run() {
  PassResult result;
  // Set-up, repeated; the last world is kept for the run.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world_.bench.reset();  // dependents first: the WAL goes last
    world_.db.reset();
    world_.wal.reset();
    std::filesystem::remove_all(o_.workdir);
    int64_t t0 = NowNs();
    std::string err;
    if (!SetUp(o_, o_.workdir, &world_, &err)) {
      checks_->Expect(false, "setup failed: " + err);
      return result;
    }
    setup_s_.push_back(Since(t0));
  }
  Database* db = world_.db.get();
  {
    auto n = Query(db, "SELECT COUNT(*) AS n FROM orders");
    loaded_orders_ = n.ok() ? static_cast<size_t>((*n)[0][0].AsInt64()) : 0;
  }

  const double rate = Rate(o_);
  const double warmup_s = o_.tiny ? 0.2 : kWarmupS;
  const size_t warmup_ops = static_cast<size_t>(warmup_s * rate);
  const size_t total_ops =
      warmup_ops + static_cast<size_t>(o_.seconds * rate);
  ops_.resize(total_ops);
  for (size_t i = 0; i < total_ops; ++i) {
    ops_[i].seed = ConcurrentDriver::OpSeed(o_.seed, 0, i);
    ops_[i].kind = ConcurrentDriver::KindFor(ops_[i].seed);
    ops_[i].measured = i >= warmup_ops;
  }

  obs::MetricsRegistry::Default()->ResetAll();
  reg_start_ = RegistryView::Take();

  // Background machinery for the live phase.
  if (spec_.client == Client::kCh) {
    exec_pool_ = std::make_unique<ThreadPool>(AnalyticDop());
    db->set_exec_pool(exec_pool_.get());
  }
  MergeDaemon::Options mopts;  // the daemon's default cadence and threshold
  mopts.autostart = false;
  MergeDaemon merger(db->catalog(), db->txn_manager(), mopts);
  merger.set_view_manager(db->view_manager());
  std::unique_ptr<LogWriter> log_writer;
  CheckpointDaemon* checkpointer = nullptr;
  if (spec_.durable) {
    // The LogWriter's default group window and batch size.
    log_writer =
        std::make_unique<LogWriter>(world_.wal.get(), LogWriter::Options{});
    db->txn_manager()->SetLogWriter(log_writer.get());
    checkpointer = db->EnsureCheckpointer();
    checkpointer->set_interval_us(kCheckpointIntervalUs);
    checkpointer->set_wal_trigger_bytes(kCheckpointWalBytes);
    checkpointer->set_truncate_wal(true);
  }
  merger.Start();
  if (checkpointer != nullptr) checkpointer->Start();

  client_ = std::make_unique<AnalyticClient>(db, &spans_);
  {
    WorkloadManager wm(WmOptions(
        std::min<size_t>(4, Nproc()) + (spec_.client != Client::kNone)));
    live_wm_ = &wm;
    generating_.store(true, std::memory_order_release);
    const int64_t start_ns = NowNs() + 1'000'000;
    std::thread monitor([this] { Monitor(); });
    std::thread reader;
    if (spec_.client != Client::kNone) {
      reader = std::thread([this, &wm] { LiveClient(&wm); });
    }
    Generate(start_ns, total_ops, warmup_ops);
    measured_s_ = o_.seconds;
    if (reader.joinable()) reader.join();
    monitor.join();
    wm.Drain();
    live_wm_ = nullptr;
  }

  // Quiesce: daemons stop before the end snapshot so no background commit
  // straddles it.
  CheckpointDaemon::CrashImage crash;
  if (spec_.durable) crash = checkpointer->CaptureCrashImage();
  merger.Stop();
  if (checkpointer != nullptr) checkpointer->Stop();
  if (log_writer != nullptr) {
    log_writer->Stop();
    db->txn_manager()->SetLogWriter(nullptr);
  }
  reg_end_ = RegistryView::Take();
  // Peak RSS of set-up and the live phase. The checks below hold row dumps
  // of two databases at once: that is the benchmark's memory, not the
  // engine's.
  {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    peak_rss_mb_ = ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB
  }

  // Every commit in the live phase is an acknowledged TPC-C op, a SQL
  // statement of the analytic client, or a view-maintenance transaction.
  {
    uint64_t acked = 0;
    for (const OpRecord& r : ops_) acked += r.ok;
    RegistryDelta live{reg_start_, reg_end_};
    double expect = static_cast<double>(acked + client_->statements()) +
                    live.Counter("view.maintain_runs");
    checks_->Expect(live.Counter("txn.commits") == expect,
                    "txn.commits " + std::to_string(live.Counter("txn.commits")) +
                        " != acked " + std::to_string(expect));
  }

  // Crash image (durable) or checkpoint of the quiesced state (in memory),
  // recovered into a fresh Database.
  {
    if (!spec_.durable) {
      db->view_manager()->MaintainAll();  // views caught up before the image
      auto ck = db->EnsureCheckpointer()->CheckpointNow();
      checks_->Expect(ck.ok(), "final checkpoint failed");
      crash.store = db->EnsureCheckpointer()->StoreCopy();
    }
    ThreadPool pool(Nproc());
    std::unique_ptr<Database> recovered;
    std::vector<double> recovery_s;
    for (int rep = 0; rep < kRecoveryReps; ++rep) {
      recovered.reset();
      recovered = std::make_unique<Database>();
      int64_t t0 = NowNs();
      auto report =
          recovered->RecoverFromCheckpointStore(crash.store, crash.wal, &pool);
      recovery_s.push_back(Since(t0));
      checks_->Expect(report.ok(), "recovery failed");
      if (report.ok()) tail_txns_ = report->tail_txns;
    }
    recovery_s_ = Median(recovery_s);
    Database& rec = *recovered;

    // Durability: every acked NewOrder is present, nothing unacked came
    // back, and the recovered state equals the live one table by table.
    size_t acked_new_orders = 0;
    Table* orders = rec.catalog()->GetTable("orders");
    checks_->Expect(orders != nullptr, "recovered orders table missing");
    if (orders != nullptr) {
      std::set<std::tuple<int64_t, int64_t, int64_t>> present;
      orders->ScanVisible(rec.txn_manager()->oracle()->CurrentReadTs(),
                          [&](const Row& r) {
                            present.insert({r[0].AsInt64(), r[1].AsInt64(),
                                            r[2].AsInt64()});
                          });
      size_t missing = 0;
      for (const OpRecord& r : ops_) {
        if (!r.ok || r.kind != TxnKind::kNewOrder) continue;
        ++acked_new_orders;
        missing += !present.count({r.ack.w, r.ack.d, r.ack.o_id});
      }
      checks_->Expect(missing == 0, std::to_string(missing) +
                                        " acked NewOrders lost in recovery");
      checks_->Expect(present.size() == loaded_orders_ + acked_new_orders,
                      "recovered orders " + std::to_string(present.size()) +
                          " != load + acked " +
                          std::to_string(loaded_orders_ + acked_new_orders));
    }
    TableDump live = DumpTables(db);
    TableDump back = DumpTables(&rec);
    checks_->Expect(live.rows.size() == back.rows.size(),
                    "recovered catalog has a different table set");
    for (auto& [name, rows] : live.rows) {
      checks_->Expect(back.rows.count(name) && back.rows[name] == rows,
                      "recovered table " + name + " differs from live");
    }
    CheckConsistency(db, "final state", checks_);

    // End-of-run probes, on a quiesced database through the same client
    // path: the DOP check on the live database, the routing check on the
    // live views (htap_views) or on views built over the recovered state.
    if (exec_pool_ == nullptr) {
      exec_pool_ = std::make_unique<ThreadPool>(AnalyticDop());
      db->set_exec_pool(exec_pool_.get());
    }
    Database* routed_db = db;
    AnalyticClient* routed_client = client_.get();
    std::unique_ptr<AnalyticClient> rec_client;
    if (spec_.client != Client::kRouted) {
      for (const char* ddl : kViewDdl) {
        checks_->Expect(rec.Execute(ddl).ok(), "probe view DDL failed");
      }
      rec_client = std::make_unique<AnalyticClient>(&rec, &spans_);
      routed_db = &rec;
      routed_client = rec_client.get();
    }
    {
      WorkloadManager wm(WmOptions(2));
      DopCheck();
      RoutingCheck(routed_client, routed_db, &wm);
      Probe(routed_client, &wm);
    }
    db->set_exec_pool(nullptr);
  }
  ComputeE2e(&result);
  if (spans_.enabled()) ComputeLayers(&result);
  return result;
}

// The 13 CH queries at DOP 1 (direct Database::Execute): the reference the
// governed-DOP runs of Probe() must match byte for byte.
void Pass::DopCheck() {
  Database* db = world_.db.get();
  const size_t n = CHBenchmark::Queries().size();
  std::vector<std::optional<std::vector<std::string>>>& want = dop1_rows_;
  want.assign(n, std::nullopt);
  for (size_t q = 0; q < n; ++q) {
    db->set_max_dop(1);
    auto serial = Query(db, CHBenchmark::Queries()[q].sql);
    db->set_max_dop(0);
    checks_->Expect(serial.ok(), "DOP-1 run of " +
                                     AnalyticClient::Label(Client::kCh, q) +
                                     " failed");
    if (serial.ok()) want[q] = EncodeRows(*serial, false);
  }
  if (!spans_.enabled()) return;
  // Per-operator self time from EXPLAIN ANALYZE (columns: operator with
  // two-space indentation per depth, est_rows, rows, batches, time_ms
  // inclusive).
  for (size_t q = 0; q < n; ++q) {
    auto prof = Query(db, "EXPLAIN ANALYZE " + CHBenchmark::Queries()[q].sql);
    if (!prof.ok()) continue;
    struct Node {
      std::string kind;
      size_t depth;
      double incl;
      double child = 0;
    };
    std::vector<Node> nodes;
    std::vector<size_t> stack;
    for (const Row& r : *prof) {
      const std::string& text = r[0].AsString();
      size_t depth = text.find_first_not_of(' ');
      if (depth == std::string::npos) continue;
      std::string kind = text.substr(depth);
      kind = kind.substr(0, kind.find_first_of("( "));
      double ms = r[4].AsDouble();
      while (!stack.empty() && nodes[stack.back()].depth >= depth) {
        stack.pop_back();
      }
      if (!stack.empty()) nodes[stack.back()].child += ms;
      stack.push_back(nodes.size());
      nodes.push_back(Node{kind, depth, ms});
    }
    for (const Node& nd : nodes) {
      op_self_ms_[nd.kind] += std::max(0.0, nd.incl - nd.child);
    }
  }
}

// Routed reads (client path, routing on) must equal base-table results
// with routing off once the views are caught up; then a timed loop of
// routed reads on the quiesced database.
void Pass::RoutingCheck(AnalyticClient* client, Database* db,
                        WorkloadManager* wm) {
  db->view_manager()->MaintainAll();
  for (size_t q = 0; q < std::size(kRoutedSql); ++q) {
    auto plan = Query(db, std::string("EXPLAIN ") + kRoutedSql[q]);
    bool routed = plan.ok() && !plan->empty() &&
                  (*plan)[0][0].AsString().find(
                      "routed via materialized view") != std::string::npos;
    checks_->Expect(routed, std::string("not routed: ") + kRoutedSql[q]);
    std::vector<Row> rows;
    ReadSample s = client->Run(wm, Client::kRouted, q, Phase::kCheck, &rows);
    db->set_view_routing_enabled(false);
    auto base = Query(db, kRoutedSql[q]);
    db->set_view_routing_enabled(true);
    checks_->Expect(s.ok && base.ok() &&
                        EncodeRows(rows, true) == EncodeRows(*base, true),
                    std::string("routed result differs from base tables: ") +
                        kRoutedSql[q]);
  }
}

// End-of-run probe on the quiesced state. First the DOP check: every CH
// query once at governed DOP through the client path, checked byte for
// byte against DOP 1. Then kProbeRounds timed rounds, so that host speed,
// which drifts over seconds, is sampled across the probe: each runs every
// CH query once at DOP 1 and a slice of the routed reads, all on the
// calling thread, pinned to CPU round % nproc. A thread left to the
// scheduler tended to stay on one vCPU, whose speed (its host core's other
// load) set the whole probe: per-run figures were bimodal, about 35% apart.
// Timed through the workload manager, or at governed DOP,
// the figures followed the host's thread wake-up latency (a hand-off added
// 50-85 us to A11, which ran in 28-65 us on the calling thread); over six
// seeds on a host losing 2-6 s per run to steal the geometric mean spread
// 0.28 through the workload manager, 0.12 in parallel on the calling
// thread and 0.09 at DOP 1.
void Pass::Probe(AnalyticClient* routed_client, WorkloadManager* wm) {
  const size_t n = CHBenchmark::Queries().size();
  for (size_t q = 0; q < n; ++q) {
    std::vector<Row> rows;
    ReadSample s = client_->Run(wm, Client::kCh, q, Phase::kCheck, &rows);
    checks_->Expect(s.ok && dop1_rows_[q].has_value() &&
                        EncodeRows(rows, false) == *dop1_rows_[q],
                    "governed-DOP result of " +
                        AnalyticClient::Label(Client::kCh, q) +
                        " differs from DOP 1");
  }
  const int reads = (o_.tiny ? 200 : kRoutedProbeReads) / kProbeRounds;
  cpu_set_t allowed;
  const bool pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  for (int round = 0; round < kProbeRounds; ++round) {
    if (pin) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(static_cast<int>(round % Nproc()), &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
    world_.db->set_max_dop(1);
    for (size_t q = 0; q < n; ++q) {
      probe_reads_.push_back(
          client_->Run(nullptr, Client::kCh, q, Phase::kProbe, nullptr));
    }
    world_.db->set_max_dop(0);
    for (int i = 0; i < reads; ++i) {
      routed_probe_.push_back(routed_client->Run(
          nullptr, Client::kRouted, i % std::size(kRoutedSql), Phase::kProbe,
          nullptr));
    }
  }
  if (pin) (void)sched_setaffinity(0, sizeof allowed, &allowed);
}


// (start time ns, latency us) of measured ops or of reads in `phase`;
// failed ones at kFailedLatencyUs.
using Samples = std::vector<std::pair<int64_t, double>>;

Samples OpSamples(const std::vector<OpRecord>& ops) {
  Samples v;
  for (const OpRecord& r : ops) {
    if (!r.measured) continue;
    v.emplace_back(r.due_ns,
                   r.ok ? (r.done_ns - r.due_ns) * 1e-3 : kFailedLatencyUs);
  }
  return v;
}

Samples ReadSamples(const std::vector<ReadSample>& reads, Phase phase) {
  Samples v;
  for (const ReadSample& r : reads) {
    if (r.phase != phase) continue;
    v.emplace_back(r.submit_ns, r.ok ? (r.done_ns - r.submit_ns) * 1e-3
                                     : kFailedLatencyUs);
  }
  return v;
}

// Splits the samples, in start-time order, into kWindows equal consecutive
// windows and returns the median over windows of each window's p99, so a
// single stall cannot swing a run.
double WindowedP99(Samples samples, const char* what) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t windows = std::min<size_t>(kWindows, samples.size());
  std::vector<double> p99;
  std::string trace = std::string(what) + " windows p99 us:";
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> v;
    for (size_t i = w * samples.size() / windows;
         i < (w + 1) * samples.size() / windows; ++i) {
      v.push_back(samples[i].second);
    }
    std::sort(v.begin(), v.end());
    p99.push_back(Pct(v, 0.99));
    trace += " " + std::to_string(static_cast<int64_t>(p99.back()));
  }
  std::fprintf(stderr, "%s\n", trace.c_str());
  return Median(p99);
}

// Latencies (us) grouped by TPC-C kind or by query; failed ones at
// kFailedLatencyUs.
using Groups = std::map<std::string, std::vector<double>>;

Groups OpGroups(const std::vector<OpRecord>& ops) {
  Groups g;
  for (const OpRecord& r : ops) {
    if (!r.measured) continue;
    g[TxnKindToString(r.kind)].push_back(
        r.ok ? (r.done_ns - r.due_ns) * 1e-3 : kFailedLatencyUs);
  }
  return g;
}

Groups ReadGroups(const std::vector<ReadSample>& reads, Client kind,
                  Phase phase) {
  Groups g;
  for (const ReadSample& r : reads) {
    if (r.phase != phase) continue;
    g[AnalyticClient::Label(kind, r.query)].push_back(
        r.ok ? (r.done_ns - r.submit_ns) * 1e-3 : kFailedLatencyUs);
  }
  return g;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

// Geometric mean over groups of each group's median (or mean) latency.
// Each group counts once, however long its requests: the median of a mix
// of fast and slow kinds falls in the gap between them, where a small
// shift of the mix moves it far (the routed reads' mixed p50 jumped
// between 26 and 37 us from one window to the next), and a long query
// would hide a short one.
double Geomean(const Groups& groups, bool use_mean, const char* what) {
  if (groups.empty()) return 0;
  double log_sum = 0;
  std::string trace =
      std::string(what) + (use_mean ? " means us:" : " medians us:");
  for (auto& [name, v] : groups) {
    double x = use_mean ? Mean(v) : Median(v);
    log_sum += std::log(std::max(x, 1e-3));
    trace += " " + name + "=" + std::to_string(static_cast<int64_t>(x));
  }
  std::fprintf(stderr, "%s\n", trace.c_str());
  return std::exp(log_sum / groups.size());
}

void Pass::ComputeE2e(PassResult* result) {
  std::map<std::string, double>& m = result->e2e;
  m["setup_s"] = Median(setup_s_);
  m["peak_rss_mb"] = peak_rss_mb_;

  m["oltp_p50_us"] = Geomean(OpGroups(ops_), /*use_mean=*/false, "oltp");

  // CH queries: per-query medians of the live client where the workload
  // has one, otherwise per-query means of the end-of-run probe on the
  // quiesced state. The probe has no stalls for a mean to pick up, and its
  // rounds move between vCPUs of different speed; a median picks one side
  // of that split (over seven seeds, in the same runs, the CH figure spread
  // 0.13-0.16 with medians and 0.07-0.08 with means).
  const bool live_ch = spec_.client == Client::kCh;
  m["olap_geomean_ms"] =
      (live_ch ? Geomean(ReadGroups(live_reads_, Client::kCh,
                                    Phase::kMeasured),
                         /*use_mean=*/false, "olap")
               : Geomean(ReadGroups(probe_reads_, Client::kCh, Phase::kProbe),
                         /*use_mean=*/true, "olap probe")) *
      1e-3;
  // Routed reads: per-read means of the probe on every workload (0.06
  // against 0.19 with medians, same runs). A live routed read pays two
  // thread hand-offs through the workload manager, whose wake-up time
  // followed the host's state from run to run more than the read itself;
  // the live figures are per-layer (view.routed_p50_us).
  m["routed_mean_us"] =
      Geomean(ReadGroups(routed_probe_, Client::kRouted, Phase::kProbe),
              /*use_mean=*/true, "routed probe");

  for (const OpRecord& r : ops_) {
    if (!r.measured) continue;
    ++result->attempted;
    result->failed += !r.ok;
  }
  for (const ReadSample& r : live_reads_) {
    if (r.phase != Phase::kMeasured) continue;
    ++result->attempted;
    result->failed += !r.ok;
  }

  // Validity of the offered load: flag the run when the generator ran late
  // or its backlog grew.
  std::vector<double> late;
  for (const OpRecord& r : ops_) {
    if (r.measured) late.push_back((r.submit_ns - r.due_ns) * 1e-3);
  }
  std::sort(late.begin(), late.end());
  const double late_p99 = Pct(late, 0.99);
  if (!o_.tiny && late_p99 > spec_.late_limit_us) {
    result->flagged = true;
    result->flag_reason = "generator lateness p99 " +
                             std::to_string(late_p99) + " us exceeds " +
                             std::to_string(spec_.late_limit_us) + " us";
  }
  // Backlog: mean outstanding ops over the last quarter of the window must
  // stay under 100 ms worth of arrivals.
  if (!backlog_samples_.empty()) {
    size_t q = backlog_samples_.size() * 3 / 4;
    double sum = 0;
    for (size_t i = q; i < backlog_samples_.size(); ++i) {
      sum += backlog_samples_[i];
    }
    double tail_mean = sum / (backlog_samples_.size() - q);
    if (tail_mean > 0.1 * Rate(o_)) {
      result->flagged = true;
      result->flag_reason = "generator backlog grew: " +
                               std::to_string(tail_mean) +
                               " ops outstanding at the end of the window";
    }
  }
}

void Pass::ComputeLayers(PassResult* result) {
  std::map<std::string, double>& m = result->layers;
  RegistryDelta reg{reg_warm_, reg_end_};

  // workload
  std::vector<double> late;
  double oltp_samples = 0, failed_ops = 0;
  for (const OpRecord& r : ops_) {
    if (!r.measured) continue;
    late.push_back((r.submit_ns - r.due_ns) * 1e-3);
    ++oltp_samples;
    failed_ops += !r.ok;
  }
  std::sort(late.begin(), late.end());
  double olap_samples = 0, failed_reads = 0;
  for (const ReadSample& r : live_reads_) {
    if (r.phase != Phase::kMeasured) continue;
    ++olap_samples;
    failed_reads += !r.ok;
  }
  m["workload.gen_late_p99_us"] = Pct(late, 0.99);
  // The OLTP tail: median over windows of each window's p99. Not an
  // end-to-end metric, because on a shared host its run-to-run spread
  // exceeds any bound the benchmark may set.
  m["workload.oltp_p99_us"] = WindowedP99(OpSamples(ops_), "oltp");
  m["workload.offered_txn_s"] = Ratio(oltp_samples, measured_s_);
  // CH queries completed per second: by the live client where the workload
  // has one, otherwise per second of the probe's CH queries.
  {
    const bool live_ch = spec_.client == Client::kCh;
    const Phase phase = live_ch ? Phase::kMeasured : Phase::kProbe;
    double ok = 0, busy_s = 0;
    for (const ReadSample& r : live_ch ? live_reads_ : probe_reads_) {
      if (r.phase != phase) continue;
      ok += r.ok;
      busy_s += (r.done_ns - r.submit_ns) * 1e-9;
    }
    m["workload.olap_q_s"] = Ratio(ok, live_ch ? measured_s_ : busy_s);
  }
  m["workload.oltp_samples"] = oltp_samples;
  m["workload.olap_samples"] = olap_samples;
  m["workload.failed_ratio"] =
      Ratio(failed_ops + failed_reads, oltp_samples + olap_samples);
  m["workload.flagged"] = result->flagged ? 1 : 0;
  m["workload.backlog_max"] =
      backlog_samples_.empty()
          ? 0
          : *std::max_element(backlog_samples_.begin(), backlog_samples_.end());

  // Span durations (us) by name for one phase; plus per-request pairing of
  // sampled parse/EXPLAIN spans.
  auto durations = [&](const std::string& name, Phase phase) {
    std::vector<double> v;
    for (const Span& s : spans_.spans()) {
      if (s.phase == phase && s.name == name) {
        v.push_back((s.end_ns - s.start_ns) * 1e-3);
      }
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  // Measured spans where the live phase has them, else probe spans.
  auto live_or_probe = [&](const std::string& name) {
    std::vector<double> v = durations(name, Phase::kMeasured);
    return v.empty() ? durations(name, Phase::kProbe) : v;
  };

  // sched
  std::vector<double> oltp_wait = durations("sched.oltp_wait", Phase::kMeasured);
  m["sched.oltp_wait_p50_us"] = Pct(oltp_wait, 0.5);
  m["sched.oltp_wait_p99_us"] = Pct(oltp_wait, 0.99);
  m["sched.olap_wait_p50_us"] = Pct(live_or_probe("sched.olap_wait"), 0.5);
  m["sched.degraded"] = reg.Counter("sched.degraded");
  m["sched.shed"] = reg.Counter("sched.shed");

  // txn: per-attempt latency of each TPC-C transaction kind.
  for (TxnKind k : {TxnKind::kNewOrder, TxnKind::kPayment,
                    TxnKind::kOrderStatus, TxnKind::kDelivery,
                    TxnKind::kStockLevel}) {
    std::string n = TxnKindToString(k);
    std::vector<double> v = durations("txn." + n, Phase::kMeasured);
    m["txn." + n + "_p50_us"] = Pct(v, 0.5);
    m["txn." + n + "_p99_us"] = Pct(v, 0.99);
  }
  double attempts = 0, aborted = 0;
  for (const OpRecord& r : ops_) {
    if (!r.measured) continue;
    attempts += r.attempts;
    aborted += r.ok ? r.attempts - 1 : r.attempts;
  }
  m["txn.abort_ratio"] = Ratio(aborted, attempts);
  m["txn.commit_mean_us"] = reg.Mean("txn.commit_ns") * 1e-3;

  // wal
  const double commits = reg.Counter("txn.commits");
  m["wal.batch_mean"] = reg.Mean("wal.batch_size");
  m["wal.group_wait_mean_us"] = reg.Mean("wal.group_wait_us");
  m["wal.bytes_per_txn"] = Ratio(reg.Counter("wal.bytes"), commits);

  // ckpt
  m["ckpt.rounds"] = reg.Counter("ckpt.written");
  m["ckpt.duration_mean_us"] = reg.Mean("ckpt.duration_us");
  m["ckpt.truncated_bytes"] = reg.Counter("wal.truncated_bytes");
  m["recovery.tail_txns"] = static_cast<double>(tail_txns_);
  // Recovery time is a per-layer figure, not an end-to-end one: it moved
  // by 20-30% between runs of the same seed as the host's memory speed
  // drifted, more than any end-to-end bound allows.
  m["recovery.time_s"] = recovery_s_;

  // storage
  const double merges = reg.Counter("merge.tables_merged");
  m["merge.runs"] = merges;
  m["merge.rows_per_run"] = Ratio(reg.Counter("merge.rows_merged"), merges);
  m["merge.bytes_rewritten_per_row"] =
      Ratio(reg.Counter("merge.bytes_merged"), reg.Counter("merge.rows_merged"));
  double delta_sum = 0;
  for (double d : delta_row_samples_) delta_sum += d;
  m["storage.delta_rows_mean"] =
      Ratio(delta_sum, static_cast<double>(delta_row_samples_.size()));

  // view
  m["view.route_p50_us"] = Pct(live_or_probe("view.route"), 0.5);
  const bool live_routed = spec_.client == Client::kRouted;
  const std::vector<ReadSample>& routed =
      live_routed ? live_reads_ : routed_probe_;
  const Phase routed_phase = live_routed ? Phase::kMeasured : Phase::kProbe;
  m["view.routed_p50_us"] =
      Geomean(ReadGroups(routed, Client::kRouted, routed_phase),
              /*use_mean=*/false, "routed");
  m["view.routed_p99_us"] =
      WindowedP99(ReadSamples(routed, routed_phase), "routed");
  m["view.routed_ratio"] =
      Ratio(reg.Counter("view.routed"), reg.Counter("view.route_considered"));
  m["view.maintain_mean_us"] = reg.Mean("view.maintain_ns") * 1e-3;
  m["view.changes_applied"] = reg.Counter("view.changes_applied");
  std::vector<double> stale;
  for (const ReadSample& r : live_reads_) {
    if (r.phase == Phase::kMeasured && r.staleness_us >= 0) {
      stale.push_back(static_cast<double>(r.staleness_us));
    }
  }
  std::sort(stale.begin(), stale.end());
  m["view.staleness_p50_us"] = Pct(stale, 0.5);

  // sql: parse = sql::Parse; plan = EXPLAIN minus parse, per request.
  for (const char* cls : {"ch", "routed"}) {
    m[std::string("sql.") + cls + "_parse_p50_us"] = 0;
    m[std::string("sql.") + cls + "_plan_p50_us"] = 0;
    for (Phase phase : {Phase::kMeasured, Phase::kProbe}) {
      std::map<uint64_t, double> parse_us, explain_us;
      for (const Span& s : spans_.spans()) {
        if (s.phase != phase) continue;
        double us = (s.end_ns - s.start_ns) * 1e-3;
        if (s.name == std::string("sql.parse.") + cls) parse_us[s.request] = us;
        if (s.name == std::string("sql.explain.") + cls) {
          explain_us[s.request] = us;
        }
      }
      if (parse_us.empty()) continue;
      std::vector<double> parse, plan;
      for (auto& [req, p] : parse_us) {
        parse.push_back(p);
        if (explain_us.count(req)) plan.push_back(explain_us[req] - p);
      }
      std::sort(parse.begin(), parse.end());
      std::sort(plan.begin(), plan.end());
      m[std::string("sql.") + cls + "_parse_p50_us"] = Pct(parse, 0.5);
      m[std::string("sql.") + cls + "_plan_p50_us"] = Pct(plan, 0.5);
      break;
    }
  }

  // opt
  m["opt.order_cache_hit_ratio"] = Ratio(reg.Counter("opt.order_cache_hits"),
                                         reg.Counter("opt.plans_optimized"));
  m["opt.qerror_mean"] = reg.Mean("opt.qerror_x100") / 100.0;

  // exec: per-query p50 from the exec spans; per-operator self time from
  // EXPLAIN ANALYZE; morsel counters.
  for (size_t q = 0; q < CHBenchmark::Queries().size(); ++q) {
    std::string label = AnalyticClient::Label(Client::kCh, q);
    m["exec." + label + "_p50_ms"] =
        Pct(live_or_probe("exec." + label), 0.5) * 1e-3;
  }
  for (const char* kind : kOperatorKinds) m[std::string("exec.self_ms.") + kind] = 0;
  m["exec.self_ms.other"] = 0;
  for (auto& [kind, ms] : op_self_ms_) {
    bool known = std::find_if(std::begin(kOperatorKinds),
                              std::end(kOperatorKinds), [&](const char* k) {
                                return kind == k;
                              }) != std::end(kOperatorKinds);
    m["exec.self_ms." + (known ? kind : std::string("other"))] += ms;
  }
  const double queries = reg.Counter("exec.queries");
  m["exec.morsel.parallel_share"] =
      Ratio(reg.Counter("exec.morsel.parallel_queries"), queries);
  m["exec.morsel.dispatched_per_query"] =
      Ratio(reg.Counter("exec.morsel.dispatched"), queries);

  // Self time per layer over the measured spans: a span's duration minus
  // the part its child spans cover.
  std::map<uint64_t, double> child_ns;
  for (const Span& s : spans_.spans()) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (const char* layer : kTraceLayers) {
    m[std::string("trace.self_ms.") + layer] = 0;
  }
  for (const Span& s : spans_.spans()) {
    if (s.phase != Phase::kMeasured) continue;
    std::string layer = s.name.substr(0, s.name.find('.'));
    auto it = m.find("trace.self_ms." + layer);
    if (it == m.end()) continue;
    double self = (s.end_ns - s.start_ns) - child_ns[s.id];
    it->second += std::max(0.0, self) * 1e-6;
  }
  m["trace.spans"] = static_cast<double>(spans_.spans().size());
}

struct MetricDef {
  const char* name;
  const char* unit;
};
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
    {"oltp_p50_us", "us"},    {"olap_geomean_ms", "ms"},
    {"routed_mean_us", "us"},
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string LayerUnit(const std::string& name) {
  if (name.find("self_ms.") != std::string::npos || EndsWith(name, "_ms")) {
    return "ms";
  }
  if (EndsWith(name, "_us")) return "us";
  if (EndsWith(name, "_txn_s")) return "1/s";
  if (EndsWith(name, "_q_s")) return "q/s";
  if (EndsWith(name, "time_s")) return "s";
  if (EndsWith(name, "_ratio") || EndsWith(name, "_share")) return "ratio";
  if (EndsWith(name, "bytes_per_txn")) return "B/txn";
  if (EndsWith(name, "bytes_per_row") || EndsWith(name, "rewritten_per_row")) {
    return "B/row";
  }
  if (EndsWith(name, "_bytes")) return "B";
  if (EndsWith(name, "qerror_mean")) return "x";
  if (EndsWith(name, "rows_per_run") || EndsWith(name, "rows_mean")) {
    return "rows";
  }
  if (EndsWith(name, "batch_mean")) return "txn";
  if (EndsWith(name, "dispatched_per_query")) return "morsels";
  return "count";
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<std::string, std::string>>& names,
                 const std::map<std::string, double>& values) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (auto& [name, unit] : names) {
    auto it = values.find(name);
    out += (first ? "" : ", ");
    out += "\"" + name + "\": {\"value\": " +
           FormatNumber(it == values.end() ? 0 : it->second) +
           ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: htap_ledger --workload <oltp_durable|htap_ch|"
               "htap_views> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--span-file <path>] [--tiny]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      o.spec = FindWorkload(next());
    } else if (a == "--seed") {
      o.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(next());
    } else if (a == "--trace") {
      o.trace = std::atoi(next()) != 0;
    } else if (a == "--workdir") {
      o.workdir = next();
    } else if (a == "--span-file") {
      o.span_file = next();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      return Usage();
    }
  }
  if (o.spec == nullptr || !(o.seconds > 0)) return Usage();

  Checks checks;
  PassResult untraced;
  {
    // A traced run first makes an untraced reference pass of half the
    // length, for the tracing-overhead figures.
    Options ref = o;
    if (o.trace) ref.seconds = o.seconds / 2;
    Pass pass(ref, /*traced=*/false, &checks);
    untraced = pass.Run();
  }
  PassResult printed = untraced;
  std::vector<std::pair<std::string, std::string>> names;
  if (!o.trace) {
    for (const MetricDef& d : kEndToEnd) names.emplace_back(d.name, d.unit);
  } else {
    Pass pass(o, /*traced=*/true, &checks);
    printed = pass.Run();
    if (!o.span_file.empty() && !pass.spans().Write(o.span_file)) {
      checks.Expect(false, "cannot write span file " + o.span_file);
    }
    // Tracing overhead: traced minus untraced end-to-end figures.
    for (const char* e : {"oltp_p50_us", "olap_geomean_ms", "routed_mean_us"}) {
      printed.layers[std::string("trace.overhead.") + e] =
          printed.e2e[e] - untraced.e2e[e];
    }
    for (auto& [name, value] : printed.layers) {
      names.emplace_back(name, LayerUnit(name));
    }
  }
  std::filesystem::remove_all(o.workdir);
  for (const PassResult* r : {&untraced, &printed}) {
    if (r->flagged) {
      std::fprintf(stderr, "RUN FLAGGED: %s\n", r->flag_reason.c_str());
    }
  }
  PrintResult(checks.ok(), printed.attempted, printed.failed, names,
              o.trace ? printed.layers : printed.e2e);
  return 0;
}

}  // namespace
}  // namespace ledger
}  // namespace oltap

int main(int argc, char** argv) { return oltap::ledger::Main(argc, argv); }
