#include "dist/partition.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/operators.h"

namespace oltap {
namespace {

struct DistCounters {
  obs::Counter* retries;
  obs::Counter* leader_failovers;
  obs::Counter* read_failovers;
  obs::Counter* quorum_failures;
};

DistCounters& GlobalDistCounters() {
  static DistCounters c = {
      obs::MetricsRegistry::Default()->GetCounter("net.retries"),
      obs::MetricsRegistry::Default()->GetCounter("dist.leader_failovers"),
      obs::MetricsRegistry::Default()->GetCounter("dist.read_failovers"),
      obs::MetricsRegistry::Default()->GetCounter(
          "dist.write_quorum_failures"),
  };
  return c;
}

}  // namespace

DistributedEngine::DistributedEngine(Schema schema, const Options& options)
    : schema_(std::move(schema)),
      options_(options),
      rf_(std::min(options.replication_factor, options.num_nodes)),
      net_(options.net),
      breakers_(options.num_nodes, options.breaker) {
  OLTAP_CHECK(options_.num_nodes >= 1);
  OLTAP_CHECK(options_.num_partitions >= 1);
  OLTAP_CHECK(schema_.HasKey()) << "distributed tables require a primary key";
  tablets_.reserve(options_.num_partitions);
  for (int p = 0; p < options_.num_partitions; ++p) {
    auto tablet = std::make_unique<Tablet>();
    for (int r = 0; r < rf_; ++r) {
      tablet->replicas.push_back(std::make_unique<ColumnTable>(schema_));
    }
    tablet->applied.assign(rf_, 0);
    tablet->applied_ts.assign(rf_, 0);
    tablets_.push_back(std::move(tablet));
  }
}

int DistributedEngine::PartitionOf(const std::string& key) const {
  return static_cast<int>(HashString(key) %
                          static_cast<uint64_t>(options_.num_partitions));
}

std::vector<int> DistributedEngine::ReplicaNodes(int partition) const {
  std::vector<int> nodes;
  nodes.reserve(rf_);
  for (int r = 0; r < rf_; ++r) {
    nodes.push_back((partition + r) % options_.num_nodes);
  }
  return nodes;
}

int DistributedEngine::CurrentLeaderNode(int partition) {
  Tablet& tablet = *tablets_[partition];
  std::lock_guard<std::mutex> lock(tablet.mu);
  return ReplicaNodes(partition)[tablet.leader_r];
}

size_t DistributedEngine::ApproxRowBytes(const Row& row) {
  size_t bytes = 16;
  for (const Value& v : row) {
    bytes += v.type() == ValueType::kString ? 16 + v.AsString().size() : 8;
  }
  return bytes;
}

Status DistributedEngine::Rpc(int from, int to, size_t request_bytes,
                              size_t reply_bytes) {
  if (from == to) return Status::OK();
  OLTAP_RETURN_NOT_OK(breakers_.Allow(to));
  Stopwatch sw;
  for (int attempt = 0;; ++attempt) {
    Status st = net_.TryRoundTrip(from, to, request_bytes, reply_bytes);
    if (st.ok()) {
      breakers_.RecordSuccess(to);
      return st;
    }
    if (!options_.rpc_retry.ShouldRetry(attempt + 1, sw.ElapsedMicros())) {
      breakers_.RecordFailure(to);
      return st;
    }
    rpc_retries_.fetch_add(1, std::memory_order_relaxed);
    GlobalDistCounters().retries->Add(1);
    int64_t backoff_us = options_.rpc_retry.BackoffMicros(attempt);
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

void DistributedEngine::ApplyLogLocked(Tablet& tablet, int r) {
  while (tablet.applied[r] < tablet.log.size()) {
    const Op& op = tablet.log[tablet.applied[r]];
    Status fs;
    switch (op.kind) {
      case Op::Kind::kInsert:
        fs = tablet.replicas[r]->InsertCommitted(op.row, op.ts);
        break;
      case Op::Kind::kUpdate:
        fs = tablet.replicas[r]->UpdateCommitted(op.key, op.row, op.ts);
        break;
      case Op::Kind::kDelete:
        fs = tablet.replicas[r]->DeleteCommitted(op.key, op.ts);
        break;
    }
    OLTAP_CHECK(fs.ok()) << "replica divergence: " << fs.ToString();
    ++tablet.applied[r];
    tablet.applied_ts[r] = op.ts;
  }
}

Status DistributedEngine::FailoverLeaderLocked(int partition, Tablet& tablet,
                                               int client_node) {
  std::vector<int> nodes = ReplicaNodes(partition);
  for (int step = 1; step < rf_; ++step) {
    int r = (tablet.leader_r + step) % rf_;
    int node = nodes[r];
    if (!net_.Reachable(client_node, node)) continue;
    if (tablet.applied[r] < tablet.log.size()) {
      // A stale candidate must first catch up from some fully-applied
      // replica it can reach; otherwise promoting it would silently drop
      // committed writes.
      int donor = -1;
      for (int f = 0; f < rf_; ++f) {
        if (tablet.applied[f] == tablet.log.size() &&
            net_.Reachable(nodes[f], node)) {
          donor = f;
          break;
        }
      }
      if (donor < 0) continue;
      size_t backlog = tablet.log.size() - tablet.applied[r];
      net_.Transfer(nodes[donor], node, 64 * backlog);
      ApplyLogLocked(tablet, r);
    }
    tablet.leader_r = r;
    leader_failovers_.fetch_add(1, std::memory_order_relaxed);
    GlobalDistCounters().leader_failovers->Add(1);
    return Status::OK();
  }
  return Status::Unavailable("no reachable caught-up replica for partition " +
                             std::to_string(partition));
}

Status DistributedEngine::ReplicatedWrite(int client_node, Op::Kind kind,
                                          std::string key, const Row& row) {
  int p = PartitionOf(key);
  size_t bytes = kind == Op::Kind::kDelete ? 32 : ApproxRowBytes(row);
  Tablet& tablet = *tablets_[p];
  std::lock_guard<std::mutex> lock(tablet.mu);
  std::vector<int> nodes = ReplicaNodes(p);

  // Reach the tablet leader, failing over to a surviving replica when the
  // current one is unreachable after the retry budget.
  Status rpc = Rpc(client_node, nodes[tablet.leader_r], bytes, 16);
  if (!rpc.ok()) {
    OLTAP_RETURN_NOT_OK(FailoverLeaderLocked(p, tablet, client_node));
    OLTAP_RETURN_NOT_OK(Rpc(client_node, nodes[tablet.leader_r], bytes, 16));
  }
  int leader_node = nodes[tablet.leader_r];

  // Majority ack check BEFORE applying anything: an OK result must mean
  // "durable on a quorum", a failure must mean "no effect" — the chaos
  // torture test holds the engine to exactly that contract.
  int acks = 1;  // the leader itself
  int first_follower = -1;
  for (int r = 0; r < rf_; ++r) {
    if (r == tablet.leader_r) continue;
    if (first_follower < 0) first_follower = r;
    if (net_.Reachable(leader_node, nodes[r])) ++acks;
  }
  if (rf_ > 1) {
    // Followers replicate in parallel; the cost is one round trip.
    net_.TryRoundTrip(leader_node, nodes[first_follower], bytes, 16);
  }
  if (acks < rf_ / 2 + 1) {
    quorum_failures_.fetch_add(1, std::memory_order_relaxed);
    GlobalDistCounters().quorum_failures->Add(1);
    return Status::Unavailable("write quorum unreachable (" +
                               std::to_string(acks) + "/" +
                               std::to_string(rf_) + " acks)");
  }

  Timestamp ts = NextTs();
  Status st;
  switch (kind) {
    case Op::Kind::kInsert:
      st = tablet.replicas[tablet.leader_r]->InsertCommitted(row, ts);
      break;
    case Op::Kind::kUpdate:
      st = tablet.replicas[tablet.leader_r]->UpdateCommitted(key, row, ts);
      break;
    case Op::Kind::kDelete:
      st = tablet.replicas[tablet.leader_r]->DeleteCommitted(key, ts);
      break;
  }
  if (!st.ok()) return st;

  tablet.log.push_back(Op{kind, std::move(key), row, ts});
  tablet.applied[tablet.leader_r] = tablet.log.size();
  tablet.applied_ts[tablet.leader_r] = ts;
  // Synchronously apply to every reachable follower (replaying any
  // backlog it accumulated while unreachable); the rest stay stale until
  // the partition heals.
  for (int r = 0; r < rf_; ++r) {
    if (r == tablet.leader_r) continue;
    if (net_.Reachable(leader_node, nodes[r])) ApplyLogLocked(tablet, r);
  }
  return Status::OK();
}

Status DistributedEngine::InsertFrom(int client_node, const Row& row) {
  return ReplicatedWrite(client_node, Op::Kind::kInsert,
                         EncodeKey(schema_, row), row);
}

Status DistributedEngine::UpdateFrom(int client_node, const Row& new_row) {
  return ReplicatedWrite(client_node, Op::Kind::kUpdate,
                         EncodeKey(schema_, new_row), new_row);
}

Status DistributedEngine::DeleteFrom(int client_node, const Row& key_row) {
  return ReplicatedWrite(client_node, Op::Kind::kDelete,
                         EncodeKey(schema_, key_row), key_row);
}

bool DistributedEngine::LookupFrom(int client_node, const Row& key_row,
                                   Row* out) {
  std::string key = EncodeKey(schema_, key_row);
  int p = PartitionOf(key);
  Tablet& tablet = *tablets_[p];
  std::lock_guard<std::mutex> lock(tablet.mu);
  net_.RoundTrip(client_node, ReplicaNodes(p)[tablet.leader_r], 32, 64);
  return tablet.replicas[tablet.leader_r]->Lookup(key, current_ts(), out);
}

Result<Row> DistributedEngine::FailoverLookup(int client_node,
                                              const Row& key_row) {
  std::string key = EncodeKey(schema_, key_row);
  int p = PartitionOf(key);
  Tablet& tablet = *tablets_[p];
  std::lock_guard<std::mutex> lock(tablet.mu);
  std::vector<int> nodes = ReplicaNodes(p);

  Status st = Rpc(client_node, nodes[tablet.leader_r], 32, 64);
  if (st.ok()) {
    Row out;
    if (tablet.replicas[tablet.leader_r]->Lookup(key, current_ts(), &out)) {
      return out;
    }
    return Status::NotFound("key not found");
  }

  // Leader unreachable: fall back to a surviving replica whose data is
  // within the staleness bound, reading at its applied high-water mark
  // (a consistent-but-possibly-stale snapshot).
  Timestamp now_ts = current_ts();
  for (int step = 1; step < rf_; ++step) {
    int r = (tablet.leader_r + step) % rf_;
    if (!net_.Reachable(client_node, nodes[r])) continue;
    int64_t staleness =
        static_cast<int64_t>(now_ts) - static_cast<int64_t>(
                                           tablet.applied_ts[r]);
    if (tablet.applied[r] < tablet.log.size() &&
        staleness > options_.max_read_staleness) {
      continue;
    }
    if (!Rpc(client_node, nodes[r], 32, 64).ok()) continue;
    read_failovers_.fetch_add(1, std::memory_order_relaxed);
    GlobalDistCounters().read_failovers->Add(1);
    Row out;
    if (tablet.replicas[r]->Lookup(key, tablet.applied_ts[r], &out)) {
      return out;
    }
    return Status::NotFound("key not found (stale replica read)");
  }
  return Status::Unavailable(
      "no replica reachable within the staleness bound");
}

void DistributedEngine::CatchUpReplicas() {
  for (int p = 0; p < options_.num_partitions; ++p) {
    Tablet& tablet = *tablets_[p];
    std::lock_guard<std::mutex> lock(tablet.mu);
    std::vector<int> nodes = ReplicaNodes(p);
    int leader_node = nodes[tablet.leader_r];
    for (int r = 0; r < rf_; ++r) {
      if (r == tablet.leader_r) continue;
      if (tablet.applied[r] >= tablet.log.size()) continue;
      if (!net_.Reachable(leader_node, nodes[r])) continue;
      size_t backlog = tablet.log.size() - tablet.applied[r];
      net_.Transfer(leader_node, nodes[r], 64 * backlog);
      ApplyLogLocked(tablet, r);
    }
  }
}

double DistributedEngine::SumWhere(int filter_col, CompareOp op,
                                   int64_t constant, int agg_col) {
  Timestamp read_ts = current_ts();
  std::vector<double> node_sums(options_.num_nodes, 0);
  std::vector<std::thread> workers;
  workers.reserve(options_.num_nodes);
  for (int node = 0; node < options_.num_nodes; ++node) {
    workers.emplace_back([&, node] {
      net_.Transfer(/*coordinator=*/0, node, 64);
      double sum = 0;
      for (int p = 0; p < options_.num_partitions; ++p) {
        if (LeaderNode(p) != node) continue;
        Tablet& tablet = *tablets_[p];
        ColumnTable* leader;
        {
          std::lock_guard<std::mutex> lock(tablet.mu);
          leader = tablet.replicas[tablet.leader_r].get();
        }
        ColumnTable::Snapshot snap = leader->GetSnapshot(read_ts);
        BitVector sel;
        std::vector<DeltaStore::ChunkRef> chunks;
        snap.ScanVisible(&sel, &chunks);
        // Main fragment: packed scan + gather.
        if (snap.main->num_rows() > 0) {
          BitVector hits;
          snap.main->column(filter_col)
              .ScanCompare(op, Value::Int64(constant), &hits);
          sel.And(hits);
          std::vector<double> vals;
          snap.main->column(agg_col).GatherDoubles(&sel, &vals, nullptr);
          for (double v : vals) sum += v;
        }
        // Delta chunks after the main, in walk order.
        for (const DeltaStore::ChunkRef& ref : chunks) {
          BitVector visible;
          ref.chunk->VisibleMask(ref.rows, read_ts, &visible);
          ref.chunk->column(filter_col)
              .Filter(op, Value::Int64(constant), &visible);
          const DeltaStore::Column& agg = ref.chunk->column(agg_col);
          for (size_t i = visible.FindNextSet(0); i < visible.size();
               i = visible.FindNextSet(i + 1)) {
            if (!agg.IsNull(i)) sum += agg.GetValue(i).AsDouble();
          }
        }
      }
      net_.Transfer(node, 0, 64);
      node_sums[node] = sum;
    });
  }
  for (std::thread& t : workers) t.join();
  double total = 0;
  for (double s : node_sums) total += s;
  return total;
}

size_t DistributedEngine::TotalRows() {
  Timestamp read_ts = current_ts();
  size_t total = 0;
  for (int p = 0; p < options_.num_partitions; ++p) {
    Tablet& tablet = *tablets_[p];
    ColumnTable* leader;
    {
      std::lock_guard<std::mutex> lock(tablet.mu);
      leader = tablet.replicas[tablet.leader_r].get();
    }
    BitVector sel;
    std::vector<DeltaStore::ChunkRef> chunks;
    leader->GetSnapshot(read_ts).ScanVisible(&sel, &chunks);
    total += sel.CountSet();
    for (const DeltaStore::ChunkRef& ref : chunks) {
      BitVector visible;
      ref.chunk->VisibleMask(ref.rows, read_ts, &visible);
      total += visible.CountSet();
    }
  }
  return total;
}

bool DistributedEngine::CheckReplicasConsistent() {
  Timestamp read_ts = current_ts();
  for (int p = 0; p < options_.num_partitions; ++p) {
    Tablet& tablet = *tablets_[p];
    std::vector<std::vector<Row>> contents(tablet.replicas.size());
    for (size_t r = 0; r < tablet.replicas.size(); ++r) {
      tablet.replicas[r]->GetSnapshot(read_ts).ScanVisible(
          [&](const Row& row) { contents[r].push_back(row); });
      std::sort(contents[r].begin(), contents[r].end(),
                [](const Row& a, const Row& b) {
                  return HashKeyOf(a) < HashKeyOf(b);
                });
    }
    for (size_t r = 1; r < contents.size(); ++r) {
      if (contents[r].size() != contents[0].size()) return false;
      for (size_t i = 0; i < contents[0].size(); ++i) {
        if (HashKeyOf(contents[r][i]) != HashKeyOf(contents[0][i])) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace oltap
