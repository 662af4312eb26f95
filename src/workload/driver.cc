#include "workload/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/hash.h"
#include "sched/merge_daemon.h"
#include "storage/column_store.h"
#include "storage/freshness.h"
#include "txn/checkpoint_daemon.h"
#include "txn/log_writer.h"
#include "txn/wal.h"

namespace oltap {

const char* TxnKindToString(TxnKind k) {
  switch (k) {
    case TxnKind::kNewOrder:
      return "new_order";
    case TxnKind::kPayment:
      return "payment";
    case TxnKind::kOrderStatus:
      return "order_status";
    case TxnKind::kDelivery:
      return "delivery";
    case TxnKind::kStockLevel:
      return "stock_level";
  }
  return "unknown";
}

ConcurrentDriver::ConcurrentDriver(CHBenchmark* bench,
                                   const DriverOptions& options)
    : bench_(bench), options_(options) {}

uint64_t ConcurrentDriver::OpSeed(uint64_t driver_seed, size_t worker,
                                  size_t index) {
  return Mix64(driver_seed ^ Mix64((static_cast<uint64_t>(worker) << 32) |
                                   static_cast<uint64_t>(index)));
}

TxnKind ConcurrentDriver::KindFor(uint64_t op_seed) {
  // First draw of the op's private Rng, mapped through the TPC-C mix
  // (45/43/4/4/4). ExecuteOp consumes the same draw before the argument
  // draws, so stream construction and execution stay in lockstep.
  Rng rng(op_seed);
  uint64_t pick = rng.Uniform(100);
  if (pick < 45) return TxnKind::kNewOrder;
  if (pick < 88) return TxnKind::kPayment;
  if (pick < 92) return TxnKind::kOrderStatus;
  if (pick < 96) return TxnKind::kDelivery;
  return TxnKind::kStockLevel;
}

std::vector<TxnOp> ConcurrentDriver::MakeStream(uint64_t driver_seed,
                                                size_t worker, size_t ops) {
  std::vector<TxnOp> stream;
  stream.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    uint64_t s = OpSeed(driver_seed, worker, i);
    stream.push_back(TxnOp{KindFor(s), s});
  }
  return stream;
}

void ConcurrentDriver::ExecuteOp(const TxnOp& op, int64_t home_w,
                                 WorkerResult* result) {
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    // Fresh Rng per attempt: a retried op replays the *same* arguments
    // instead of continuing the stream (determinism under aborts).
    Rng rng(op.seed);
    (void)rng.Uniform(100);  // the kind draw; already resolved into op.kind
    Status st;
    NewOrderAck ack;
    switch (op.kind) {
      case TxnKind::kNewOrder:
        st = bench_->NewOrder(&rng, home_w, &ack);
        if (st.ok()) {
          ++result->stats.new_order;
          if (options_.audit_commits) result->acks.push_back(ack);
        }
        break;
      case TxnKind::kPayment:
        st = bench_->Payment(&rng, home_w);
        if (st.ok()) ++result->stats.payment;
        break;
      case TxnKind::kOrderStatus:
        st = bench_->OrderStatus(&rng, home_w);
        if (st.ok()) ++result->stats.order_status;
        break;
      case TxnKind::kDelivery:
        st = bench_->Delivery(&rng, home_w);
        if (st.ok()) ++result->stats.delivery;
        break;
      case TxnKind::kStockLevel:
        st = bench_->StockLevel(&rng, home_w);
        if (st.ok()) ++result->stats.stock_level;
        break;
    }
    if (st.ok()) return;
    if (st.code() == StatusCode::kAborted) {
      ++result->stats.aborts;
      continue;
    }
    ++result->failed;
    return;
  }
  // Every attempt aborted: count the op as failed so it still shows up in
  // the ledger (total committed + failed == ops issued) instead of
  // vanishing from every counter except aborts.
  ++result->failed;
}

DriverReport ConcurrentDriver::Run() {
  const size_t wm_workers =
      options_.wm_workers != 0 ? options_.wm_workers
                               : options_.oltp_workers + options_.olap_workers;
  WorkloadManager::Options wm_opts;
  wm_opts.num_workers = wm_workers;
  wm_opts.policy = options_.policy;
  wm_opts.reserved_oltp_workers =
      std::min(options_.oltp_workers, wm_workers > 1 ? wm_workers - 1 : 1);
  wm_opts.max_parallel_dop = options_.olap_max_dop;
  wm_opts.degraded_dop = options_.degraded_dop;
  wm_opts.olap_degrade_threshold = options_.olap_degrade_threshold;
  WorkloadManager wm(wm_opts);

  std::unique_ptr<MergeDaemon> merger;
  if (options_.run_merge_daemon) {
    MergeDaemon::Options mopts;
    mopts.delta_row_threshold = options_.merge_delta_threshold;
    mopts.interval_ms = options_.merge_interval_ms;
    mopts.autostart = false;
    merger = std::make_unique<MergeDaemon>(bench_->db()->catalog(),
                                           bench_->db()->txn_manager(), mopts);
    // Ticks also maintain DEFERRED materialized views and respect the
    // view GC horizon.
    merger->set_view_manager(bench_->db()->view_manager());
    merger->Start();
  }

  const int64_t duration_us = options_.duration_ms * 1000;
  const int64_t num_warehouses = bench_->config().warehouses;

  DriverReport report;
  report.workers.resize(options_.oltp_workers);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> olap_completed{0};
  std::atomic<uint64_t> olap_failed{0};

  // Group commit for the duration of the run: the driver owns the writer,
  // the transaction manager routes commit durability through it.
  Wal* wal = bench_->db()->wal();
  std::unique_ptr<LogWriter> log_writer;
  if (options_.group_commit && wal != nullptr) {
    LogWriter::Options lw_opts;
    lw_opts.max_batch = options_.group_max_batch;
    log_writer = std::make_unique<LogWriter>(wal, lw_opts);
    bench_->db()->txn_manager()->SetLogWriter(log_writer.get());
  }

  // Online checkpointing for the run: the database's own daemon (so SQL
  // CHECKPOINT and SHOW STATS see the same instance), armed with the
  // driver's triggers. Started after the log writer is installed, so the
  // unacked-batch truncation pin is live from the first round.
  CheckpointDaemon* checkpointer = nullptr;
  if (options_.run_checkpoint_daemon) {
    if (wal != nullptr && options_.wal_segment_bytes > 0) {
      wal->set_segment_bytes(options_.wal_segment_bytes);
    }
    checkpointer = bench_->db()->EnsureCheckpointer();
    checkpointer->set_interval_us(options_.checkpoint_interval_us);
    checkpointer->set_wal_trigger_bytes(options_.checkpoint_wal_trigger_bytes);
    checkpointer->set_truncate_wal(options_.checkpoint_truncate_wal);
    checkpointer->Start();
  }

  // A sealed WAL dooms every future commit; clients that observe it stop
  // issuing ops and the run reports a clear abort instead of grinding
  // every remaining op through its retry budget.
  std::atomic<bool> run_aborted{false};
  auto abort_run_if_sealed = [&] {
    if (!options_.abort_on_sealed_wal || wal == nullptr) return false;
    if (!wal->sealed()) return false;
    if (!run_aborted.exchange(true, std::memory_order_acq_rel)) {
      report.abort_reason =
          "WAL sealed mid-run (torn append): later commits cannot become "
          "durable";
    }
    return true;
  };

  Stopwatch sw;

  // Closed-loop OLTP clients: one in-flight transaction each, submitted
  // through admission control, then think time.
  std::vector<std::thread> oltp_threads;
  oltp_threads.reserve(options_.oltp_workers);
  for (size_t worker = 0; worker < options_.oltp_workers; ++worker) {
    oltp_threads.emplace_back([&, worker] {
      WorkerResult* result = &report.workers[worker];
      int64_t home_w = 0;
      if (options_.bind_home_warehouse) {
        home_w = static_cast<int64_t>(worker % num_warehouses) + 1;
      }
      for (size_t index = 0;; ++index) {
        if (run_aborted.load(std::memory_order_acquire)) break;
        if (duration_us > 0) {
          if (sw.ElapsedMicros() >= duration_us) break;
        } else if (index >= options_.ops_per_worker) {
          break;
        }
        uint64_t s = OpSeed(options_.seed, worker, index);
        TxnOp op{KindFor(s), s};
        bool executed = false;
        std::future<Status> done =
            wm.Submit(QueryClass::kOltp, [&, op] {
              executed = true;
              ExecuteOp(op, home_w, result);
            });
        Status st = done.get();
        ++result->ops_issued;
        if (!st.ok() && !executed) ++result->failed;
        if (abort_run_if_sealed()) break;
        if (options_.think_time_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(options_.think_time_us));
        }
      }
    });
  }

  // OLAP clients: cycle the CH query set (staggered starting points so two
  // clients do not run the same query in lockstep). At least one query per
  // client even in very short fixed-ops runs.
  const size_t num_queries = CHBenchmark::Queries().size();
  std::vector<std::thread> olap_threads;
  olap_threads.reserve(options_.olap_workers);
  for (size_t worker = 0; worker < options_.olap_workers; ++worker) {
    olap_threads.emplace_back([&, worker] {
      size_t qi = (worker * 7) % num_queries;
      do {
        size_t q = qi;
        // Budgeted submission: the admission grant caps the query's
        // degree of parallelism (degraded admissions run serial), so
        // overload throttles analytic DOP before shedding.
        WorkloadManager::Submission sub = wm.SubmitBudgeted(
            QueryClass::kOlap, WorkloadManager::QuerySpec{},
            [&, q](const CancellationToken&, const QueryGrant& grant) {
              auto res = bench_->RunQuery(q, &grant);
              return res.ok() ? Status::OK() : res.status();
            });
        Status st = sub.done.get();
        if (st.ok()) {
          olap_completed.fetch_add(1, std::memory_order_relaxed);
        } else {
          olap_failed.fetch_add(1, std::memory_order_relaxed);
        }
        qi = (qi + 1) % num_queries;
        if (duration_us > 0 && sw.ElapsedMicros() >= duration_us) break;
      } while (!stop.load(std::memory_order_acquire) &&
               !run_aborted.load(std::memory_order_acquire));
    });
  }

  for (auto& t : oltp_threads) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : olap_threads) t.join();
  wm.Drain();

  report.duration_s = sw.ElapsedSeconds();

  if (merger != nullptr) {
    merger->Stop();
    report.merges = merger->merges_performed();
  }

  // Checkpointer stops after the merge daemon (its snapshot pin is gone,
  // so a final merge round is unconstrained) and before the log writer
  // (truncation only drops segments below the writer's pending pin, but
  // stopping in this order means the last round sees a quiesced queue).
  if (checkpointer != nullptr) {
    checkpointer->Stop();
    CheckpointDaemon::Stats cs = checkpointer->stats();
    report.checkpoints = cs.written;
    report.checkpoint_age_us =
        checkpointer->AgeMicros(SystemClock::Get()->NowMicros());
    report.wal_truncated_bytes = cs.truncated_bytes;
  }
  if (wal != nullptr) {
    report.wal_segments = wal->num_segments();
    report.wal_retained_bytes = wal->size();
  }

  // Shutdown ordering for group commit: clients joined, admission queues
  // drained, merge daemon stopped — nothing can submit a commit anymore —
  // so the writer's final batch drains (or deterministically fails, if
  // the log sealed) before it is detached and destroyed.
  if (log_writer != nullptr) {
    log_writer->Stop();
    bench_->db()->txn_manager()->SetLogWriter(nullptr);
    log_writer.reset();
  }
  report.aborted = run_aborted.load(std::memory_order_acquire);

  for (const WorkerResult& w : report.workers) {
    report.txns.Accumulate(w.stats);
    report.oltp_failed += w.failed;
  }
  report.olap_completed = olap_completed.load(std::memory_order_relaxed);
  report.olap_failed = olap_failed.load(std::memory_order_relaxed);
  if (report.duration_s > 0) {
    report.oltp_txn_per_s = report.txns.total() / report.duration_s;
    report.olap_queries_per_s = report.olap_completed / report.duration_s;
  }
  uint64_t attempts = report.txns.total() + report.txns.aborts;
  report.abort_rate =
      attempts > 0 ? static_cast<double>(report.txns.aborts) / attempts : 0;
  report.oltp_latency = wm.StatsFor(QueryClass::kOltp);
  report.olap_latency = wm.StatsFor(QueryClass::kOlap);

  // Freshness lag at run end: oldest unmerged delta across the TPC-C
  // tables (same quantity merge_daemon / SHOW STATS publish).
  int64_t now_us = SystemClock::Get()->NowMicros();
  report.freshness_lag_us =
      ProbeFreshness(*bench_->db()->catalog(), now_us).max_lag_us;
  return report;
}

}  // namespace oltap
