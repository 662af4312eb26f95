#include "txn/log_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "failpoint_fixture.h"
#include "storage/catalog.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"
#include "wal_record.h"

namespace oltap {
namespace {

constexpr Timestamp kFarFuture = 1'000'000;

Schema TestSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("s")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id) {
  return Row{Value::Int64(id), Value::String("v" + std::to_string(id))};
}

std::string InsertBody(uint64_t txn_id, Timestamp ts, int64_t id) {
  WalOp op;
  op.kind = WalOp::kInsert;
  op.table = "t";
  op.row = MakeRow(id);
  return CommitRecord(txn_id, ts, {op});
}

std::unique_ptr<Catalog> FreshCatalog() {
  auto catalog = std::make_unique<Catalog>();
  EXPECT_TRUE(
      catalog->CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  return catalog;
}

// Failpoint hygiene: no test may leak an armed site.
class LogWriterTest : public FailpointTest {};

// Runs writer->Commit(body) on a thread of its own; the status lands in
// *out once the commit is acked.
std::thread CommitAsync(LogWriter* writer, std::string body, Status* out) {
  return std::thread(
      [writer, out, b = std::move(body)]() mutable {
        *out = writer->Commit(std::move(b));
      });
}

// Queues commits i = first..last-1 (body InsertBody(i + 1, i + 1, i)) one
// at a time, each after the previous one is pending, so queue order is
// commit order.
void QueueInOrder(LogWriter* writer, int first, int last,
                  std::vector<std::thread>* threads,
                  std::vector<Status>* statuses) {
  for (int i = first; i < last; ++i) {
    const size_t before = writer->stats().pending;
    threads->push_back(
        CommitAsync(writer, InsertBody(i + 1, i + 1, i), &(*statuses)[i]));
    while (writer->stats().pending == before) std::this_thread::yield();
  }
}

void JoinAll(std::vector<std::thread>* threads) {
  for (std::thread& t : *threads) t.join();
}

// Commits that queue while a leader is held form ONE batch frame: one
// checksum, one entry in wal.batches — and replay still sees every commit.
TEST_F(LogWriterTest, GroupsSubmissionsIntoOneBatch) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 8;
  LogWriter writer(&wal, opts);

  // The first committer leads and is held before it takes its batch; the
  // other seven queue behind it and ride along.
  FailpointGate gate;
  ScopedFailpoint hold("logwriter.lead", gate.Config());
  std::vector<std::thread> threads;
  std::vector<Status> statuses(8);
  QueueInOrder(&writer, 0, 8, &threads, &statuses);
  gate.AwaitArrivals(1);
  gate.Open();
  JoinAll(&threads);
  for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(wal.num_records(), 8u);
  LogWriter::Stats stats = writer.stats();
  EXPECT_EQ(stats.commits, 8u);
  EXPECT_EQ(stats.batches, 1u) << "one full batch, one frame";

  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(wal.buffer(), catalog.get());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->txns_applied, 8u);
  EXPECT_FALSE(replay->truncated_tail);
  EXPECT_EQ(catalog->GetTable("t")->CountVisible(kFarFuture), 8u);
}

// A tear at a batch boundary fails EVERY commit in the batch — the single
// batch checksum means replay applies none of them, so no unacked prefix
// can resurrect — and the log seals.
TEST_F(LogWriterTest, TornBatchFailsEveryCommitNeverAPrefix) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 4;
  LogWriter writer(&wal, opts);

  FailpointConfig cfg;
  cfg.status = Status::Unavailable("injected torn batch");
  ScopedFailpoint armed("wal.batch.torn", cfg);

  FailpointGate gate;
  ScopedFailpoint hold("logwriter.lead", gate.Config());
  std::vector<std::thread> threads;
  std::vector<Status> statuses(4);
  QueueInOrder(&writer, 0, 4, &threads, &statuses);
  gate.Open();
  JoinAll(&threads);
  for (const Status& st : statuses) {
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
  EXPECT_EQ(writer.stats().batches, 1u);
  EXPECT_TRUE(wal.sealed());
  EXPECT_EQ(wal.num_records(), 0u);

  // The half-written batch is the crash artifact: replay must stop at it
  // and apply nothing.
  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(wal.buffer(), catalog.get());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->txns_applied, 0u);
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_EQ(catalog->GetTable("t")->CountVisible(kFarFuture), 0u);

  // The sealed log deterministically fails later commits — the writer
  // itself stays up.
  EXPECT_TRUE(writer.running());
  Status st = writer.Commit(InsertBody(9, 9, 9));
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
}

// A stalled fsync delays the batch but commits still succeed and are
// durable (latency fault, not a durability fault).
TEST_F(LogWriterTest, FsyncStallDelaysButCommits) {
  std::string path = ::testing::TempDir() + "/oltap_lw_stall_test.log";
  std::remove(path.c_str());
  Wal::Options wopts;
  wopts.fsync_on_commit = true;
  auto wal = Wal::OpenFile(path, wopts);
  ASSERT_TRUE(wal.ok());

  FailpointConfig cfg;
  cfg.status = Status::Unavailable("stall");
  ScopedFailpoint armed("wal.fsync.stall", cfg);

  LogWriter writer(wal->get());
  EXPECT_TRUE(writer.Commit(InsertBody(1, 1, 1)).ok());

  std::string disk;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    disk.append(chunk, n);
  }
  std::fclose(f);
  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(disk, catalog.get());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->txns_applied, 1u);
  std::remove(path.c_str());
}

// A leader crash fails the batch in its hand, later commits fail fast,
// and Restart() brings the subsystem back without losing the log.
TEST_F(LogWriterTest, CrashFailsInFlightThenRestartRecovers) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 4;
  LogWriter writer(&wal, opts);

  {
    FailpointConfig cfg;
    cfg.status = Status::Internal("injected writer crash");
    ScopedFailpoint armed("logwriter.crash", cfg);
    FailpointGate gate;
    ScopedFailpoint hold("logwriter.lead", gate.Config());
    std::vector<std::thread> threads;
    std::vector<Status> statuses(3);
    QueueInOrder(&writer, 0, 3, &threads, &statuses);
    gate.Open();
    JoinAll(&threads);
    for (const Status& st : statuses) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    }
  }
  EXPECT_FALSE(writer.running());
  EXPECT_EQ(writer.stats().crashes, 1u);
  EXPECT_EQ(wal.num_records(), 0u);

  // Crashed writer: fail fast, don't block the committer.
  Status st = writer.Commit(InsertBody(5, 5, 5));
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  ASSERT_TRUE(writer.Restart().ok());
  EXPECT_TRUE(writer.running());
  EXPECT_FALSE(writer.Restart().ok()) << "restart while running must fail";
  EXPECT_TRUE(writer.Commit(InsertBody(6, 6, 6)).ok());
  EXPECT_EQ(wal.num_records(), 1u);
}

// A crash in a leader that was handed leadership mid-chain fails that
// leader's batch and every commit queued behind it, while the batch before
// it stays durable; Restart resumes on the same log.
TEST_F(LogWriterTest, CrashMidLeaderFailsItsBatchAndTheQueue) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 2;
  LogWriter writer(&wal, opts);

  std::vector<Status> statuses(5);
  {
    // Batches are [0 1] [2 3] [4]: the first writes, the second's leader
    // (commit 2, handed leadership by commit 0) crashes with it in hand.
    FailpointConfig cfg;
    cfg.skip = 1;
    cfg.status = Status::Internal("injected writer crash");
    ScopedFailpoint armed("logwriter.crash", cfg);
    FailpointGate gate;
    ScopedFailpoint hold("logwriter.lead", gate.Config());
    std::vector<std::thread> threads;
    QueueInOrder(&writer, 0, 5, &threads, &statuses);
    gate.Open();
    JoinAll(&threads);
  }
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(statuses[i].code(), StatusCode::kInternal)
        << i << ": " << statuses[i].ToString();
  }
  EXPECT_FALSE(writer.running());
  EXPECT_EQ(writer.stats().pending, 0u);
  EXPECT_EQ(writer.MinPendingCommitTs(), kMaxTimestamp);
  LogWriter::Stats stats = writer.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(wal.num_records(), 2u);

  ASSERT_TRUE(writer.Restart().ok());
  EXPECT_TRUE(writer.Commit(InsertBody(6, 6, 5)).ok());
  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(wal.buffer(), catalog.get());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->txns_applied, 3u);
  EXPECT_FALSE(replay->truncated_tail);
}

// The batch a leader is writing stays pinned: its bodies have left the
// queue but are not durable yet, so MinPendingCommitTs still reports them.
TEST_F(LogWriterTest, MinPendingCommitTsPinsTheBatchBeingWritten) {
  Wal wal;
  LogWriter writer(&wal);
  EXPECT_EQ(writer.MinPendingCommitTs(), kMaxTimestamp);

  // Hold the leader inside its append (the batch-tear site, armed to
  // inject nothing), with commit ts 7 in hand.
  FailpointGate gate;
  ScopedFailpoint hold("wal.batch.torn", gate.Config());
  Status status;
  std::thread leader = CommitAsync(&writer, InsertBody(1, 7, 1), &status);
  gate.AwaitArrivals(1);
  EXPECT_EQ(writer.stats().pending, 1u);
  EXPECT_EQ(writer.MinPendingCommitTs(), 7u);
  gate.Open();
  leader.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(writer.MinPendingCommitTs(), kMaxTimestamp);
  EXPECT_EQ(wal.num_records(), 1u);
}

// Stop() drains queued commits into durable batches.
TEST_F(LogWriterTest, StopDrainsQueuedCommits) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 4;
  LogWriter writer(&wal, opts);

  // Ten commits queue behind a held leader, then Stop() begins: it must
  // wait for all ten, written as [0-3] [4-7] [8 9].
  FailpointGate gate;
  ScopedFailpoint hold("logwriter.lead", gate.Config());
  std::vector<std::thread> threads;
  std::vector<Status> statuses(10);
  QueueInOrder(&writer, 0, 10, &threads, &statuses);
  std::thread stopper([&] { writer.Stop(); });
  while (writer.running()) std::this_thread::yield();
  gate.Open();
  stopper.join();
  JoinAll(&threads);
  for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(wal.num_records(), 10u);
  EXPECT_EQ(writer.stats().batches, 3u);
  EXPECT_FALSE(writer.running());

  Status st = writer.Commit(InsertBody(99, 99, 99));
  EXPECT_TRUE(st.IsUnavailable());
}

// Eight committers at max_batch 2 force leadership to change hands: every
// commit is acked, replays, and is visible.
TEST_F(LogWriterTest, LeaderHandOffAcksEveryCommit) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  const size_t ddl_records = wal.num_records();

  LogWriter::Options opts;
  opts.max_batch = 2;
  LogWriter writer(&wal, opts);
  tm.SetLogWriter(&writer);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        auto t = tm.Begin();
        ASSERT_TRUE(t->Insert(table, MakeRow(w * kPerThread + i)).ok());
        ASSERT_TRUE(tm.Commit(t.get()).ok());
      }
    });
  }
  JoinAll(&threads);
  tm.SetLogWriter(nullptr);
  writer.Stop();

  constexpr size_t kTotal = kThreads * kPerThread;
  LogWriter::Stats stats = writer.stats();
  EXPECT_EQ(stats.commits, kTotal);
  EXPECT_GE(stats.batches, kTotal / 2);
  EXPECT_EQ(wal.num_records(), ddl_records + kTotal);
  EXPECT_EQ(table->CountVisible(kFarFuture), kTotal);

  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(wal.buffer(), catalog.get());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(catalog->GetTable("t")->CountVisible(kFarFuture), kTotal);
  EXPECT_FALSE(replay->truncated_tail);
}

// The full ack contract through TransactionManager: concurrent committers
// route durability through the writer, every acked commit is visible to
// the committer's next snapshot AND survives replay into a fresh catalog.
TEST_F(LogWriterTest, ConcurrentCommitsThroughManagerAckDurableAndVisible) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");

  LogWriter::Options opts;
  opts.max_batch = 16;
  LogWriter writer(&wal, opts);
  tm.SetLogWriter(&writer);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t id = w * kPerThread + i;
        auto t = tm.Begin();
        ASSERT_TRUE(t->Insert(table, MakeRow(id)).ok());
        ASSERT_TRUE(tm.Commit(t.get()).ok());
        // Read-your-writes: the ack means a new snapshot sees the row.
        auto t2 = tm.Begin();
        Row out;
        EXPECT_TRUE(t2->GetByRow(table, MakeRow(id), &out)) << id;
        tm.Abort(t2.get());
      }
    });
  }
  for (auto& t : threads) t.join();
  tm.SetLogWriter(nullptr);
  writer.Stop();

  EXPECT_EQ(wal.num_records(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(table->CountVisible(kFarFuture),
            static_cast<size_t>(kThreads * kPerThread));

  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(wal.buffer(), catalog.get());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->txns_applied, static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(catalog->GetTable("t")->CountVisible(kFarFuture),
            static_cast<size_t>(kThreads * kPerThread));
}

// A torn batch under the manager: both commits of the doomed batch — the
// leader's and a follower's — return the error and apply nothing, and the
// engine's sealed-log state is surfaced to later commits as kUnavailable.
TEST_F(LogWriterTest, TornBatchThroughManagerAppliesNothing) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  Catalog scratch;
  ASSERT_TRUE(scratch.CreateTable("u", TestSchema(), TableFormat::kRow).ok());
  auto insert = tm.Begin();
  ASSERT_TRUE(insert->Insert(table, MakeRow(0)).ok());

  LogWriter writer(&wal);
  tm.SetLogWriter(&writer);

  {
    FailpointConfig cfg;
    cfg.status = Status::Unavailable("injected torn batch");
    ScopedFailpoint armed("wal.batch.torn", cfg);
    // A DDL commit leads and is held before it takes its batch. It holds
    // no key stripe, so the insert cannot block behind it: the insert
    // queues as a follower and rides in the same torn batch.
    FailpointGate gate;
    ScopedFailpoint hold("logwriter.lead", gate.Config());
    bool created = false;
    Status ddl_status;
    std::thread leader([&] {
      ddl_status = tm.CommitDdl(WalOp::CreateTable(*scratch.GetTable("u")),
                                [&] {
                                  created = true;
                                  return Status::OK();
                                });
    });
    gate.AwaitArrivals(1);
    Status insert_status;
    std::thread follower([&] { insert_status = tm.Commit(insert.get()); });
    while (writer.stats().pending < 2) std::this_thread::yield();
    gate.Open();
    leader.join();
    follower.join();
    EXPECT_TRUE(ddl_status.IsUnavailable()) << ddl_status.ToString();
    EXPECT_FALSE(created) << "failed DDL must not apply";
    EXPECT_TRUE(insert_status.IsUnavailable()) << insert_status.ToString();
  }
  LogWriter::Stats stats = writer.stats();
  EXPECT_EQ(stats.batches, 1u) << "both commits shared the torn batch";
  EXPECT_TRUE(wal.sealed());
  EXPECT_EQ(table->CountVisible(kFarFuture), 0u)
      << "failed batch must not apply";

  // Sealed log: the next commit fails deterministically, up front.
  auto t = tm.Begin();
  ASSERT_TRUE(t->Insert(table, MakeRow(7)).ok());
  EXPECT_TRUE(tm.Commit(t.get()).IsUnavailable());

  tm.SetLogWriter(nullptr);
  writer.Stop();
}

// A write set larger than one WAL record holds (its op count is a u16) is
// refused before anything is logged or applied — never logged with a
// wrapped count, which would ack a commit recovery cannot see.
TEST_F(LogWriterTest, OversizedCommitIsRefusedNotTruncated) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  LogWriter writer(&wal);
  tm.SetLogWriter(&writer);
  const size_t ddl_records = wal.num_records();

  constexpr int64_t kRows = 65536;  // kMaxOps + 1: a u16 count wraps to 0
  auto t = tm.Begin();
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->Insert(table, MakeRow(i)).ok());
  }
  Status st = tm.Commit(t.get());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(wal.num_records(), ddl_records);
  EXPECT_EQ(table->CountVisible(kFarFuture), 0u);

  // The largest write set one record holds commits and replays.
  auto fit = tm.Begin();
  for (int64_t i = 0; i < static_cast<int64_t>(Wal::CommitBody::kMaxOps);
       ++i) {
    ASSERT_TRUE(fit->Insert(table, MakeRow(i)).ok());
  }
  ASSERT_TRUE(tm.Commit(fit.get()).ok());
  tm.SetLogWriter(nullptr);
  writer.Stop();
  auto catalog = FreshCatalog();
  auto replay = Wal::Replay(wal.buffer(), catalog.get());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->truncated_tail);
  EXPECT_EQ(catalog->GetTable("t")->CountVisible(kFarFuture),
            Wal::CommitBody::kMaxOps);
}

}  // namespace
}  // namespace oltap
