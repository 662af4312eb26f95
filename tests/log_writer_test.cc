#include "txn/log_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "storage/catalog.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

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
  return Wal::SerializeCommitBody(txn_id, ts, {op});
}

std::unique_ptr<Catalog> FreshCatalog() {
  auto catalog = std::make_unique<Catalog>();
  EXPECT_TRUE(
      catalog->CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  return catalog;
}

// Failpoint hygiene: no test may leak an armed site.
class LogWriterTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EXPECT_TRUE(FailpointRegistry::Get().ActiveList().empty());
    FailpointRegistry::Get().DisableAll();
  }
};

// Submissions inside one persist interval land in ONE batch frame: one
// checksum, one entry in wal.batches — and replay still sees every commit.
TEST_F(LogWriterTest, GroupsSubmissionsIntoOneBatch) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 8;
  opts.persist_interval_us = 500'000;  // generous window; the 8th submit fills
                                       // the batch and fires it early
  LogWriter writer(&wal, opts);

  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(writer.SubmitCommit(InsertBody(i + 1, i + 1, i)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

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
  opts.persist_interval_us = 500'000;
  LogWriter writer(&wal, opts);

  FailpointConfig cfg;
  cfg.status = Status::Unavailable("injected torn batch");
  ScopedFailpoint armed("wal.batch.torn", cfg);

  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(writer.SubmitCommit(InsertBody(i + 1, i + 1, i)));
  }
  for (auto& f : futures) {
    Status st = f.get();
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
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

  // The sealed log deterministically fails later submissions — the writer
  // itself stays up.
  EXPECT_TRUE(writer.running());
  Status st = writer.SubmitCommit(InsertBody(9, 9, 9)).get();
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

  LogWriter::Options opts;
  opts.persist_interval_us = 0;
  LogWriter writer(wal->get(), opts);
  EXPECT_TRUE(writer.SubmitCommit(InsertBody(1, 1, 1)).get().ok());

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

// A writer-thread crash fails the in-hand batch and everything queued
// behind it, later submissions fail fast, and Restart() brings the
// subsystem back without losing the log.
TEST_F(LogWriterTest, CrashFailsInFlightThenRestartRecovers) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 4;
  opts.persist_interval_us = 100'000;
  LogWriter writer(&wal, opts);

  std::vector<std::future<Status>> futures;
  {
    FailpointConfig cfg;
    cfg.status = Status::Internal("injected writer crash");
    ScopedFailpoint armed("logwriter.crash", cfg);
    for (int i = 0; i < 3; ++i) {
      futures.push_back(writer.SubmitCommit(InsertBody(i + 1, i + 1, i)));
    }
    for (auto& f : futures) {
      Status st = f.get();
      EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    }
  }
  EXPECT_FALSE(writer.running());
  EXPECT_EQ(writer.stats().crashes, 1u);
  EXPECT_EQ(wal.num_records(), 0u);

  // Dead writer: fail fast, don't block the committer.
  Status st = writer.SubmitCommit(InsertBody(5, 5, 5)).get();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  ASSERT_TRUE(writer.Restart().ok());
  EXPECT_TRUE(writer.running());
  EXPECT_FALSE(writer.Restart().ok()) << "restart while running must fail";
  EXPECT_TRUE(writer.SubmitCommit(InsertBody(6, 6, 6)).get().ok());
  EXPECT_EQ(wal.num_records(), 1u);
}

// Stop() drains queued commits into a final durable batch.
TEST_F(LogWriterTest, StopDrainsQueuedCommits) {
  Wal wal;
  LogWriter::Options opts;
  opts.max_batch = 4;
  opts.persist_interval_us = 50'000;
  LogWriter writer(&wal, opts);

  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(writer.SubmitCommit(InsertBody(i + 1, i + 1, i)));
  }
  writer.Stop();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(wal.num_records(), 10u);
  EXPECT_FALSE(writer.running());

  Status st = writer.SubmitCommit(InsertBody(99, 99, 99)).get();
  EXPECT_TRUE(st.IsUnavailable());
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
  opts.persist_interval_us = 100;
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

// A torn batch under the manager: every commit in the doomed batch returns
// the error, applies nothing, and the engine's sealed-log state is
// surfaced to later commits as kUnavailable.
TEST_F(LogWriterTest, TornBatchThroughManagerAppliesNothing) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");

  LogWriter::Options opts;
  opts.max_batch = 64;
  opts.persist_interval_us = 20'000;  // wide window: both commits batch
  LogWriter writer(&wal, opts);
  tm.SetLogWriter(&writer);

  {
    FailpointConfig cfg;
    cfg.status = Status::Unavailable("injected torn batch");
    ScopedFailpoint armed("wal.batch.torn", cfg);
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
      threads.emplace_back([&, w] {
        auto t = tm.Begin();
        ASSERT_TRUE(t->Insert(table, MakeRow(w)).ok());
        Status st = tm.Commit(t.get());
        EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
      });
    }
    for (auto& t : threads) t.join();
  }
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

}  // namespace
}  // namespace oltap
