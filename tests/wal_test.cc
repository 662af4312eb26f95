#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "storage/catalog.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"
#include "wal_record.h"

namespace oltap {
namespace {

Schema TestSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("s")
      .AddDouble("d")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id, const std::string& s, double d) {
  return Row{Value::Int64(id), Value::String(s), Value::Double(d)};
}

// The bytes a file-backed log left on disk.
std::string ReadFile(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  std::fclose(f);
  return data;
}

TEST(WalTest, LogAndReplayRoundTrip) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");

  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(1, "one", 1.5)).ok());
    ASSERT_TRUE(t->Insert(table, MakeRow(2, "two", 2.5)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Update(table, MakeRow(1, "uno", 1.5)).ok());
    ASSERT_TRUE(t->Delete(table, MakeRow(2, "", 0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  EXPECT_EQ(wal.num_records(), 2u);

  // Replay into a fresh catalog; state must match.
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(wal.buffer(), &recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 2u);
  EXPECT_EQ(stats->ops_applied, 4u);
  EXPECT_FALSE(stats->truncated_tail);

  Table* rt = recovered.GetTable("t");
  Timestamp late = 1'000'000;
  Row out;
  ASSERT_TRUE(rt->Lookup(EncodeKey(rt->schema(), MakeRow(1, "", 0)), late,
                         &out));
  EXPECT_EQ(out[1].AsString(), "uno");
  EXPECT_FALSE(rt->Lookup(EncodeKey(rt->schema(), MakeRow(2, "", 0)), late,
                          &out));
  EXPECT_EQ(rt->CountVisible(late), 1u);
}

TEST(WalTest, NullValuesSurviveRoundTrip) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, Row{Value::Int64(1), Value::Null(ValueType::kString),
                                     Value::Null(ValueType::kDouble)})
                    .ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  ASSERT_TRUE(Wal::Replay(wal.buffer(), &recovered).ok());
  Row out;
  Table* rt = recovered.GetTable("t");
  ASSERT_TRUE(rt->Lookup(EncodeKey(rt->schema(), MakeRow(1, "", 0)),
                         1'000'000, &out));
  EXPECT_TRUE(out[1].is_null());
  EXPECT_TRUE(out[2].is_null());
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  for (int i = 0; i < 3; ++i) {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(i, "x", 0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  std::string data = wal.buffer();
  // Chop mid-record: replay applies the full records and reports the tear.
  std::string torn = data.substr(0, data.size() - 7);
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(torn, &recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_applied, 2u);
  EXPECT_TRUE(stats->truncated_tail);
}

TEST(WalTest, CorruptRecordDetectedByChecksum) {
  Wal wal;
  ASSERT_TRUE(LogOps(&wal, 1, 10,
                     {WalOp{WalOp::kInsert, "t", "", MakeRow(1, "x", 0)}})
                  .ok());
  std::string data = wal.buffer();
  data[data.size() / 2] ^= 0x40;  // flip a bit in the body
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(data, &recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_applied, 0u);
  EXPECT_TRUE(stats->truncated_tail);
}

TEST(WalTest, FileBackedLogReplays) {
  std::string path = ::testing::TempDir() + "/oltap_wal_test.log";
  std::remove(path.c_str());
  {
    auto wal = Wal::OpenFile(path);
    ASSERT_TRUE(wal.ok());
    Catalog source;
    ASSERT_TRUE(
        source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
    TransactionManager tm(&source, wal->get());
    Table* table = source.GetTable("t");
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(9, "file", 9.9)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(ReadFile(path), &recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 1u);
  Table* rt = recovered.GetTable("t");
  Row out;
  EXPECT_TRUE(rt->Lookup(EncodeKey(rt->schema(), MakeRow(9, "", 0)),
                         1'000'000, &out));
  std::remove(path.c_str());
}

TEST(WalTest, FsyncOnCommitPathIsDurable) {
  std::string path = ::testing::TempDir() + "/oltap_wal_fsync_test.log";
  std::remove(path.c_str());
  {
    Wal::Options wopts;
    wopts.fsync_on_commit = true;
    auto wal = Wal::OpenFile(path, wopts);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    Catalog source;
    ASSERT_TRUE(
        source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
    TransactionManager tm(&source, wal->get());
    Table* table = source.GetTable("t");
    for (int i = 0; i < 5; ++i) {
      auto t = tm.Begin();
      ASSERT_TRUE(t->Insert(table, MakeRow(i, "sync", i * 1.0)).ok());
      ASSERT_TRUE(tm.Commit(t.get()).ok());
    }
  }
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(ReadFile(path), &recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 5u);
  EXPECT_EQ(recovered.GetTable("t")->CountVisible(1'000'000), 5u);
  std::remove(path.c_str());
}

TEST(WalTest, InjectedAppendErrorFailsCommitCleanly) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");

  FailpointConfig cfg;
  cfg.status = Status::Unavailable("injected WAL write error");
  ScopedFailpoint armed("wal.append.error", cfg);
  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(1, "lost", 0)).ok());
    Status st = tm.Commit(t.get());
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
  // The commit failed at the durability point: nothing was logged and
  // nothing is visible.
  EXPECT_EQ(wal.num_records(), 0u);
  EXPECT_EQ(table->CountVisible(1'000'000), 0u);

  // The engine keeps working once the fault passes (max_fires=1).
  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(2, "kept", 0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  EXPECT_EQ(wal.num_records(), 1u);
  EXPECT_EQ(table->CountVisible(1'000'000), 1u);

  // Replay reflects only the surviving commit.
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(wal.buffer(), &recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_applied, 1u);
  Row out;
  EXPECT_TRUE(recovered.GetTable("t")->Lookup(
      EncodeKey(table->schema(), MakeRow(2, "", 0)), 1'000'000, &out));
}

TEST(WalTest, InjectedFsyncErrorSurfacesThroughCommit) {
  std::string path = ::testing::TempDir() + "/oltap_wal_fsyncfail_test.log";
  std::remove(path.c_str());
  Wal::Options wopts;
  wopts.fsync_on_commit = true;
  auto wal = Wal::OpenFile(path, wopts);
  ASSERT_TRUE(wal.ok());
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, wal->get());
  Table* table = source.GetTable("t");

  FailpointConfig cfg;
  cfg.status = Status::Unavailable("injected fsync failure");
  ScopedFailpoint armed("wal.fsync.error", cfg);
  auto t = tm.Begin();
  ASSERT_TRUE(t->Insert(table, MakeRow(1, "x", 0)).ok());
  Status st = tm.Commit(t.get());
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(table->CountVisible(1'000'000), 0u);
  // The failed record was trimmed back off the log, so the engine keeps
  // working and recovery cannot resurrect the transaction the client was
  // told failed.
  EXPECT_FALSE((*wal)->sealed());
  EXPECT_EQ((*wal)->num_records(), 0u);

  auto t2 = tm.Begin();
  ASSERT_TRUE(t2->Insert(table, MakeRow(2, "y", 0)).ok());
  EXPECT_TRUE(tm.Commit(t2.get()).ok());

  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(ReadFile(path), &recovered);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 1u);
  EXPECT_FALSE(stats->truncated_tail);
  Row out;
  EXPECT_FALSE(recovered.GetTable("t")->Lookup(
      EncodeKey(table->schema(), MakeRow(1, "", 0)), 1'000'000, &out));
  EXPECT_TRUE(recovered.GetTable("t")->Lookup(
      EncodeKey(table->schema(), MakeRow(2, "", 0)), 1'000'000, &out));
  std::remove(path.c_str());
}

TEST(WalTest, TornAppendLeavesReplayablePrefix) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  for (int i = 0; i < 2; ++i) {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(i, "pre", 0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }

  FailpointConfig cfg;
  cfg.status = Status::Unavailable("injected torn append");
  ScopedFailpoint armed("wal.append.torn", cfg);
  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(99, "torn", 0)).ok());
    EXPECT_TRUE(tm.Commit(t.get()).IsUnavailable());
  }

  // The tear seals the log: a commit appended after the partial record
  // would be acknowledged but unreachable by replay, so it must fail.
  EXPECT_TRUE(wal.sealed());
  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(100, "after", 0)).ok());
    EXPECT_TRUE(tm.Commit(t.get()).IsUnavailable());
  }

  // The half-written record is on "disk": replay applies the intact
  // prefix, reports the tear, and never applies the torn transaction.
  Catalog recovered;
  ASSERT_TRUE(
      recovered.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(wal.buffer(), &recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_applied, 2u);
  EXPECT_TRUE(stats->truncated_tail);
  Row out;
  EXPECT_FALSE(recovered.GetTable("t")->Lookup(
      EncodeKey(table->schema(), MakeRow(99, "", 0)), 1'000'000, &out));
}

TEST(WalTest, ReplayUnknownTableFails) {
  Wal wal;
  ASSERT_TRUE(
      LogOps(&wal, 1, 10, {WalOp{WalOp::kInsert, "nope", "", Row{}}}).ok());
  Catalog empty;
  auto stats = Wal::Replay(wal.buffer(), &empty);
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsNotFound());
}

// CREATE TABLE records carry the catalog: replay into an empty catalog
// creates each table, format and key included, then applies its rows.
TEST(WalTest, CreateTableRecordsReplayIntoEmptyCatalog) {
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  ASSERT_TRUE(source.CreateTable("r", TestSchema(), TableFormat::kRow).ok());
  Wal wal;
  ASSERT_TRUE(LogOps(&wal, 1, 1, {WalOp::CreateTable(*source.GetTable("t"))})
                  .ok());
  ASSERT_TRUE(LogOps(&wal, 2, 2, {WalOp{WalOp::kInsert, "t", "",
                                        MakeRow(1, "a", 1.0)}})
                  .ok());
  ASSERT_TRUE(LogOps(&wal, 3, 3, {WalOp::CreateTable(*source.GetTable("r"))})
                  .ok());
  ASSERT_TRUE(LogOps(&wal, 4, 4, {WalOp{WalOp::kInsert, "r", "",
                                        MakeRow(2, "b", 2.0)},
                                  WalOp{WalOp::kInsert, "t", "",
                                        MakeRow(3, "c", 3.0)}})
                  .ok());

  Catalog empty;
  auto stats = Wal::Replay(wal.buffer(), &empty);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 4u);
  EXPECT_EQ(stats->ops_applied, 3u);  // DDL is not a row op
  EXPECT_EQ(stats->max_commit_ts, 4u);
  ASSERT_NE(empty.GetTable("t"), nullptr);
  ASSERT_NE(empty.GetTable("r"), nullptr);
  EXPECT_EQ(empty.GetTable("t")->format(), TableFormat::kColumn);
  EXPECT_EQ(empty.GetTable("r")->format(), TableFormat::kRow);
  EXPECT_EQ(empty.GetTable("r")->schema().key_columns(),
            std::vector<int>{0});
  EXPECT_EQ(empty.GetTable("t")->CountVisible(1'000'000), 2u);
  EXPECT_EQ(empty.GetTable("r")->CountVisible(1'000'000), 1u);

  // A second run finds the tables in place: the records match them and
  // every row op is recognised as applied.
  auto again = Wal::Replay(wal.buffer(), &empty);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->ops_applied, 0u);
  EXPECT_EQ(empty.GetTable("t")->CountVisible(1'000'000), 2u);
}

// A CREATE TABLE record that disagrees with an existing table fails the
// decode pass: no table is created and no row applies, at any DOP.
TEST(WalTest, CreateTableSchemaMismatchFailsBeforeAnyData) {
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  ASSERT_TRUE(source.CreateTable("u", TestSchema(), TableFormat::kRow).ok());
  Wal wal;
  ASSERT_TRUE(LogOps(&wal, 1, 1, {WalOp::CreateTable(*source.GetTable("u"))})
                  .ok());
  ASSERT_TRUE(LogOps(&wal, 2, 2, {WalOp{WalOp::kInsert, "u", "",
                                        MakeRow(1, "a", 1.0)}})
                  .ok());
  ASSERT_TRUE(LogOps(&wal, 3, 3, {WalOp::CreateTable(*source.GetTable("t"))})
                  .ok());
  ASSERT_TRUE(LogOps(&wal, 4, 4, {WalOp{WalOp::kInsert, "t", "",
                                        MakeRow(2, "b", 2.0)}})
                  .ok());

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Catalog catalog;
    // Same name, the third column an INT instead of a DOUBLE.
    ASSERT_TRUE(catalog
                    .CreateTable("t",
                                 SchemaBuilder()
                                     .AddInt64("id", false)
                                     .AddString("s")
                                     .AddInt64("d")
                                     .SetKey({"id"})
                                     .Build(),
                                 TableFormat::kColumn)
                    .ok());
    auto stats = Wal::Replay(wal.buffer(), &catalog, {}, p);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kCorruption)
        << stats.status().ToString();
    EXPECT_EQ(catalog.GetTable("u"), nullptr);
    EXPECT_EQ(catalog.GetTable("t")->CountVisible(1'000'000), 0u);
  }
}

// Order-independent rendering of every committed row of every table: two
// catalogs with identical committed state render identically.
std::map<std::string, std::vector<std::string>> Fingerprint(
    const Catalog& catalog, const std::vector<std::string>& tables) {
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& name : tables) {
    std::vector<std::string>& rows = out[name];
    catalog.GetTable(name)->ScanVisible(1'000'000, [&](const Row& row) {
      rows.push_back(RowToString(row));
    });
    std::sort(rows.begin(), rows.end());
  }
  return out;
}

// A multi-table log with inserts, updates, and deletes interleaved across
// tables — the shape parallel replay partitions.
void BuildMultiTableLog(Wal* wal, Catalog* catalog,
                        const std::vector<std::string>& tables) {
  for (const std::string& name : tables) {
    ASSERT_TRUE(
        catalog->CreateTable(name, TestSchema(), TableFormat::kColumn).ok());
  }
  TransactionManager tm(catalog, wal);
  for (int i = 0; i < 40; ++i) {
    Table* table = catalog->GetTable(tables[i % tables.size()]);
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(i, "ins", i * 1.0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
    if (i % 3 == 0) {
      auto u = tm.Begin();
      ASSERT_TRUE(u->Update(table, MakeRow(i, "upd", i * 2.0)).ok());
      ASSERT_TRUE(tm.Commit(u.get()).ok());
    }
    if (i % 7 == 0) {
      auto d = tm.Begin();
      ASSERT_TRUE(d->Delete(table, MakeRow(i, "", 0)).ok());
      ASSERT_TRUE(tm.Commit(d.get()).ok());
    }
  }
}

TEST(WalTest, ParallelReplayMatchesSerialByteForByte) {
  const std::vector<std::string> tables = {"a", "b", "c", "d"};
  Wal wal;
  Catalog source;
  BuildMultiTableLog(&wal, &source, tables);
  const std::string log = wal.buffer();

  Catalog serial;
  for (const auto& n : tables) {
    ASSERT_TRUE(serial.CreateTable(n, TestSchema(), TableFormat::kColumn).ok());
  }
  auto sstats = Wal::Replay(log, &serial);
  ASSERT_TRUE(sstats.ok()) << sstats.status().ToString();

  Catalog parallel;
  for (const auto& n : tables) {
    ASSERT_TRUE(
        parallel.CreateTable(n, TestSchema(), TableFormat::kColumn).ok());
  }
  ThreadPool pool(4);
  auto pstats = Wal::Replay(log, &parallel, {}, &pool);
  ASSERT_TRUE(pstats.ok()) << pstats.status().ToString();

  EXPECT_EQ(pstats->txns_applied, sstats->txns_applied);
  EXPECT_EQ(pstats->ops_applied, sstats->ops_applied);
  EXPECT_EQ(pstats->max_commit_ts, sstats->max_commit_ts);
  EXPECT_EQ(Fingerprint(parallel, tables), Fingerprint(serial, tables));
  EXPECT_EQ(Fingerprint(parallel, tables), Fingerprint(source, tables));
}

// Crash during recovery: replaying the same log AGAIN over the already-
// recovered catalog must change nothing (serial and parallel), because
// replay into tables that already exist skips keyed ops the table has
// already seen.
TEST(WalTest, RecoveryIsIdempotentSerialAndParallel) {
  const std::vector<std::string> tables = {"a", "b", "c"};
  Wal wal;
  Catalog source;
  BuildMultiTableLog(&wal, &source, tables);
  const std::string log = wal.buffer();

  // Serial: first pass applies everything, second pass applies nothing.
  Catalog serial;
  for (const auto& n : tables) {
    ASSERT_TRUE(serial.CreateTable(n, TestSchema(), TableFormat::kColumn).ok());
  }
  auto first = Wal::Replay(log, &serial);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->ops_applied, 0u);
  auto fp_once = Fingerprint(serial, tables);
  auto second = Wal::Replay(log, &serial);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->ops_applied, 0u) << "second pass must be a no-op";
  EXPECT_EQ(Fingerprint(serial, tables), fp_once);
  EXPECT_EQ(fp_once, Fingerprint(source, tables));

  // Parallel: same contract on the partitioned path.
  Catalog parallel;
  for (const auto& n : tables) {
    ASSERT_TRUE(
        parallel.CreateTable(n, TestSchema(), TableFormat::kColumn).ok());
  }
  ThreadPool pool(3);
  auto pfirst = Wal::Replay(log, &parallel, {}, &pool);
  ASSERT_TRUE(pfirst.ok()) << pfirst.status().ToString();
  auto psecond = Wal::Replay(log, &parallel, {}, &pool);
  ASSERT_TRUE(psecond.ok()) << psecond.status().ToString();
  EXPECT_EQ(psecond->ops_applied, 0u);
  EXPECT_EQ(Fingerprint(parallel, tables), fp_once);

  // A partial first pass then a full re-run also converges: replay half
  // the log, then the whole log, twice.
  Catalog partial;
  for (const auto& n : tables) {
    ASSERT_TRUE(
        partial.CreateTable(n, TestSchema(), TableFormat::kColumn).ok());
  }
  auto half = Wal::Replay(log.substr(0, log.size() / 2), &partial);
  ASSERT_TRUE(half.ok());
  auto full = Wal::Replay(log, &partial);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(Fingerprint(partial, tables), fp_once);
}

TEST(WalTest, ParallelReplayUnknownTableAppliesNothing) {
  Wal wal;
  ASSERT_TRUE(
      LogOps(&wal, 1, 10, {WalOp{WalOp::kInsert, "t", "", MakeRow(1, "x", 0)}})
          .ok());
  ASSERT_TRUE(
      LogOps(&wal, 2, 11, {WalOp{WalOp::kInsert, "nope", "", Row{}}}).ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  // The decode pass rejects before the apply pass runs, at any DOP.
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto stats = Wal::Replay(wal.buffer(), &catalog, {}, p);
    EXPECT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsNotFound());
    EXPECT_EQ(catalog.GetTable("t")->CountVisible(1'000'000), 0u);
  }
}

// LogCommit frames and group-commit batch frames share one frame kind: a
// single commit is a batch of one, byte for byte.
TEST(WalTest, BatchFramesInterleaveWithRecordFrames) {
  Wal wal;
  const std::vector<WalOp> first = {
      WalOp{WalOp::kInsert, "t", "", MakeRow(1, "a", 0)}};
  ASSERT_TRUE(LogOps(&wal, 1, 1, first).ok());
  Wal single;
  ASSERT_TRUE(single.LogCommitBatch({CommitRecord(1, 1, first)}).ok());
  EXPECT_EQ(wal.buffer(), single.buffer());
  std::vector<std::string> bodies;
  for (int i = 2; i <= 4; ++i) {
    bodies.push_back(CommitRecord(
        i, i, {WalOp{WalOp::kInsert, "t", "", MakeRow(i, "b", 0)}}));
  }
  ASSERT_TRUE(wal.LogCommitBatch(bodies).ok());
  ASSERT_TRUE(
      LogOps(&wal, 5, 5, {WalOp{WalOp::kInsert, "t", "", MakeRow(5, "c", 0)}})
          .ok());
  EXPECT_EQ(wal.num_records(), 5u);

  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(wal.buffer(), &catalog);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 5u);
  EXPECT_EQ(stats->max_commit_ts, 5u);
  EXPECT_FALSE(stats->truncated_tail);  // every frame checksums
  EXPECT_EQ(catalog.GetTable("t")->CountVisible(1'000'000), 5u);
}

TEST(WalTest, SizeTracksBufferWithoutCopying) {
  Wal wal;
  EXPECT_EQ(wal.size(), 0u);
  ASSERT_TRUE(
      LogOps(&wal, 1, 1, {WalOp{WalOp::kInsert, "t", "", MakeRow(1, "a", 0)}})
          .ok());
  EXPECT_EQ(wal.size(), wal.buffer().size());
  ASSERT_TRUE(
      LogOps(&wal, 2, 2, {WalOp{WalOp::kInsert, "t", "", MakeRow(2, "b", 0)}})
          .ok());
  EXPECT_EQ(wal.size(), wal.buffer().size());
}

TEST(WalTest, AbortedTransactionsNeverLogged) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");
  auto t = tm.Begin();
  ASSERT_TRUE(t->Insert(table, MakeRow(1, "x", 0)).ok());
  tm.Abort(t.get());
  EXPECT_EQ(wal.num_records(), 0u);
}

// --- Segmentation & truncation ------------------------------------------

// Appends `n` single-insert commits with commit_ts 1..n.
void AppendCommits(Wal* wal, int64_t n, int64_t first_id = 1) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t id = first_id + i;
    ASSERT_TRUE(LogOps(wal, static_cast<uint64_t>(id),
                       static_cast<Timestamp>(id),
                       {WalOp{WalOp::kInsert, "t", "",
                              MakeRow(id, "seg", 0.5)}})
                    .ok());
  }
}

TEST(WalTest, SegmentRotationPreservesReplayByteForByte) {
  Wal::Options options;
  options.segment_bytes = 1;  // rotate after every frame
  Wal segmented(options);
  Wal flat;
  AppendCommits(&segmented, 8);
  AppendCommits(&flat, 8);

  // Every append seals and rotates, so 8 commits leave 8 sealed segments
  // plus the (empty) active one.
  EXPECT_EQ(segmented.num_segments(), 9u);
  // Rotation happens at frame boundaries, so the concatenated retained
  // bytes equal the unsegmented log exactly.
  EXPECT_EQ(segmented.buffer(), flat.buffer());
  EXPECT_EQ(segmented.size(), flat.size());

  // Oldest-first, with monotone ids and commit-ts high-water marks.
  std::vector<Wal::SegmentInfo> segs = segmented.Segments();
  ASSERT_EQ(segs.size(), 9u);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].id, i);
  }
  // Sealed segments carry commit_ts 1..8; the empty active segment has no
  // high-water mark yet.
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    EXPECT_EQ(segs[i].max_commit_ts, i + 1);
  }
  EXPECT_EQ(segs.back().max_commit_ts, 0u);
}

TEST(WalTest, TruncateBelowDropsOnlyWhollyCoveredSealedSegments) {
  Wal::Options options;
  options.segment_bytes = 1;
  Wal wal(options);
  AppendCommits(&wal, 6);
  ASSERT_EQ(wal.num_segments(), 7u);  // 6 sealed + empty active
  const size_t full_size = wal.size();

  // Horizon 3 covers sealed segments with max_commit_ts 1, 2, 3.
  uint64_t dropped = 0;
  ASSERT_TRUE(wal.TruncateBelow(3, &dropped).ok());
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(wal.num_segments(), 4u);
  EXPECT_EQ(wal.size(), full_size - dropped);
  EXPECT_EQ(wal.truncated_bytes(), dropped);
  EXPECT_EQ(wal.Segments().front().max_commit_ts, 4u);

  // The retained tail replays cleanly on top of a state that already holds
  // everything at or below the horizon (checkpoint recovery's contract).
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(wal.buffer(), &catalog);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->txns_applied, 3u);  // commits 4, 5, 6
  EXPECT_EQ(stats->max_commit_ts, 6u);

  // The active segment never drops, no matter the horizon.
  ASSERT_TRUE(wal.TruncateBelow(kMaxTimestamp, &dropped).ok());
  EXPECT_EQ(wal.num_segments(), 1u);
  AppendCommits(&wal, 1, 100);  // still appends fine
  EXPECT_FALSE(wal.sealed());
  EXPECT_GT(wal.size(), 0u);
}

TEST(WalTest, TruncateBelowKeepsSegmentsAboveHorizon) {
  Wal::Options options;
  options.segment_bytes = 1;
  Wal wal(options);
  AppendCommits(&wal, 4);
  const size_t before = wal.size();
  // Horizon below every sealed segment's high-water mark: nothing drops.
  uint64_t dropped = 99;
  ASSERT_TRUE(wal.TruncateBelow(0, &dropped).ok());
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(wal.size(), before);
  EXPECT_EQ(wal.num_segments(), 5u);
}

TEST(WalTest, TruncateFailpointFailsCleanlyDroppingNothing) {
  Wal::Options options;
  options.segment_bytes = 1;
  Wal wal(options);
  AppendCommits(&wal, 4);
  const size_t before = wal.size();
  const size_t before_segments = wal.num_segments();
  {
    FailpointConfig cfg;
    cfg.status = Status::Unavailable("injected: truncate fault");
    ScopedFailpoint armed("wal.truncate.error", cfg);
    uint64_t dropped = 99;
    Status st = wal.TruncateBelow(kMaxTimestamp, &dropped);
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    EXPECT_EQ(dropped, 0u);
  }
  // The failure dropped nothing — the full log is still retained and a
  // later truncation succeeds.
  EXPECT_EQ(wal.size(), before);
  EXPECT_EQ(wal.num_segments(), before_segments);
  ASSERT_TRUE(wal.TruncateBelow(2).ok());
  EXPECT_EQ(wal.num_segments(), before_segments - 2);
}

TEST(WalTest, ExplicitSealStopsAppends) {
  Wal wal;
  AppendCommits(&wal, 2);
  EXPECT_FALSE(wal.sealed());
  wal.Seal();
  EXPECT_TRUE(wal.sealed());
  Status st = LogOps(
      &wal, 9, 9, {WalOp{WalOp::kInsert, "t", "", MakeRow(9, "late", 0)}});
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  // The sealed log still replays its pre-seal contents.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  auto stats = Wal::Replay(wal.buffer(), &catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->txns_applied, 2u);
}

TEST(WalTest, SetSegmentBytesRotatesLiveLog) {
  Wal wal;  // unbounded: one active segment
  AppendCommits(&wal, 4);
  EXPECT_EQ(wal.num_segments(), 1u);
  wal.set_segment_bytes(1);  // active segment is already over the limit
  EXPECT_EQ(wal.num_segments(), 2u);
  AppendCommits(&wal, 1, 50);
  EXPECT_EQ(wal.num_segments(), 3u);
  wal.set_segment_bytes(0);  // rotation off again
  AppendCommits(&wal, 3, 60);
  EXPECT_EQ(wal.num_segments(), 3u);
}

TEST(WalTest, FileBackedRotationCreatesAndTruncatesSegmentFiles) {
  std::string path = ::testing::TempDir() + "/oltap_wal_seg.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
  std::remove((path + ".3").c_str());
  {
    Wal::Options options;
    options.segment_bytes = 1;
    auto opened = Wal::OpenFile(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Wal* wal = opened->get();
    AppendCommits(wal, 3);
    ASSERT_EQ(wal->num_segments(), 4u);  // 3 sealed + empty active

    // Segment 0 lives at the base path; later segments at "<path>.<id>".
    auto exists = [](const std::string& p) {
      std::FILE* f = std::fopen(p.c_str(), "rb");
      if (f != nullptr) std::fclose(f);
      return f != nullptr;
    };
    EXPECT_TRUE(exists(path));
    EXPECT_TRUE(exists(path + ".1"));
    EXPECT_TRUE(exists(path + ".2"));

    // Truncation removes the dropped segments' files.
    ASSERT_TRUE(wal->TruncateBelow(2).ok());
    EXPECT_FALSE(exists(path));
    EXPECT_FALSE(exists(path + ".1"));
    EXPECT_TRUE(exists(path + ".2"));

    // The retained tail replays from the in-memory mirror and from disk
    // identically.
    Catalog catalog;
    ASSERT_TRUE(
        catalog.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
    auto stats = Wal::Replay(wal->buffer(), &catalog);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->txns_applied, 1u);
    EXPECT_EQ(stats->max_commit_ts, 3u);
  }
  std::remove((path + ".2").c_str());
  std::remove((path + ".3").c_str());
}

// One transaction may write the same key several times (TPC-C NewOrder
// drawing a duplicate item updates that stock row twice); all its ops
// share one commit timestamp, so idempotent replay must apply the NET
// effect instead of skipping everything after the first same-ts write.
TEST(WalTest, IdempotentReplayAppliesNetOfDuplicateKeyWrites) {
  Wal wal;
  Catalog source;
  ASSERT_TRUE(source.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
  TransactionManager tm(&source, &wal);
  Table* table = source.GetTable("t");

  {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(1, "base", 1.0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  {
    // Two updates to the same key in one transaction: live state holds
    // the second.
    auto t = tm.Begin();
    ASSERT_TRUE(t->Update(table, MakeRow(1, "first", 2.0)).ok());
    ASSERT_TRUE(t->Update(table, MakeRow(1, "second", 3.0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  {
    // Insert then update in one transaction: net is an insert of the
    // final row.
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(2, "new", 1.0)).ok());
    ASSERT_TRUE(t->Update(table, MakeRow(2, "newer", 2.0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  {
    // Insert then delete: the row never commits at all.
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, MakeRow(3, "gone", 1.0)).ok());
    ASSERT_TRUE(t->Delete(table, MakeRow(3, "gone", 1.0)).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }

  // A table created by the log's own record replays directly; one that
  // already existed replays idempotently.
  Wal ddl;
  ASSERT_TRUE(LogOps(&ddl, 0, 0, {WalOp::CreateTable(*table)}).ok());
  for (bool idempotent : {false, true}) {
    Catalog catalog;
    std::string log = wal.buffer();
    if (idempotent) {
      ASSERT_TRUE(
          catalog.CreateTable("t", TestSchema(), TableFormat::kColumn).ok());
    } else {
      log = ddl.buffer() + log;
    }
    auto stats = Wal::Replay(log, &catalog);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    Table* replayed = catalog.GetTable("t");
    EXPECT_EQ(replayed->CountVisible(1'000'000), 2u) << idempotent;
    Row row;
    ASSERT_TRUE(replayed->Lookup(EncodeKey(replayed->schema(),
                                           MakeRow(1, "", 0)),
                                 1'000'000, &row));
    EXPECT_EQ(row[1].AsString(), "second") << "idempotent=" << idempotent;
    ASSERT_TRUE(replayed->Lookup(EncodeKey(replayed->schema(),
                                           MakeRow(2, "", 0)),
                                 1'000'000, &row));
    EXPECT_EQ(row[1].AsString(), "newer") << "idempotent=" << idempotent;
  }
}

TEST(WalTest, PeekBodyCommitTsReadsSerializedBody) {
  std::string body = CommitRecord(
      7, 42, {WalOp{WalOp::kInsert, "t", "", MakeRow(1, "x", 0)}});
  EXPECT_EQ(Wal::PeekBodyCommitTs(body), 42u);
  EXPECT_EQ(Wal::PeekBodyCommitTs(std::string()), 0u);
}

}  // namespace
}  // namespace oltap
