#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/catalog.h"
#include "txn/log_writer.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

namespace oltap {
namespace {

class TxnTest : public ::testing::TestWithParam<TableFormat> {
 protected:
  void SetUp() override {
    Schema schema = SchemaBuilder()
                        .AddInt64("id", false)
                        .AddInt64("v")
                        .SetKey({"id"})
                        .Build();
    ASSERT_TRUE(catalog_.CreateTable("t", schema, GetParam()).ok());
    table_ = catalog_.GetTable("t");
    tm_ = std::make_unique<TransactionManager>(&catalog_);
  }

  Row MakeRow(int64_t id, int64_t v) {
    return Row{Value::Int64(id), Value::Int64(v)};
  }
  std::string KeyOf(int64_t id) {
    return EncodeKey(table_->schema(), MakeRow(id, 0));
  }

  Catalog catalog_;
  Table* table_ = nullptr;
  std::unique_ptr<TransactionManager> tm_;
};

TEST_P(TxnTest, CommitMakesWritesVisible) {
  auto t1 = tm_->Begin();
  ASSERT_TRUE(t1->Insert(table_, MakeRow(1, 10)).ok());
  ASSERT_TRUE(tm_->Commit(t1.get()).ok());
  EXPECT_GT(t1->commit_ts(), 0u);

  auto t2 = tm_->Begin();
  Row out;
  ASSERT_TRUE(t2->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 10);
}

TEST_P(TxnTest, UncommittedWritesInvisibleToOthers) {
  auto t1 = tm_->Begin();
  ASSERT_TRUE(t1->Insert(table_, MakeRow(1, 10)).ok());
  auto t2 = tm_->Begin();
  Row out;
  EXPECT_FALSE(t2->Get(table_, KeyOf(1), &out));
  tm_->Abort(t1.get());
  auto t3 = tm_->Begin();
  EXPECT_FALSE(t3->Get(table_, KeyOf(1), &out));
}

TEST_P(TxnTest, ReadsOwnWrites) {
  auto t1 = tm_->Begin();
  ASSERT_TRUE(t1->Insert(table_, MakeRow(1, 10)).ok());
  Row out;
  ASSERT_TRUE(t1->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 10);
  ASSERT_TRUE(t1->Update(table_, MakeRow(1, 20)).ok());
  ASSERT_TRUE(t1->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 20);
  ASSERT_TRUE(t1->DeleteByKey(table_, KeyOf(1)).ok());
  EXPECT_FALSE(t1->Get(table_, KeyOf(1), &out));
}

TEST_P(TxnTest, SnapshotIsolationAgainstLaterCommits) {
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 100)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto reader = tm_->Begin();
  {
    auto writer = tm_->Begin();
    ASSERT_TRUE(writer->Update(table_, MakeRow(1, 200)).ok());
    ASSERT_TRUE(tm_->Commit(writer.get()).ok());
  }
  // Reader still sees the old value (repeatable snapshot).
  Row out;
  ASSERT_TRUE(reader->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 100);
  // A fresh transaction sees the new value.
  auto fresh = tm_->Begin();
  ASSERT_TRUE(fresh->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 200);
}

TEST_P(TxnTest, FirstCommitterWins) {
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 0)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(t1->Update(table_, MakeRow(1, 1)).ok());
  ASSERT_TRUE(t2->Update(table_, MakeRow(1, 2)).ok());
  ASSERT_TRUE(tm_->Commit(t1.get()).ok());
  Status st = tm_->Commit(t2.get());
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  // The loser's write must not be visible.
  auto check = tm_->Begin();
  Row out;
  ASSERT_TRUE(check->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 1);
}

TEST_P(TxnTest, WriteConflictAbortCountedOnce) {
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 0)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  obs::Counter* conflicts =
      obs::MetricsRegistry::Default()->GetCounter("txn.write_conflicts");
  const uint64_t before = conflicts->Value();
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(t1->Update(table_, MakeRow(1, 1)).ok());
  ASSERT_TRUE(t2->Update(table_, MakeRow(1, 2)).ok());
  ASSERT_TRUE(tm_->Commit(t1.get()).ok());
  EXPECT_TRUE(tm_->Commit(t2.get()).IsAborted());
#ifndef OLTAP_OBS_DISABLED
  // Only the loser's first-committer-wins abort counts.
  EXPECT_EQ(conflicts->Value(), before + 1);
#endif
}

TEST_P(TxnTest, ConcurrentInsertSameKeyOneWins) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(t1->Insert(table_, MakeRow(7, 1)).ok());
  ASSERT_TRUE(t2->Insert(table_, MakeRow(7, 2)).ok());
  Status s1 = tm_->Commit(t1.get());
  Status s2 = tm_->Commit(t2.get());
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.IsAborted());
}

TEST_P(TxnTest, DisjointWritersBothCommit) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(t1->Insert(table_, MakeRow(1, 1)).ok());
  ASSERT_TRUE(t2->Insert(table_, MakeRow(2, 2)).ok());
  EXPECT_TRUE(tm_->Commit(t1.get()).ok());
  EXPECT_TRUE(tm_->Commit(t2.get()).ok());
}

TEST_P(TxnTest, InsertDuplicateDetectedAtBufferTime) {
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 0)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto t = tm_->Begin();
  EXPECT_EQ(t->Insert(table_, MakeRow(1, 5)).code(),
            StatusCode::kAlreadyExists);
}

TEST_P(TxnTest, DeleteThenInsertSameKeyInOneTxn) {
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 0)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto t = tm_->Begin();
  ASSERT_TRUE(t->DeleteByKey(table_, KeyOf(1)).ok());
  ASSERT_TRUE(t->Insert(table_, MakeRow(1, 42)).ok());
  ASSERT_TRUE(tm_->Commit(t.get()).ok());
  auto check = tm_->Begin();
  Row out;
  ASSERT_TRUE(check->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 42);
}

TEST_P(TxnTest, ScanShowsReinsertedImageOnce) {
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 0)).ok());
    ASSERT_TRUE(setup->Insert(table_, MakeRow(2, 5)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto t = tm_->Begin();
  ASSERT_TRUE(t->DeleteByKey(table_, KeyOf(1)).ok());
  ASSERT_TRUE(t->Insert(table_, MakeRow(1, 42)).ok());
  // The scan agrees with the point read: the new image, once.
  std::map<int64_t, std::vector<int64_t>> seen;
  t->Scan(table_, [&](const Row& r) {
    seen[r[0].AsInt64()].push_back(r[1].AsInt64());
  });
  EXPECT_EQ(seen[1], std::vector<int64_t>{42});
  EXPECT_EQ(seen[2], std::vector<int64_t>{5});
  Row out;
  ASSERT_TRUE(t->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), 42);
}

TEST_P(TxnTest, ScanOverlaysOwnWrites) {
  {
    auto setup = tm_->Begin();
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(setup->Insert(table_, MakeRow(i, i * 10)).ok());
    }
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto t = tm_->Begin();
  ASSERT_TRUE(t->DeleteByKey(table_, KeyOf(2)).ok());
  ASSERT_TRUE(t->Update(table_, MakeRow(3, 999)).ok());
  ASSERT_TRUE(t->Insert(table_, MakeRow(6, 60)).ok());
  // Inserted then updated within the same transaction.
  ASSERT_TRUE(t->Insert(table_, MakeRow(7, 70)).ok());
  ASSERT_TRUE(t->Update(table_, MakeRow(7, 77)).ok());

  std::map<int64_t, int64_t> seen;
  t->Scan(table_, [&](const Row& r) {
    seen[r[0].AsInt64()] = r[1].AsInt64();
  });
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.count(2), 0u);
  EXPECT_EQ(seen[3], 999);
  EXPECT_EQ(seen[6], 60);
  EXPECT_EQ(seen[7], 77);
  EXPECT_EQ(seen[1], 10);
}

TEST_P(TxnTest, AbortDiscardsEverything) {
  auto t = tm_->Begin();
  ASSERT_TRUE(t->Insert(table_, MakeRow(1, 1)).ok());
  tm_->Abort(t.get());
  auto check = tm_->Begin();
  Row out;
  EXPECT_FALSE(check->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(tm_->num_aborts(), 1u);
}

TEST_P(TxnTest, DestructorAbortsUnfinished) {
  {
    auto t = tm_->Begin();
    ASSERT_TRUE(t->Insert(table_, MakeRow(1, 1)).ok());
    // dropped without commit
  }
  auto check = tm_->Begin();
  Row out;
  EXPECT_FALSE(check->Get(table_, KeyOf(1), &out));
}

TEST_P(TxnTest, OldestActiveSnapshotTracksActives) {
  Timestamp idle = tm_->OldestActiveSnapshot();
  auto t1 = tm_->Begin();
  EXPECT_EQ(tm_->OldestActiveSnapshot(), t1->begin_ts());
  {
    auto w = tm_->Begin();
    ASSERT_TRUE(w->Insert(table_, MakeRow(1, 1)).ok());
    ASSERT_TRUE(tm_->Commit(w.get()).ok());
  }
  // t1 still pins the old snapshot.
  EXPECT_EQ(tm_->OldestActiveSnapshot(), t1->begin_ts());
  tm_->Abort(t1.get());
  EXPECT_GE(tm_->OldestActiveSnapshot(), idle);
}

TEST_P(TxnTest, LostUpdateAnomalyPrevented) {
  // Classic counter increment from many threads: SI first-committer-wins
  // plus retry must preserve every increment.
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 0)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < kIncrements; ++k) {
        while (true) {
          auto t = tm_->Begin();
          Row row;
          ASSERT_TRUE(t->Get(table_, KeyOf(1), &row));
          row[1] = Value::Int64(row[1].AsInt64() + 1);
          if (!t->Update(table_, row).ok()) continue;
          if (tm_->Commit(t.get()).ok()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto check = tm_->Begin();
  Row out;
  ASSERT_TRUE(check->Get(table_, KeyOf(1), &out));
  EXPECT_EQ(out[1].AsInt64(), kThreads * kIncrements);
}

TEST_P(TxnTest, WriteSkewIsPermittedUnderSI) {
  // Snapshot isolation famously permits write skew (two transactions each
  // read both rows, then write *different* rows — disjoint write sets, so
  // first-committer-wins fires for neither). This test documents the
  // engine's isolation level honestly: the combined constraint
  // (v1 + v2 >= 0 with both starting at 1 and each txn decrementing one)
  // CAN be violated, exactly as in the surveyed SI systems' defaults.
  {
    auto setup = tm_->Begin();
    ASSERT_TRUE(setup->Insert(table_, MakeRow(1, 1)).ok());
    ASSERT_TRUE(setup->Insert(table_, MakeRow(2, 1)).ok());
    ASSERT_TRUE(tm_->Commit(setup.get()).ok());
  }
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  auto decrement_if_sum_positive = [&](Transaction* t, int64_t victim) {
    Row a, b;
    EXPECT_TRUE(t->Get(table_, KeyOf(1), &a));
    EXPECT_TRUE(t->Get(table_, KeyOf(2), &b));
    if (a[1].AsInt64() + b[1].AsInt64() > 0) {
      Row target = victim == 1 ? a : b;
      target[1] = Value::Int64(target[1].AsInt64() - 1);
      EXPECT_TRUE(t->Update(table_, target).ok());
    }
  };
  decrement_if_sum_positive(t1.get(), 1);
  decrement_if_sum_positive(t2.get(), 2);
  EXPECT_TRUE(tm_->Commit(t1.get()).ok());
  EXPECT_TRUE(tm_->Commit(t2.get()).ok());  // SI: no conflict, both commit

  auto check = tm_->Begin();
  Row a, b;
  ASSERT_TRUE(check->Get(table_, KeyOf(1), &a));
  ASSERT_TRUE(check->Get(table_, KeyOf(2), &b));
  // The invariant each transaction individually preserved is now broken.
  EXPECT_EQ(a[1].AsInt64() + b[1].AsInt64(), 0);
}

TEST_P(TxnTest, ReadOnlyCommitIsTrivial) {
  auto t = tm_->Begin();
  Row out;
  t->Get(table_, KeyOf(1), &out);
  EXPECT_TRUE(tm_->Commit(t.get()).ok());
  EXPECT_EQ(tm_->num_commits(), 1u);
}

#ifndef OLTAP_OBS_DISABLED
// The commit stage clock: lock wait, validation, log, apply and
// visibility wait add up exactly to txn.commit_ns — for commits that
// succeed through group commit, and for commits that abort — while a
// commit with an empty write set times nothing.
TEST(TxnStageClockTest, StagesAddUpToCommitTime) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  const char* kStages[] = {"txn.commit.lock_ns", "txn.commit.validate_ns",
                           "txn.commit.log_ns", "txn.commit.apply_ns",
                           "txn.commit.visible_ns"};
  auto sum = [&](const char* name) {
    obs::HistogramSnapshot snap = reg->GetHistogram(name)->Snapshot();
    return snap.mean * static_cast<double>(snap.count);
  };
  auto stage_sum = [&] {
    double total = 0;
    for (const char* name : kStages) total += sum(name);
    return total;
  };
  const double stages_before = stage_sum();
  const double total_before = sum("txn.commit_ns");
  const uint64_t count_before = reg->GetHistogram("txn.commit_ns")->count();

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t",
                               SchemaBuilder()
                                   .AddInt64("id", false)
                                   .AddInt64("v")
                                   .SetKey({"id"})
                                   .Build(),
                               TableFormat::kRow)
                  .ok());
  Table* table = catalog.GetTable("t");
  Wal wal;
  TransactionManager tm(&catalog, &wal);
  LogWriter writer(&wal);
  tm.SetLogWriter(&writer);
  for (int64_t i = 0; i < 20; ++i) {
    auto t = tm.Begin();
    ASSERT_TRUE(t->Insert(table, Row{Value::Int64(i), Value::Int64(i)}).ok());
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  // A lost first-committer-wins race times its lock and validate stages.
  auto winner = tm.Begin();
  auto loser = tm.Begin();
  ASSERT_TRUE(winner->Update(table, Row{Value::Int64(1), Value::Int64(9)}).ok());
  ASSERT_TRUE(loser->Update(table, Row{Value::Int64(1), Value::Int64(8)}).ok());
  ASSERT_TRUE(tm.Commit(winner.get()).ok());
  ASSERT_TRUE(tm.Commit(loser.get()).IsAborted());
  // Read-only commits are not timed.
  for (int i = 0; i < 5; ++i) {
    auto t = tm.Begin();
    ASSERT_TRUE(tm.Commit(t.get()).ok());
  }
  tm.SetLogWriter(nullptr);
  writer.Stop();

  EXPECT_EQ(reg->GetHistogram("txn.commit_ns")->count() - count_before, 22u);
  const double stages = stage_sum() - stages_before;
  const double total = sum("txn.commit_ns") - total_before;
  EXPECT_GT(total, 0);
  EXPECT_NEAR(stages, total, 1e-6 * total + 1);
}
#endif

INSTANTIATE_TEST_SUITE_P(AllFormats, TxnTest,
                         ::testing::Values(TableFormat::kRow,
                                           TableFormat::kColumn,
                                           TableFormat::kDual),
                         [](const auto& info) {
                           return TableFormatToString(info.param);
                         });

}  // namespace
}  // namespace oltap
