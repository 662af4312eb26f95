#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/column_store.h"

namespace oltap {
namespace {

Schema TestSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddInt64("v")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id, int64_t v) {
  return Row{Value::Int64(id), Value::Int64(v)};
}

std::string KeyOf(int64_t id) {
  Schema s = TestSchema();
  return EncodeKey(s, MakeRow(id, 0));
}

// Collects all (id, v) pairs visible at read_ts through a snapshot.
std::set<std::pair<int64_t, int64_t>> VisibleSet(const ColumnTable& table,
                                                 Timestamp read_ts) {
  std::set<std::pair<int64_t, int64_t>> out;
  table.GetSnapshot(read_ts).ScanVisible([&](const Row& r) {
    out.insert({r[0].AsInt64(), r[1].AsInt64()});
  });
  return out;
}

TEST(MergeTest, DeltaMovesToMain) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i * 10), 10 + i).ok());
  }
  EXPECT_EQ(table.main_size(), 0u);
  EXPECT_EQ(table.delta_size(), 100u);

  size_t live = table.MergeDelta(/*merge_ts=*/500);
  EXPECT_EQ(live, 100u);
  EXPECT_EQ(table.main_size(), 100u);
  EXPECT_EQ(table.delta_size(), 0u);
  EXPECT_EQ(table.num_merges(), 1u);

  // All rows still visible, now through the main.
  EXPECT_EQ(VisibleSet(table, 500).size(), 100u);
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(42), 500, &out));
  EXPECT_EQ(out[1].AsInt64(), 420);
}

TEST(MergeTest, EmptyMergeIsNoop) {
  ColumnTable table(TestSchema());
  EXPECT_EQ(table.MergeDelta(10), 0u);
  EXPECT_EQ(table.num_merges(), 0u);
}

TEST(MergeTest, DeletedRowsDroppedAtHorizon) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(3), 20).ok());
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(7), 20).ok());
  // GC horizon above the deletes: rows physically dropped.
  size_t live = table.MergeDelta(/*merge_ts=*/100, /*gc_horizon=*/100);
  EXPECT_EQ(live, 8u);
  EXPECT_EQ(table.main_size(), 8u);
  EXPECT_EQ(VisibleSet(table, 100).size(), 8u);
}

TEST(MergeTest, DeletedRowsKeptForOldSnapshots) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(3), 50).ok());
  // An active reader at ts 30 forces the deleted row to be carried.
  size_t live = table.MergeDelta(/*merge_ts=*/100, /*gc_horizon=*/30);
  EXPECT_EQ(live, 10u);  // physically 10 rows in new main
  // Visible at 30: all ten (delete at 50 is later).
  EXPECT_EQ(VisibleSet(table, 30).size(), 10u);
  // Visible at 100: nine.
  EXPECT_EQ(VisibleSet(table, 100).size(), 9u);
  Row out;
  EXPECT_TRUE(table.Lookup(KeyOf(3), 30, &out));
  EXPECT_FALSE(table.Lookup(KeyOf(3), 100, &out));
}

TEST(MergeTest, SecondMergeCompactsCarriedDeletes) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(0), 50).ok());
  ASSERT_EQ(table.MergeDelta(100, 30), 10u);  // carried
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 150).ok());
  // Horizon has advanced past both deletes now.
  EXPECT_EQ(table.MergeDelta(200, 200), 8u);
  EXPECT_EQ(VisibleSet(table, 200).size(), 8u);
}

TEST(MergeTest, UpdatesAcrossMergeKeepHistory) {
  ColumnTable table(TestSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, 100), 10).ok());
  ASSERT_TRUE(table.MergeDelta(20, 5) > 0);  // row now in main
  ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, 200), 30).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(1), 25, &out));
  EXPECT_EQ(out[1].AsInt64(), 100);  // old image from main
  ASSERT_TRUE(table.Lookup(KeyOf(1), 30, &out));
  EXPECT_EQ(out[1].AsInt64(), 200);  // new image from delta
  // Merge again with an old horizon: both versions survive physically.
  table.MergeDelta(40, 25);
  ASSERT_TRUE(table.Lookup(KeyOf(1), 25, &out));
  EXPECT_EQ(out[1].AsInt64(), 100);
  ASSERT_TRUE(table.Lookup(KeyOf(1), 50, &out));
  EXPECT_EQ(out[1].AsInt64(), 200);
}

TEST(MergeTest, SnapshotTakenBeforeMergeStaysValid) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  ColumnTable::Snapshot snap = table.GetSnapshot(10);
  table.MergeDelta(100, 100);
  // The pinned main and delta still serve the old snapshot.
  size_t count = 0;
  snap.ScanVisible([&](const Row&) { ++count; });
  EXPECT_EQ(count, 50u);
}

TEST(MergeTest, WritesDuringMergeLandInNewDelta) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  std::atomic<bool> start{false}, done{false};
  std::atomic<int64_t> inserted_during{0};
  std::thread writer([&] {
    while (!start.load()) {
    }
    int64_t id = 1000;
    while (!done.load()) {
      if (table.InsertCommitted(MakeRow(id, id), 100 + id).ok()) {
        inserted_during.fetch_add(1);
        ++id;
      }
    }
  });
  start.store(true);
  for (int m = 0; m < 5; ++m) {
    table.MergeDelta(10000 + m, 10000 + m);
  }
  done.store(true);
  writer.join();
  // Nothing lost: all original rows + everything inserted during merges.
  Timestamp late = 1'000'000;
  EXPECT_EQ(VisibleSet(table, late).size(),
            1000u + static_cast<size_t>(inserted_during.load()));
}

TEST(MergeTest, DeletesDuringMergeAreNotLost) {
  // Repeatedly: load rows, start a merge while a thread deletes rows.
  // Afterwards every delete must be reflected.
  for (int round = 0; round < 3; ++round) {
    ColumnTable table(TestSchema());
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
    }
    std::atomic<bool> start{false};
    std::vector<int64_t> deleted;
    std::thread deleter([&] {
      while (!start.load()) {
      }
      Rng rng(round + 1);
      for (int k = 0; k < 200; ++k) {
        int64_t id = static_cast<int64_t>(rng.Uniform(2000));
        if (table.DeleteCommitted(KeyOf(id), 100 + k).ok()) {
          deleted.push_back(id);
        }
      }
    });
    start.store(true);
    table.MergeDelta(5000, 50);  // horizon below deletes: all rows carried
    deleter.join();
    table.MergeDelta(6000, 50);

    auto visible = VisibleSet(table, 1'000'000);
    std::set<int64_t> dead(deleted.begin(), deleted.end());
    EXPECT_EQ(visible.size(), 2000u - dead.size());
    for (int64_t id : dead) {
      Row out;
      EXPECT_FALSE(table.Lookup(KeyOf(id), 1'000'000, &out))
          << "round " << round << " id " << id;
    }
  }
}

TEST(MergeTest, ConcurrentMergersSerialize) {
  ColumnTable table(TestSchema());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  std::vector<std::thread> mergers;
  for (int t = 0; t < 4; ++t) {
    mergers.emplace_back([&, t] { table.MergeDelta(1000 + t, 1000 + t); });
  }
  for (auto& t : mergers) t.join();
  EXPECT_EQ(VisibleSet(table, 2000).size(), 500u);
}

TEST(MergeTest, RebuildsEncodings) {
  // After merge the new main should be dictionary/FOR encoded again.
  Schema schema = SchemaBuilder()
                      .AddInt64("id", false)
                      .AddString("s")
                      .SetKey({"id"})
                      .Build();
  ColumnTable table(schema);
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(table
                    .InsertCommitted(Row{Value::Int64(i),
                                         Value::String(i % 2 ? "odd" : "even")},
                                     10)
                    .ok());
  }
  table.MergeDelta(100, 100);
  ColumnTable::Snapshot snap = table.GetSnapshot(100);
  ASSERT_EQ(snap.main->num_rows(), 64u);
  EXPECT_TRUE(snap.main->column(0).int64_packed());
  ASSERT_NE(snap.main->column(1).dictionary(), nullptr);
  EXPECT_EQ(snap.main->column(1).dictionary()->size(), 2u);
}

// The visible (id, v) pairs of a snapshot's column form: the main rows its
// mask selects, then the captured delta chunks' rows visible at read_ts.
std::vector<std::pair<int64_t, int64_t>> ColumnFormRows(
    const ColumnTable::Snapshot& snap, const BitVector& main_visible,
    const std::vector<DeltaStore::ChunkRef>& chunks) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (size_t r = main_visible.FindNextSet(0); r < main_visible.size();
       r = main_visible.FindNextSet(r + 1)) {
    Row row = snap.main->GetRow(static_cast<RowId>(r));
    out.push_back({row[0].AsInt64(), row[1].AsInt64()});
  }
  for (const DeltaStore::ChunkRef& ref : chunks) {
    BitVector mask;
    ref.chunk->VisibleMask(ref.rows, snap.read_ts, &mask);
    for (size_t i = mask.FindNextSet(0); i < mask.size();
         i = mask.FindNextSet(i + 1)) {
      out.push_back({ref.chunk->column(0).GetInt64(i),
                     ref.chunk->column(1).GetInt64(i)});
    }
  }
  return out;
}

// A scan that captured a frozen columnar delta (snapshot taken while a
// merge runs) keeps returning the rows it saw after the merge publishes:
// the chunks it holds are pinned, never moved or rewritten.
TEST(MergeTest, ScanHoldingFrozenDeltaSurvivesPublish) {
  // Large enough that the merge's build phase, the frozen window, spans
  // many polls.
  const int64_t n = 16 * static_cast<int64_t>(DeltaStore::kChunkRows);
  bool caught = false;
  for (int attempt = 0; attempt < 20 && !caught; ++attempt) {
    ColumnTable table(TestSchema());
    for (int64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 5).ok());
    }
    table.MergeDelta(6, 6);  // rows [0, 500) in the main
    std::vector<std::pair<int64_t, int64_t>> want;
    for (int64_t i = 0; i < 500; ++i) {
      if (i % 10 == 0) {
        ASSERT_TRUE(table.DeleteCommitted(KeyOf(i), 20).ok());
      } else {
        want.push_back({i, i});
      }
    }
    for (int64_t i = 500; i < n; ++i) {
      ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i * 3), 10).ok());
      if (i % 7 == 0) {
        ASSERT_TRUE(table.DeleteCommitted(KeyOf(i), 20).ok());
      } else {
        want.push_back({i, i * 3});
      }
    }

    std::atomic<bool> started{false}, merged{false};
    std::thread merger([&] {
      started.store(true);
      table.MergeDelta(100, 100);  // drops the deleted rows
      merged.store(true);
    });
    while (!started.load()) std::this_thread::yield();
    ColumnTable::Snapshot snap;
    do {
      snap = table.GetSnapshot(50);
    } while (snap.frozen == nullptr && !merged.load());
    if (snap.frozen == nullptr) {
      merger.join();
      continue;
    }
    BitVector main_visible;
    std::vector<DeltaStore::ChunkRef> chunks;
    snap.ScanVisible(&main_visible, &chunks);
    merger.join();
    caught = true;

    ASSERT_EQ(table.GetSnapshot(50).frozen, nullptr);  // published
    EXPECT_EQ(chunks.size(), 16u);
    EXPECT_EQ(ColumnFormRows(snap, main_visible, chunks), want);
    std::vector<std::pair<int64_t, int64_t>> rows;
    snap.ScanVisible([&](const Row& r) {
      rows.push_back({r[0].AsInt64(), r[1].AsInt64()});
    });
    EXPECT_EQ(rows, want);
    // The merged table serves the same rows in the same order.
    ColumnTable::Snapshot after = table.GetSnapshot(150);
    BitVector after_visible;
    std::vector<DeltaStore::ChunkRef> after_chunks;
    after.ScanVisible(&after_visible, &after_chunks);
    EXPECT_TRUE(after_chunks.empty());
    EXPECT_EQ(ColumnFormRows(after, after_visible, after_chunks), want);
  }
  EXPECT_TRUE(caught) << "no snapshot observed the frozen delta";
}

}  // namespace
}  // namespace oltap
