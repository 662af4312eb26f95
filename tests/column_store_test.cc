#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/column_store.h"

namespace oltap {
namespace {

Schema KeyedSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("name")
      .AddDouble("score")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id, const std::string& name, double score) {
  return Row{Value::Int64(id), Value::String(name), Value::Double(score)};
}

std::string KeyOf(int64_t id) {
  Schema s = KeyedSchema();
  return EncodeKey(s, MakeRow(id, "", 0));
}

TEST(ColumnTableTest, InsertLookupDelete) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1.5), 10).ok());
  Row out;
  EXPECT_FALSE(table.Lookup(KeyOf(1), 9, &out));  // before insert
  ASSERT_TRUE(table.Lookup(KeyOf(1), 10, &out));
  EXPECT_EQ(out[1].AsString(), "a");

  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 20).ok());
  EXPECT_TRUE(table.Lookup(KeyOf(1), 15, &out));   // still visible at 15
  EXPECT_FALSE(table.Lookup(KeyOf(1), 20, &out));  // gone at 20
}

TEST(ColumnTableTest, DuplicateInsertRejected) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  Status st = table.InsertCommitted(MakeRow(1, "b", 2), 20);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(ColumnTableTest, ReinsertAfterDelete) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 20).ok());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a2", 3), 30).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(1), 30, &out));
  EXPECT_EQ(out[1].AsString(), "a2");
  // The old version remains visible at its timestamps.
  ASSERT_TRUE(table.Lookup(KeyOf(1), 15, &out));
  EXPECT_EQ(out[1].AsString(), "a");
  EXPECT_FALSE(table.Lookup(KeyOf(1), 25, &out));
}

TEST(ColumnTableTest, UpdateCreatesNewVersion) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "v1", 1), 10).ok());
  ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, "v2", 2), 20).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(1), 15, &out));
  EXPECT_EQ(out[1].AsString(), "v1");
  ASSERT_TRUE(table.Lookup(KeyOf(1), 20, &out));
  EXPECT_EQ(out[1].AsString(), "v2");
}

TEST(ColumnTableTest, LastWriteTs) {
  ColumnTable table(KeyedSchema());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 0u);
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 10u);
  ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, "b", 2), 25).ok());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 25u);
}

TEST(ColumnTableTest, BulkLoadToMainThenLookup) {
  ColumnTable table(KeyedSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back(MakeRow(i, "n" + std::to_string(i), i * 0.5));
  }
  ASSERT_TRUE(table.BulkLoadToMain(rows, 5).ok());
  EXPECT_EQ(table.main_size(), 100u);
  EXPECT_EQ(table.delta_size(), 0u);
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(42), 5, &out));
  EXPECT_EQ(out[1].AsString(), "n42");
  EXPECT_FALSE(table.Lookup(KeyOf(42), 4, &out));  // before build_ts
}

TEST(ColumnTableTest, BulkLoadRequiresEmptyTable) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 1).ok());
  Status st = table.BulkLoadToMain({MakeRow(2, "b", 2)}, 2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ColumnTableTest, SnapshotSeesConsistentState) {
  ColumnTable table(KeyedSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, "a", 1), 10).ok());
  ColumnTable::Snapshot snap = table.GetSnapshot(10);
  // A later delete must not affect the snapshot's view at ts 10.
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 20).ok());
  size_t visible = 0;
  snap.ScanVisible([&](const Row&) { ++visible; });
  EXPECT_EQ(visible, 1u);
}

TEST(ColumnTableTest, UnkeyedTableAppendsOnly) {
  Schema schema = SchemaBuilder().AddInt64("x").Build();
  ColumnTable table(schema);
  ASSERT_TRUE(table.InsertCommitted(Row{Value::Int64(1)}, 1).ok());
  ASSERT_TRUE(table.InsertCommitted(Row{Value::Int64(1)}, 2).ok());
  EXPECT_EQ(table.delta_size(), 2u);
  EXPECT_EQ(table.DeleteCommitted("k", 3).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ColumnTableTest, ArityMismatchRejected) {
  ColumnTable table(KeyedSchema());
  Status st = table.InsertCommitted(Row{Value::Int64(1)}, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(MainFragmentTest, VisibleMaskRespectsDeleteTimestamps) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1, 2, 3, 4}));
  MainFragment frag(std::move(cols), 4, /*build_ts=*/5);
  frag.MarkDeleted(1, 10);
  frag.MarkDeleted(3, 20);

  BitVector mask;
  frag.VisibleMask(/*read_ts=*/4, &mask);
  EXPECT_EQ(mask.CountSet(), 0u);  // before build
  frag.VisibleMask(5, &mask);
  EXPECT_EQ(mask.CountSet(), 4u);  // deletes are later
  frag.VisibleMask(10, &mask);
  EXPECT_EQ(mask.CountSet(), 3u);
  EXPECT_FALSE(mask.Get(1));
  frag.VisibleMask(20, &mask);
  EXPECT_EQ(mask.CountSet(), 2u);
}

TEST(MainFragmentTest, PerRowInsertTimestamps) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1, 2, 3}));
  MainFragment frag(std::move(cols), 3, /*build_ts=*/30,
                    std::vector<Timestamp>{10, 20, 30});
  EXPECT_TRUE(frag.VisibleAt(0, 10));
  EXPECT_FALSE(frag.VisibleAt(1, 10));
  BitVector mask;
  frag.VisibleMask(20, &mask);
  EXPECT_EQ(mask.CountSet(), 2u);
  EXPECT_EQ(frag.InsertTsOf(2), 30u);
}

TEST(MainFragmentTest, EarliestDeleteWins) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1}));
  MainFragment frag(std::move(cols), 1, 0);
  frag.MarkDeleted(0, 50);
  frag.MarkDeleted(0, 40);  // racing earlier delete
  EXPECT_FALSE(frag.VisibleAt(0, 45));
  EXPECT_TRUE(frag.VisibleAt(0, 39));
}

TEST(MainFragmentTest, GetRowReconstructsTuple) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({7, 8}));
  cols.push_back(ColumnSegment::BuildString({"x", "y"}));
  MainFragment frag(std::move(cols), 2, 0);
  Row r = frag.GetRow(1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].AsInt64(), 8);
  EXPECT_EQ(r[1].AsString(), "y");
}

// The main's visible mask is cached per fragment; these pin when the
// cache may serve a read_ts and when it must not.
TEST(MainFragmentTest, DeleteAfterCachedMaskSeenByNextSnapshot) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1, 2, 3, 4}));
  MainFragment main(std::move(cols), 4, 5);
  BitVector mask;
  main.VisibleMask(10, &mask);  // caches the all-visible mask
  EXPECT_EQ(mask.CountSet(), 4u);
  main.MarkDeleted(2, 15);
  main.VisibleMask(20, &mask);
  EXPECT_EQ(mask.CountSet(), 3u);
  EXPECT_FALSE(mask.Get(2));
  main.VisibleMask(14, &mask);  // before the delete
  EXPECT_TRUE(mask.Get(2));
  main.VisibleMask(20, &mask);
  EXPECT_FALSE(mask.Get(2));
}

TEST(MainFragmentTest, SnapshotOlderThanCachedDeleteSeesRow) {
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64({1, 2, 3, 4}));
  MainFragment main(std::move(cols), 4, 5);
  main.MarkDeleted(1, 30);
  BitVector mask;
  main.VisibleMask(40, &mask);  // the cache now reflects the delete at 30
  EXPECT_FALSE(mask.Get(1));
  main.VisibleMask(25, &mask);
  EXPECT_TRUE(mask.Get(1));
  EXPECT_EQ(mask.CountSet(), 4u);
  // A delete newer than the reader lands after caching: the reader still
  // sees the row, and a later reader does not.
  main.MarkDeleted(3, 60);
  main.VisibleMask(50, &mask);
  EXPECT_TRUE(mask.Get(3));
  EXPECT_FALSE(mask.Get(1));
  main.VisibleMask(60, &mask);
  EXPECT_FALSE(mask.Get(3));
  main.VisibleMask(45, &mask);
  EXPECT_TRUE(mask.Get(3));
}

// The cached mask against VisibleAt over a seeded history of deletes and
// reads at read timestamps above and below the cache's newest delete.
TEST(MainFragmentTest, CachedMaskMatchesVisibleAt) {
  constexpr size_t kRows = 300;
  std::vector<int64_t> values(kRows);
  for (size_t i = 0; i < kRows; ++i) values[i] = static_cast<int64_t>(i);
  std::vector<Timestamp> insert_ts(kRows);
  for (size_t i = 0; i < kRows; ++i) insert_ts[i] = 1 + i % 5;
  std::vector<ColumnSegment> cols;
  cols.push_back(ColumnSegment::BuildInt64(values));
  MainFragment main(std::move(cols), kRows, 5, insert_ts);
  uint64_t state = 12345;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  Timestamp now = 10;
  for (int step = 0; step < 400; ++step) {
    if (next(3) == 0) {
      now += 1 + next(3);
      main.MarkDeleted(static_cast<RowId>(next(kRows)), now - next(4));
    }
    Timestamp read_ts = next(4) == 0 ? next(now + 1) : now;
    BitVector mask;
    main.VisibleMask(read_ts, &mask);
    ASSERT_EQ(mask.size(), kRows);
    for (size_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(mask.Get(r), main.VisibleAt(static_cast<RowId>(r), read_ts))
          << "step " << step << " read_ts " << read_ts << " row " << r;
    }
  }
}

// Through the table: a delete committed after a snapshot cached the mask
// reaches the next snapshot, and an older snapshot keeps the row.
TEST(ColumnTableTest, MainDeletesAfterCachedMask) {
  ColumnTable table(KeyedSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(MakeRow(i, "n", i));
  ASSERT_TRUE(table.BulkLoadToMain(rows, 1).ok());
  auto count = [&](Timestamp ts) {
    size_t n = 0;
    table.GetSnapshot(ts).ScanVisible([&](const Row&) { ++n; });
    return n;
  };
  EXPECT_EQ(count(5), 10u);
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(3), 10).ok());
  EXPECT_EQ(count(10), 9u);
  EXPECT_EQ(count(9), 10u);
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(4), 20).ok());
  EXPECT_EQ(count(20), 8u);
  EXPECT_EQ(count(15), 9u);
  EXPECT_EQ(count(5), 10u);
}

}  // namespace
}  // namespace oltap
