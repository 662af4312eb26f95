#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"

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

// Reads the same logical state through both mirrors of a kDual table and
// compares.
void ExpectMirrorsAgree(const Table& table, Timestamp read_ts) {
  std::set<std::pair<int64_t, int64_t>> row_side, col_side;
  table.row_table()->ScanVisible(read_ts, [&](const Row& r) {
    row_side.insert({r[0].AsInt64(), r[1].AsInt64()});
  });
  table.GetColumnSnapshot(read_ts)->ScanVisible([&](const Row& r) {
    col_side.insert({r[0].AsInt64(), r[1].AsInt64()});
  });
  EXPECT_EQ(row_side, col_side) << "at ts " << read_ts;
}

TEST(RowTableTest, InsertLookupDeleteUpdate) {
  RowTable table(TestSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, 10), 5).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(1), 5, &out));
  EXPECT_EQ(out[1].AsInt64(), 10);
  EXPECT_FALSE(table.Lookup(KeyOf(1), 4, &out));

  ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, 20), 8).ok());
  ASSERT_TRUE(table.Lookup(KeyOf(1), 7, &out));
  EXPECT_EQ(out[1].AsInt64(), 10);
  ASSERT_TRUE(table.Lookup(KeyOf(1), 8, &out));
  EXPECT_EQ(out[1].AsInt64(), 20);

  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 12).ok());
  EXPECT_FALSE(table.Lookup(KeyOf(1), 12, &out));
  ASSERT_TRUE(table.Lookup(KeyOf(1), 11, &out));
}

TEST(RowTableTest, DuplicateInsertRejected) {
  RowTable table(TestSchema());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, 10), 5).ok());
  EXPECT_EQ(table.InsertCommitted(MakeRow(1, 11), 6).code(),
            StatusCode::kAlreadyExists);
}

TEST(RowTableTest, ScanVisibleIsKeyOrderedAndFiltered) {
  RowTable table(TestSchema());
  for (int64_t i : {3, 1, 2}) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i * 10), 5).ok());
  }
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(2), 7).ok());
  std::vector<int64_t> seen;
  table.ScanVisible(10, [&](const Row& r) { seen.push_back(r[0].AsInt64()); });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
  seen.clear();
  table.ScanVisible(6, [&](const Row& r) { seen.push_back(r[0].AsInt64()); });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 3}));
}

TEST(RowTableTest, KeylessTableAppends) {
  Schema schema = SchemaBuilder().AddInt64("x").Build();
  RowTable table(schema);
  ASSERT_TRUE(table.InsertCommitted(Row{Value::Int64(1)}, 1).ok());
  ASSERT_TRUE(table.InsertCommitted(Row{Value::Int64(1)}, 2).ok());
  EXPECT_EQ(table.num_keys(), 2u);
}

TEST(RowTableTest, LastWriteTs) {
  RowTable table(TestSchema());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 0u);
  ASSERT_TRUE(table.InsertCommitted(MakeRow(1, 1), 5).ok());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 5u);
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 9).ok());
  EXPECT_EQ(table.LastWriteTs(KeyOf(1)), 9u);
}

TEST(DualTableTest, MirrorsStayConsistent) {
  Table table("t", TestSchema(), TableFormat::kDual);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  for (int64_t i = 0; i < 50; i += 5) {
    ASSERT_TRUE(table.DeleteCommitted(KeyOf(i), 20).ok());
  }
  for (int64_t i = 1; i < 50; i += 5) {
    ASSERT_TRUE(table.UpdateCommitted(KeyOf(i), MakeRow(i, i + 100), 30).ok());
  }
  for (Timestamp ts : {10u, 20u, 25u, 30u, 40u}) {
    ExpectMirrorsAgree(table, ts);
  }
}

TEST(DualTableTest, MirrorsConsistentAcrossMerge) {
  Table table("t", TestSchema(), TableFormat::kDual);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 10).ok());
  }
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(5), 20).ok());
  table.MergeDelta(50, 50);
  for (int64_t i = 100; i < 120; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 60).ok());
  }
  for (Timestamp ts : {50u, 60u, 70u}) {  // at or above the GC horizon
    ExpectMirrorsAgree(table, ts);
  }
}

TEST(DualTableTest, PointReadsServedByRowSide) {
  Table table("t", TestSchema(), TableFormat::kDual);
  ASSERT_TRUE(table.InsertCommitted(MakeRow(7, 70), 5).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(7), 5, &out));
  EXPECT_EQ(out[1].AsInt64(), 70);
  EXPECT_EQ(table.LastWriteTs(KeyOf(7)), 5u);
  // A row written to the row mirror alone is seen by point reads but not
  // by scans, which read the column mirror.
  ASSERT_TRUE(table.row_table()->InsertCommitted(MakeRow(8, 80), 6).ok());
  ASSERT_TRUE(table.Lookup(KeyOf(8), 6, &out));
  EXPECT_EQ(out[1].AsInt64(), 80);
  EXPECT_EQ(table.LastWriteTs(KeyOf(8)), 6u);
  EXPECT_FALSE(table.column_table()->Lookup(KeyOf(8), 6, &out));
  EXPECT_EQ(table.CountVisible(6), 1u);
}

TEST(TableFacadeTest, FormatsDispatchCorrectly) {
  for (TableFormat format :
       {TableFormat::kRow, TableFormat::kColumn, TableFormat::kDual}) {
    Table table("t", TestSchema(), format);
    EXPECT_EQ(table.format(), format);
    ASSERT_TRUE(table.InsertCommitted(MakeRow(1, 10), 5).ok());
    ASSERT_TRUE(table.UpdateCommitted(KeyOf(1), MakeRow(1, 20), 6).ok());
    Row out;
    ASSERT_TRUE(table.Lookup(KeyOf(1), 6, &out));
    EXPECT_EQ(out[1].AsInt64(), 20);
    EXPECT_EQ(table.CountVisible(6), 1u);
    ASSERT_TRUE(table.DeleteCommitted(KeyOf(1), 7).ok());
    EXPECT_EQ(table.CountVisible(7), 0u);
    EXPECT_EQ(table.Mergeable(), format != TableFormat::kRow);
    EXPECT_EQ(table.GetColumnSnapshot(7).has_value(),
              format != TableFormat::kRow);
  }
}

TEST(TableFacadeTest, ScanVisibleCoversMainAndDelta) {
  Table table("t", TestSchema(), TableFormat::kColumn);
  std::vector<Row> initial;
  for (int64_t i = 0; i < 10; ++i) initial.push_back(MakeRow(i, i));
  ASSERT_TRUE(table.BulkLoadToMain(initial, 1).ok());
  ASSERT_TRUE(table.InsertCommitted(MakeRow(100, 100), 5).ok());
  EXPECT_EQ(table.CountVisible(5), 11u);
  EXPECT_EQ(table.CountVisible(1), 10u);
}

TEST(RowTableTest, ScanRangeOrderedAndBounded) {
  RowTable table(TestSchema());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i), 5).ok());
  }
  ASSERT_TRUE(table.DeleteCommitted(KeyOf(42), 7).ok());
  std::vector<int64_t> seen;
  size_t n = table.ScanRange(KeyOf(40), 5, 10,
                             [&](const Row& r) { seen.push_back(r[0].AsInt64()); });
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(seen, (std::vector<int64_t>{40, 41, 43, 44, 45}));  // 42 deleted
  // At the pre-delete snapshot, 42 reappears.
  seen.clear();
  table.ScanRange(KeyOf(40), 3, 6,
                  [&](const Row& r) { seen.push_back(r[0].AsInt64()); });
  EXPECT_EQ(seen, (std::vector<int64_t>{40, 41, 42}));
}

TEST(TableFacadeTest, ScanRangeAllFormatsAgree) {
  for (TableFormat format :
       {TableFormat::kRow, TableFormat::kColumn, TableFormat::kDual}) {
    Table table("t", TestSchema(), format);
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(table.InsertCommitted(MakeRow(i, i * 2), 5).ok());
    }
    std::vector<int64_t> seen;
    size_t n = table.ScanRange(KeyOf(10), 4, 10, [&](const Row& r) {
      seen.push_back(r[0].AsInt64());
    });
    EXPECT_EQ(n, 4u) << TableFormatToString(format);
    EXPECT_EQ(seen, (std::vector<int64_t>{10, 11, 12, 13}))
        << TableFormatToString(format);
  }
}

// Everything a table answers at timestamp `ts`, in a form that compares
// across formats: the visible rows as a sorted list, plus each key's point
// read.
struct TableState {
  std::vector<std::pair<int64_t, int64_t>> scan;
  size_t count = 0;
  std::vector<std::pair<bool, int64_t>> lookups;
  bool operator==(const TableState& o) const {
    return scan == o.scan && count == o.count && lookups == o.lookups;
  }
};

TableState StateAt(const Table& table, Timestamp ts, int64_t num_keys) {
  TableState s;
  table.ScanVisible(ts, [&](const Row& r) {
    s.scan.push_back({r[0].AsInt64(), r[1].AsInt64()});
  });
  std::sort(s.scan.begin(), s.scan.end());
  s.count = table.CountVisible(ts);
  for (int64_t id = 0; id < num_keys; ++id) {
    Row out;
    bool found = table.Lookup(KeyOf(id), ts, &out);
    s.lookups.push_back({found, found ? out[1].AsInt64() : 0});
  }
  return s;
}

std::vector<Timestamp> LastWrites(const Table& table, int64_t num_keys) {
  std::vector<Timestamp> out;
  for (int64_t id = 0; id < num_keys; ++id) {
    out.push_back(table.LastWriteTs(KeyOf(id)));
  }
  return out;
}

// One seeded history of committed inserts, updates and deletes, fed into a
// row, a column and a dual table: every format must answer every read
// identically at every timestamp, before and after merges (which move the
// delta into the main and carry older versions along).
TEST(TableFacadeTest, FormatsAgreeOnOneHistory) {
  constexpr int64_t kKeys = 40;
  std::vector<std::unique_ptr<Table>> tables;
  for (TableFormat format :
       {TableFormat::kRow, TableFormat::kColumn, TableFormat::kDual}) {
    tables.push_back(std::make_unique<Table>("t", TestSchema(), format));
  }
  Rng rng(20);
  std::vector<bool> live(kKeys, false);
  Timestamp ts = 0;
  auto write_phase = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      ++ts;
      int64_t id = static_cast<int64_t>(rng.Uniform(kKeys));
      int64_t v = static_cast<int64_t>(ts) * 10;
      uint64_t pick = rng.Uniform(3);
      for (auto& t : tables) {
        Status s;
        if (!live[id]) {
          s = t->InsertCommitted(MakeRow(id, v), ts);
        } else if (pick == 0) {
          s = t->DeleteCommitted(KeyOf(id), ts);
        } else {
          s = t->UpdateCommitted(KeyOf(id), MakeRow(id, v), ts);
        }
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      if (!live[id] || pick == 0) live[id] = !live[id];
      for (size_t f = 1; f < tables.size(); ++f) {
        ASSERT_EQ(LastWrites(*tables[f], kKeys), LastWrites(*tables[0], kKeys))
            << TableFormatToString(tables[f]->format()) << " at ts " << ts;
      }
    }
  };
  auto expect_agree = [&](const char* phase) {
    for (Timestamp read_ts = 0; read_ts <= ts + 1; ++read_ts) {
      TableState want = StateAt(*tables[0], read_ts, kKeys);
      EXPECT_EQ(want.count, want.scan.size());
      for (size_t f = 1; f < tables.size(); ++f) {
        EXPECT_TRUE(StateAt(*tables[f], read_ts, kKeys) == want)
            << TableFormatToString(tables[f]->format()) << " " << phase
            << " at ts " << read_ts;
      }
    }
  };
  write_phase(150);
  expect_agree("before merge");
  for (auto& t : tables) t->MergeDelta(ts, /*gc_horizon=*/0);
  expect_agree("after merge");
  write_phase(150);
  expect_agree("delta over a merged main");
  for (auto& t : tables) t->MergeDelta(ts, /*gc_horizon=*/0);
  expect_agree("after second merge");
  for (size_t f = 1; f < tables.size(); ++f) {
    EXPECT_EQ(LastWrites(*tables[f], kKeys), LastWrites(*tables[0], kKeys))
        << TableFormatToString(tables[f]->format()) << " after merges";
  }
}

TEST(TableFacadeTest, DualBulkLoadFillsBothMirrors) {
  Table table("t", TestSchema(), TableFormat::kDual);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(MakeRow(i, i));
  ASSERT_TRUE(table.BulkLoadToMain(rows, 1).ok());
  Row out;
  ASSERT_TRUE(table.Lookup(KeyOf(3), 1, &out));  // row side
  EXPECT_EQ(table.column_table()->main_size(), 10u);
}

}  // namespace
}  // namespace oltap
