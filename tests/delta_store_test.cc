#include "storage/delta_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exec/batch.h"

namespace oltap {
namespace {

constexpr size_t kChunk = DeltaStore::kChunkRows;

Schema TypedSchema() {
  return SchemaBuilder()
      .AddInt64("i")
      .AddDouble("d")
      .AddString("s")
      .Build();
}

// Row n of a deterministic typed history: every 7th int, 5th double and
// 3rd string is NULL; strings outgrow the small-string buffer.
Row TypedRow(int64_t n) {
  return Row{n % 7 == 0 ? Value::Null(ValueType::kInt64) : Value::Int64(n),
             n % 5 == 0 ? Value::Null(ValueType::kDouble)
                        : Value::Double(n * 0.5),
             n % 3 == 0 ? Value::Null(ValueType::kString)
                        : Value::String("value-number-" + std::to_string(n))};
}

void ExpectRowEq(const Row& a, const Row& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].is_null(), b[c].is_null()) << "col " << c;
    EXPECT_EQ(a[c].type(), b[c].type()) << "col " << c;
    if (!a[c].is_null()) {
      EXPECT_EQ(a[c].ToString(), b[c].ToString());
    }
  }
}

TEST(DeltaStoreTest, AppendsAcrossChunkBoundaries) {
  DeltaStore delta(TypedSchema());
  const size_t n = 2 * kChunk + 5;
  for (size_t r = 0; r < n; ++r) {
    EXPECT_EQ(delta.Append(TypedRow(static_cast<int64_t>(r)), 10 + r), r);
  }
  EXPECT_EQ(delta.size(), n);

  std::vector<DeltaStore::ChunkRef> chunks;
  delta.Capture(&chunks);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].rows, kChunk);
  EXPECT_EQ(chunks[1].rows, kChunk);
  EXPECT_EQ(chunks[2].rows, 5u);

  // The chunks hold the rows in insertion order, one after the other.
  size_t r = 0;
  for (const DeltaStore::ChunkRef& ref : chunks) {
    for (size_t i = 0; i < ref.rows; ++i, ++r) {
      ExpectRowEq(ref.chunk->GetRow(i), TypedRow(static_cast<int64_t>(r)));
      EXPECT_EQ(ref.chunk->insert_ts(i), 10 + r);
    }
  }
  // Point reads on both sides of each boundary.
  for (size_t idx : {kChunk - 1, kChunk, 2 * kChunk - 1, 2 * kChunk, n - 1}) {
    Row out;
    ASSERT_TRUE(delta.GetIfVisible(static_cast<uint32_t>(idx), 1'000'000,
                                   &out));
    ExpectRowEq(out, TypedRow(static_cast<int64_t>(idx)));
  }
  Row out;
  EXPECT_FALSE(delta.GetIfVisible(static_cast<uint32_t>(n), 1'000'000, &out));
}

TEST(DeltaStoreTest, TypedRoundTripWithNullsAndStrings) {
  DeltaStore delta(TypedSchema());
  for (int64_t r = 0; r < 40; ++r) delta.Append(TypedRow(r), 1);
  std::vector<DeltaStore::ChunkRef> chunks;
  delta.Capture(&chunks);
  ASSERT_EQ(chunks.size(), 1u);
  const DeltaStore::Chunk& chunk = *chunks[0].chunk;

  // Typed cell reads.
  for (int64_t r = 0; r < 40; ++r) {
    const size_t i = static_cast<size_t>(r);
    EXPECT_EQ(chunk.column(0).IsNull(i), r % 7 == 0);
    if (r % 7 != 0) {
      EXPECT_EQ(chunk.column(0).GetInt64(i), r);
    }
    EXPECT_EQ(chunk.column(1).IsNull(i), r % 5 == 0);
    if (r % 5 != 0) {
      EXPECT_EQ(chunk.column(1).GetDouble(i), r * 0.5);
    }
    EXPECT_EQ(chunk.column(2).IsNull(i), r % 3 == 0);
    if (r % 3 != 0) {
      EXPECT_EQ(chunk.column(2).GetString(i),
                "value-number-" + std::to_string(r));
    }
  }

  // Gather keeps positions, NULLs included.
  std::vector<uint32_t> rows = {0, 3, 5, 7, 8, 39};
  for (size_t c = 0; c < 3; ++c) {
    ColumnVector cells(chunk.column(c).type());
    chunk.column(c).Gather(rows, &cells);
    ASSERT_EQ(cells.size(), rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      Value want = TypedRow(rows[k])[c];
      Value got = cells.GetValue(k);
      EXPECT_EQ(got.is_null(), want.is_null()) << c << "/" << rows[k];
      if (!want.is_null()) {
        EXPECT_EQ(got.ToString(), want.ToString());
      }
    }
  }
}

TEST(DeltaStoreTest, FilterFollowsValueCompare) {
  // 150 rows span three 64-row words, the last one partial.
  constexpr int64_t kRows = 150;
  DeltaStore delta(TypedSchema());
  for (int64_t r = 0; r < kRows; ++r) delta.Append(TypedRow(r), 1);
  std::vector<DeltaStore::ChunkRef> chunks;
  delta.Capture(&chunks);
  const DeltaStore::Chunk& chunk = *chunks[0].chunk;

  // Each (column, op, constant) against the boxed Value comparison.
  struct Case {
    size_t col;
    CompareOp op;
    Value constant;
  };
  std::vector<Case> cases = {
      {0, CompareOp::kLt, Value::Int64(12)},
      {0, CompareOp::kLe, Value::Int64(70)},
      {0, CompareOp::kGt, Value::Int64(100)},
      {0, CompareOp::kEq, Value::Int64(64)},
      {0, CompareOp::kGe, Value::Double(12.5)},  // int cell, double literal
      {1, CompareOp::kEq, Value::Int64(4)},      // double cell, int literal
      {1, CompareOp::kNe, Value::Double(4.0)},
      {2, CompareOp::kEq, Value::String("value-number-11")},
      {2, CompareOp::kGt, Value::String("value-number-2")},
      {0, CompareOp::kNe, Value::Null(ValueType::kInt64)},
  };
  for (const Case& tc : cases) {
    // Start from a partial selection: rows already deselected stay out,
    // and the second word starts empty.
    BitVector sel;
    chunk.VisibleMask(kRows, 1, &sel);
    for (size_t r = 0; r < kRows; ++r) {
      if (r % 5 == 0 || (r >= 64 && r < 128)) sel.Clear(r);
    }
    sel.Set(70);
    BitVector before = sel;
    chunk.column(tc.col).Filter(tc.op, tc.constant, &sel);
    for (int64_t r = 0; r < kRows; ++r) {
      Value cell = TypedRow(r)[tc.col];
      bool want = before.Get(static_cast<size_t>(r)) && !cell.is_null() &&
                  !tc.constant.is_null() &&
                  CompareHolds(tc.op, cell.Compare(tc.constant));
      EXPECT_EQ(sel.Get(static_cast<size_t>(r)), want)
          << "col " << tc.col << " row " << r;
    }
  }
}

TEST(DeltaStoreTest, MarkDeletedKeepsEarliest) {
  DeltaStore delta(TypedSchema());
  uint32_t idx = delta.Append(TypedRow(1), 10);
  delta.MarkDeleted(idx, 50);
  delta.MarkDeleted(idx, 40);  // racing earlier delete wins
  delta.MarkDeleted(idx, 60);  // a later one does not move it
  EXPECT_TRUE(delta.VisibleAt(idx, 39));
  EXPECT_FALSE(delta.VisibleAt(idx, 40));
  EXPECT_FALSE(delta.VisibleAt(idx, 55));
}

TEST(DeltaStoreTest, VisibilityExactlyAtInsertAndDeleteTimestamps) {
  DeltaStore delta(TypedSchema());
  for (size_t r = 0; r < kChunk + 10; ++r) {
    uint32_t idx = delta.Append(TypedRow(static_cast<int64_t>(r)), 100);
    if (r % 2 == 1) delta.MarkDeleted(idx, 200);
  }
  Row out;
  EXPECT_FALSE(delta.VisibleAt(0, 99));  // before the insert
  EXPECT_FALSE(delta.GetIfVisible(0, 99, &out));
  EXPECT_TRUE(delta.VisibleAt(0, 100));  // at the insert
  EXPECT_TRUE(delta.GetIfVisible(0, 100, &out));
  EXPECT_TRUE(delta.VisibleAt(1, 199));  // just before the delete
  EXPECT_FALSE(delta.VisibleAt(1, 200));  // at the delete
  EXPECT_FALSE(delta.GetIfVisible(1, 200, &out));
  EXPECT_TRUE(delta.VisibleAt(0, 200));  // never deleted

  std::vector<DeltaStore::ChunkRef> chunks;
  delta.Capture(&chunks);
  ASSERT_EQ(chunks.size(), 2u);
  for (Timestamp ts : {99, 100, 199, 200}) {
    size_t r = 0;
    for (const DeltaStore::ChunkRef& ref : chunks) {
      BitVector mask;
      ref.chunk->VisibleMask(ref.rows, ts, &mask);
      ASSERT_EQ(mask.size(), ref.rows);
      for (size_t i = 0; i < ref.rows; ++i, ++r) {
        bool want = ts >= 100 && (r % 2 == 0 || ts < 200);
        EXPECT_EQ(mask.Get(i), want) << "ts " << ts << " row " << r;
      }
    }
  }
}

TEST(DeltaStoreTest, MemoryBytesCountsStringPayload) {
  DeltaStore shortstr(TypedSchema());
  DeltaStore longstr(TypedSchema());
  const std::string big(1000, 'x');
  for (int r = 0; r < 10; ++r) {
    shortstr.Append(Row{Value::Int64(r), Value::Double(r), Value::String("")},
                    1);
    longstr.Append(Row{Value::Int64(r), Value::Double(r), Value::String(big)},
                   1);
  }
  EXPECT_GT(shortstr.MemoryBytes(), 0u);
  EXPECT_EQ(longstr.MemoryBytes() - shortstr.MemoryBytes(), 10 * big.size());
}

// Two appender/deleter threads race two scanners. Each appended row's
// cells derive from its first cell, so a scanner that reads a torn or
// unpublished row sees a mismatch; the published count never shrinks,
// and a row's delete timestamp is either live or one its thread set.
TEST(DeltaStoreTest, ConcurrentAppendDeleteAndScan) {
  DeltaStore delta(TypedSchema());
  constexpr int kPerWriter = 3 * static_cast<int>(kChunk);
  std::atomic<int> writers_done{0};
  std::atomic<size_t> torn{0};
  std::atomic<size_t> shrank{0};

  auto writer = [&](int w) {
    std::vector<uint32_t> mine;
    for (int k = 0; k < kPerWriter; ++k) {
      int64_t n = w * 1'000'000 + k;
      Row row{Value::Int64(n), Value::Double(n * 2.0),
              Value::String("row-" + std::to_string(n))};
      mine.push_back(delta.Append(row, static_cast<Timestamp>(10 + k)));
      if (k % 3 == 2) {
        delta.MarkDeleted(mine[k - 1], static_cast<Timestamp>(20 + k));
      }
    }
    writers_done.fetch_add(1);
  };
  auto scanner = [&] {
    size_t last = 0;
    while (writers_done.load() < 2) {
      std::vector<DeltaStore::ChunkRef> chunks;
      delta.Capture(&chunks);
      size_t total = 0;
      for (const DeltaStore::ChunkRef& ref : chunks) {
        BitVector mask;
        ref.chunk->VisibleMask(ref.rows, 1'000'000, &mask);
        for (size_t i = 0; i < ref.rows; ++i) {
          int64_t n = ref.chunk->column(0).GetInt64(i);
          if (ref.chunk->column(1).GetDouble(i) != n * 2.0 ||
              ref.chunk->column(2).GetString(i) !=
                  "row-" + std::to_string(n)) {
            torn.fetch_add(1);
          }
          Timestamp del = ref.chunk->delete_ts(i);
          if (del != kMaxTimestamp && del < 20) torn.fetch_add(1);
        }
        total += ref.rows;
      }
      if (total < last) shrank.fetch_add(1);
      last = total;
    }
  };

  std::thread s1(scanner), s2(scanner);
  std::thread w1(writer, 1), w2(writer, 2);
  w1.join();
  w2.join();
  s1.join();
  s2.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(shrank.load(), 0u);
  EXPECT_EQ(delta.size(), 2u * kPerWriter);

  // Every third row of each writer is deleted, the rest visible.
  std::vector<DeltaStore::ChunkRef> chunks;
  delta.Capture(&chunks);
  size_t visible = 0;
  for (const DeltaStore::ChunkRef& ref : chunks) {
    BitVector mask;
    ref.chunk->VisibleMask(ref.rows, 1'000'000, &mask);
    visible += mask.CountSet();
  }
  EXPECT_EQ(visible, 2u * (kPerWriter - kPerWriter / 3));
}

}  // namespace
}  // namespace oltap
