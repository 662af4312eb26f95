#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/catalog.h"
#include "txn/checkpoint.h"
#include "txn/wal.h"
#include "wal_record.h"

namespace oltap {
namespace {

// Replay-robustness fuzz: random truncations and bit flips over a valid
// log must never crash Wal::Replay, must flag truncated_tail whenever the
// log ends mid-record, and must never apply a record whose checksum
// fails — the applied transactions are always an exact prefix of the
// intact log. The log carries its own DDL (two CREATE TABLE records), so
// it replays into an empty catalog and a damaged CREATE TABLE record
// leaves its table uncreated. The same holds for checkpoint images: any
// tear or flip makes the whole image invalid.

constexpr int kRecords = 40;
constexpr Timestamp kFarFuture = 1'000'000'000;

Schema FuzzSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("s")
      .AddDouble("d")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id) {
  return Row{Value::Int64(id), Value::String("row-" + std::to_string(id)),
             Value::Double(static_cast<double>(id) * 1.5)};
}

// Record i of the log: a CREATE TABLE of `table` (id < 0) or an insert of
// row `id` into it.
struct LogRecord {
  std::string table;
  int64_t id;
};

// kRecords records: CREATE TABLE t, inserts into t, CREATE TABLE u
// halfway, then inserts into u; record i commits at ts i+1.
std::vector<LogRecord> LogRecords() {
  std::vector<LogRecord> records;
  for (int i = 0; i < kRecords; ++i) {
    const bool first_half = i < kRecords / 2;
    const std::string table = first_half ? "t" : "u";
    const int64_t id = (i == 0 || i == kRecords / 2) ? -1 : i;
    records.push_back({table, id});
  }
  return records;
}

// Builds the log and returns the byte offset where each record ends.
std::string BuildLog(std::vector<size_t>* boundaries) {
  Catalog defs;  // the tables whose CREATE TABLE records the log carries
  EXPECT_TRUE(defs.CreateTable("t", FuzzSchema(), TableFormat::kColumn).ok());
  EXPECT_TRUE(defs.CreateTable("u", FuzzSchema(), TableFormat::kRow).ok());
  Wal wal;
  boundaries->clear();
  const std::vector<LogRecord> records = LogRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    WalOp op;
    if (records[i].id < 0) {
      op = WalOp::CreateTable(*defs.GetTable(records[i].table));
    } else {
      op.kind = WalOp::kInsert;
      op.table = records[i].table;
      op.row = MakeRow(records[i].id);
    }
    EXPECT_TRUE(LogOps(&wal, /*txn_id=*/i + 1, /*commit_ts=*/i + 1, {op})
                    .ok());
    boundaries->push_back(wal.size());
  }
  return wal.buffer();
}

// The applied state must be exactly the first `applied` records: tables
// exist once their CREATE TABLE applied, holding exactly their rows.
void ExpectPrefixState(const Catalog& catalog, size_t applied) {
  const std::vector<LogRecord> records = LogRecords();
  std::map<std::string, std::vector<int64_t>> want;
  for (size_t i = 0; i < applied; ++i) {
    if (records[i].id < 0) {
      want[records[i].table];
    } else {
      want[records[i].table].push_back(records[i].id);
    }
  }
  ASSERT_EQ(catalog.TableNames().size(), want.size());
  for (const auto& [name, ids] : want) {
    const Table* table = catalog.GetTable(name);
    ASSERT_NE(table, nullptr) << name;
    ASSERT_EQ(table->CountVisible(kFarFuture), ids.size()) << name;
    for (int64_t id : ids) {
      Row out;
      ASSERT_TRUE(table->Lookup(EncodeKey(table->schema(), MakeRow(id)),
                                kFarFuture, &out));
      EXPECT_EQ(out[1].AsString(), "row-" + std::to_string(id));
    }
  }
}

TEST(WalFuzzTest, RandomTruncationNeverCrashesAndAppliesPrefix) {
  std::vector<size_t> boundaries;
  const std::string log = BuildLog(&boundaries);
  std::set<size_t> boundary_set(boundaries.begin(), boundaries.end());
  Rng rng(31);

  std::vector<size_t> cuts;
  for (int iter = 0; iter < 300; ++iter) cuts.push_back(rng.Uniform(log.size()));
  // Exact record boundaries are the edge case: no tear to report.
  cuts.insert(cuts.end(), boundaries.begin(), boundaries.end());
  cuts.push_back(0);

  for (size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    Catalog catalog;
    auto stats = Wal::Replay(log.substr(0, cut), &catalog);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    size_t full_records = 0;
    for (size_t b : boundaries) full_records += (b <= cut) ? 1 : 0;
    EXPECT_EQ(stats->txns_applied, full_records);
    EXPECT_EQ(stats->truncated_tail,
              cut != 0 && boundary_set.count(cut) == 0);
    ExpectPrefixState(catalog, full_records);
  }
}

TEST(WalFuzzTest, RandomBitFlipsNeverApplyCorruptRecords) {
  std::vector<size_t> boundaries;
  const std::string log = BuildLog(&boundaries);
  Rng rng(32);

  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    std::string fuzzed = log;
    int nflips = 1 + static_cast<int>(rng.Uniform(3));
    size_t first_hit_record = kRecords;
    for (int f = 0; f < nflips; ++f) {
      size_t pos = rng.Uniform(fuzzed.size());
      fuzzed[pos] ^= static_cast<char>(1u << rng.Uniform(8));
      // Which record does this byte belong to?
      size_t rec = 0;
      while (boundaries[rec] <= pos) ++rec;
      first_hit_record = std::min(first_hit_record, rec);
    }
    Catalog catalog;
    auto stats = Wal::Replay(fuzzed, &catalog);
    // The checksum guards every field, so corruption can only look like
    // a torn tail — never a parse error or a misapplied record.
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->txns_applied, first_hit_record);
    EXPECT_TRUE(stats->truncated_tail);
    ExpectPrefixState(catalog, first_hit_record);
  }
}

TEST(WalFuzzTest, CombinedTruncationAndFlipsStayWithinPrefix) {
  std::vector<size_t> boundaries;
  const std::string log = BuildLog(&boundaries);
  Rng rng(33);

  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    std::string fuzzed = log.substr(0, rng.Uniform(log.size()) + 1);
    int nflips = static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < nflips && !fuzzed.empty(); ++f) {
      size_t pos = rng.Uniform(fuzzed.size());
      fuzzed[pos] ^= static_cast<char>(1u << rng.Uniform(8));
    }
    Catalog catalog;
    auto stats = Wal::Replay(fuzzed, &catalog);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_LE(stats->txns_applied, static_cast<size_t>(kRecords));
    ExpectPrefixState(catalog, stats->txns_applied);
  }
}

// A checkpoint image is a WAL stream in a checksummed envelope: any tear
// or bit flip fails validation up front, so recovery never replays a
// damaged image, and a bare WAL stream never passes as an image.
TEST(WalFuzzTest, DamagedImagesNeverValidate) {
  std::vector<size_t> boundaries;
  const std::string log = BuildLog(&boundaries);
  EXPECT_FALSE(CheckpointIsValid(log));
  Catalog source;
  ASSERT_TRUE(Wal::Replay(log, &source).ok());
  auto written = WriteCheckpoint(source, kRecords);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  const std::string image = std::move(written).value();
  ASSERT_TRUE(CheckpointIsValid(image));
  {
    Timestamp ts = 0;
    std::string_view stream;
    ASSERT_TRUE(CheckpointStream(image, &ts, &stream).ok());
    EXPECT_EQ(ts, static_cast<Timestamp>(kRecords));
    Catalog restored;
    auto stats = Wal::Replay(stream, &restored);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_FALSE(stats->truncated_tail);
    ExpectPrefixState(restored, kRecords);
  }

  Rng rng(34);
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    std::string damaged = image;
    if (iter % 2 == 0) {
      damaged.resize(rng.Uniform(image.size()));
    } else {
      int nflips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < nflips; ++f) {
        damaged[rng.Uniform(damaged.size())] ^=
            static_cast<char>(1u << rng.Uniform(8));
      }
      if (damaged == image) continue;  // two flips of one bit cancel
    }
    EXPECT_FALSE(CheckpointIsValid(damaged));
    Timestamp ts = 0;
    std::string_view stream;
    Status st = CheckpointStream(damaged, &ts, &stream);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

}  // namespace
}  // namespace oltap
