#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "failpoint_fixture.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sql/session.h"
#include "storage/catalog.h"
#include "txn/checkpoint.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

namespace oltap {
namespace {

// Randomized crash-recovery torture: rounds of commit traffic — CREATE
// TABLE among the ops — with injected torn/failed WAL appends and
// torn/failed checkpoint writes, then recovery into an empty Database
// through RecoverFromCheckpointStore (falling back through older
// checkpoints when the newest is torn), verified against a shadow
// in-memory model for exact equality. This is the end-to-end proof that
// the durability path loses exactly the operations whose commit failed
// and nothing else, catalog included. OLTAP_RECOVERY_TORTURE_ROUNDS
// scales the round count (default 24) for the nightly job.

constexpr Timestamp kFarFuture = 1'000'000'000;

Schema TortureSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("tag")
      .AddDouble("v")
      .SetKey({"id"})
      .Build();
}

Row MakeRow(int64_t id, const std::string& tag, double v) {
  return Row{Value::Int64(id), Value::String(tag), Value::Double(v)};
}

// Per table: key (encoded PK) -> full row, compared value-by-value via
// ToString.
using Shadow = std::map<std::string, std::map<std::string, Row>>;

Shadow Snapshot(const Catalog& catalog) {
  Shadow out;
  for (const Table* table : catalog.AllTables()) {
    auto& rows = out[table->name()];
    table->ScanVisible(kFarFuture, [&](const Row& row) {
      rows[EncodeKey(table->schema(), row)] = row;
    });
  }
  return out;
}

void ExpectShadowEquality(const Shadow& recovered, const Shadow& shadow) {
  ASSERT_EQ(recovered.size(), shadow.size()) << "table sets differ";
  for (const auto& [name, want] : shadow) {
    auto found = recovered.find(name);
    ASSERT_TRUE(found != recovered.end()) << "table " << name << " lost";
    const auto& got = found->second;
    ASSERT_EQ(got.size(), want.size()) << "table " << name;
    auto it = got.begin();
    auto jt = want.begin();
    for (; it != got.end(); ++it, ++jt) {
      ASSERT_EQ(it->first, jt->first);
      ASSERT_EQ(it->second.size(), jt->second.size());
      for (size_t c = 0; c < it->second.size(); ++c) {
        EXPECT_EQ(it->second[c].ToString(), jt->second[c].ToString())
            << name << " key " << it->first << " col " << c;
      }
    }
  }
}

int Rounds() {
  const char* env = std::getenv("OLTAP_RECOVERY_TORTURE_ROUNDS");
  return env == nullptr ? 24 : std::max(1, std::atoi(env));
}

class RecoveryTortureTest : public FailpointTest {};

TEST_F(RecoveryTortureTest, RandomizedCrashRecoverRounds) {
  const int rounds = Rounds();
  int torn_wal_rounds = 0;
  int failed_checkpoint_writes = 0;
  int torn_checkpoint_images = 0;
  int created_tables = 0;
  size_t fallback_recoveries = 0;
  ThreadPool pool(2);
  const TableFormat kFormats[] = {TableFormat::kRow, TableFormat::kColumn,
                                  TableFormat::kDual};

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FailpointRegistry::Get().DisableAll();
    Rng rng(9000 + round);

    Wal wal;  // the in-memory buffer is this round's "disk"
    Database live(&wal);  // logs every table creation
    Catalog* catalog = live.catalog();
    TransactionManager* tm = live.txn_manager();
    ASSERT_TRUE(
        catalog->CreateTable("t", TortureSchema(), TableFormat::kColumn).ok());

    Shadow shadow;
    shadow["t"];
    // Live ids per table, in creation order of the tables.
    std::vector<std::pair<Table*, std::vector<int64_t>>> live_ids = {
        {catalog->GetTable("t"), {}}};
    // Checkpoint images found on "disk" at crash time, oldest first, and
    // no manifest: recovery scans the images newest first. Some are torn
    // (crash during the checkpoint write).
    CheckpointStore store;

    // Arm this round's WAL fault: torn append, clean append error, or
    // none (crash with an intact log). skip may exceed the round's
    // traffic, which also yields a clean-crash round.
    int fault_flavor = static_cast<int>(rng.Uniform(3));
    const char* fault_site = fault_flavor == 0   ? "wal.append.torn"
                             : fault_flavor == 1 ? "wal.append.error"
                                                 : nullptr;
    if (fault_site != nullptr) {
      FailpointConfig cfg;
      cfg.skip = static_cast<int>(rng.UniformRange(3, 70));
      cfg.max_fires = 1;
      cfg.status = Status::Unavailable(std::string("injected: ") + fault_site);
      FailpointRegistry::Get().Enable(fault_site, cfg);
    }

    int64_t next_id = 0;
    bool crashed = false;
    const int max_commits = 40 + static_cast<int>(rng.Uniform(30));
    for (int commit = 0; commit < max_commits && !crashed; ++commit) {
      // Occasionally checkpoint, sometimes with an injected tear.
      if (commit > 0 && rng.Bernoulli(0.12)) {
        bool tear = rng.Bernoulli(0.3);
        if (tear) {
          FailpointConfig cfg;
          cfg.max_fires = 1;
          FailpointRegistry::Get().Enable("checkpoint.write.torn", cfg);
        }
        const Timestamp ts = tm->oracle()->CurrentReadTs();
        auto image = WriteCheckpoint(*catalog, ts);
        if (!image.ok()) {
          // The round's WAL fault fired inside the checkpoint writer:
          // nothing reached disk, and the process died mid-checkpoint.
          ++failed_checkpoint_writes;
          crashed = true;
          break;
        }
        if (tear) ++torn_checkpoint_images;
        store.images.push_back(
            {store.images.size() + 1, ts, std::move(image).value()});
      }

      // Occasionally a CREATE TABLE: a commit of its own, and a crash
      // point like any other when the WAL fault fires on it.
      if (rng.Bernoulli(0.06)) {
        std::string name = "t";
        name += std::to_string(live_ids.size());
        Status st = catalog->CreateTable(name, TortureSchema(),
                                         kFormats[rng.Uniform(3)]);
        if (!st.ok()) {
          ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
          ASSERT_EQ(catalog->GetTable(name), nullptr);
          if (fault_flavor == 0) ++torn_wal_rounds;
          crashed = true;
          break;
        }
        ++created_tables;
        shadow[name];
        live_ids.push_back({catalog->GetTable(name), {}});
        continue;
      }

      // One transaction of 1-3 ops over distinct keys of one table.
      auto& [table, ids] = live_ids[rng.Uniform(live_ids.size())];
      auto txn = tm->Begin();
      struct Staged {
        enum { kPut, kErase } action;
        int64_t id;
        Row row;
      };
      std::vector<Staged> staged;
      std::vector<int64_t> used;
      int nops = 1 + static_cast<int>(rng.Uniform(3));
      for (int op = 0; op < nops; ++op) {
        double roll = rng.NextDouble();
        if (roll < 0.5 || ids.empty()) {
          int64_t id = next_id++;
          Row row = MakeRow(id, rng.AlphaString(1, 8), rng.NextDouble());
          ASSERT_TRUE(txn->Insert(table, row).ok());
          staged.push_back({Staged::kPut, id, std::move(row)});
        } else {
          int64_t id = ids[rng.Uniform(ids.size())];
          bool clashes = false;
          for (int64_t u : used) clashes |= (u == id);
          if (clashes) continue;
          if (roll < 0.8) {
            Row row = MakeRow(id, rng.AlphaString(1, 8), rng.NextDouble());
            ASSERT_TRUE(txn->Update(table, row).ok());
            staged.push_back({Staged::kPut, id, std::move(row)});
          } else {
            ASSERT_TRUE(txn->Delete(table, MakeRow(id, "", 0)).ok());
            staged.push_back({Staged::kErase, id, Row{}});
          }
          used.push_back(id);
        }
      }
      Status st = tm->Commit(txn.get());
      if (!st.ok()) {
        // Only the injected WAL fault may fail a commit in this
        // single-threaded workload, and it is the crash point: the
        // transaction is not in the shadow and must not be recovered.
        ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
        if (fault_flavor == 0) ++torn_wal_rounds;
        crashed = true;
        break;
      }
      auto& rows = shadow[table->name()];
      for (Staged& s : staged) {
        std::string key = EncodeKey(table->schema(), MakeRow(s.id, "", 0));
        if (s.action == Staged::kPut) {
          if (rows.count(key) == 0) ids.push_back(s.id);
          rows[key] = std::move(s.row);
        } else {
          rows.erase(key);
          for (size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] == s.id) {
              ids.erase(ids.begin() + static_cast<long>(i));
              break;
            }
          }
        }
      }
    }

    // --- Crash. Recover into an empty database from the newest
    // checkpoint that restores cleanly (torn ones are skipped as
    // fallbacks), else by full replay — the WAL carries the catalog —
    // serial on even rounds, on the pool on odd.
    FailpointRegistry::Get().DisableAll();
    Database recovered;
    auto report = recovered.RecoverFromCheckpointStore(
        store, wal.buffer(), (round % 2 == 1) ? &pool : nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    fallback_recoveries += report->fallbacks;

    ExpectShadowEquality(Snapshot(*recovered.catalog()), shadow);

    // The recovered engine must accept new commits.
    TransactionManager* tm2 = recovered.txn_manager();
    Table* rt = recovered.catalog()->GetTable("t");
    ASSERT_NE(rt, nullptr);
    auto txn = tm2->Begin();
    int64_t fresh_id = 10'000'000 + round;
    ASSERT_TRUE(txn->Insert(rt, MakeRow(fresh_id, "post", 1.0)).ok());
    ASSERT_TRUE(tm2->Commit(txn.get()).ok());
    Row out;
    EXPECT_TRUE(rt->Lookup(EncodeKey(rt->schema(), MakeRow(fresh_id, "", 0)),
                           kFarFuture, &out));
  }

  // The seeds above must actually exercise the adversity, not skate by.
  EXPECT_GT(torn_wal_rounds, 0);
  EXPECT_GT(torn_checkpoint_images, 0);
  EXPECT_GT(fallback_recoveries, 0u);
  EXPECT_GT(created_tables, 0);
  (void)failed_checkpoint_writes;
}

}  // namespace
}  // namespace oltap
