#include <gtest/gtest.h>

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

// Randomized crash-recovery torture: rounds of commit traffic with
// injected torn/failed WAL appends and torn/failed checkpoint writes,
// then recovery through Database::RecoverFromCheckpointStore (falling
// back through older checkpoints when the newest is torn), verified
// against a shadow in-memory model for exact equality. This is the
// end-to-end proof that the durability path loses exactly the
// transactions whose commit failed and nothing else.

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

std::unique_ptr<Catalog> FreshCatalog() {
  auto catalog = std::make_unique<Catalog>();
  EXPECT_TRUE(
      catalog->CreateTable("t", TortureSchema(), TableFormat::kColumn).ok());
  return catalog;
}

// key (encoded PK) -> full row, compared value-by-value via ToString.
using Shadow = std::map<std::string, Row>;

Shadow Snapshot(const Catalog& catalog) {
  Shadow out;
  const Table* table = catalog.GetTable("t");
  table->ScanVisible(kFarFuture, [&](const Row& row) {
    out[EncodeKey(table->schema(), row)] = row;
  });
  return out;
}

void ExpectShadowEquality(const Shadow& recovered, const Shadow& shadow) {
  ASSERT_EQ(recovered.size(), shadow.size());
  auto it = recovered.begin();
  auto jt = shadow.begin();
  for (; it != recovered.end(); ++it, ++jt) {
    ASSERT_EQ(it->first, jt->first);
    ASSERT_EQ(it->second.size(), jt->second.size());
    for (size_t c = 0; c < it->second.size(); ++c) {
      EXPECT_EQ(it->second[c].ToString(), jt->second[c].ToString())
          << "key " << it->first << " col " << c;
    }
  }
}

class RecoveryTortureTest : public FailpointTest {};

TEST_F(RecoveryTortureTest, RandomizedCrashRecoverRounds) {
  constexpr int kRounds = 24;
  int torn_wal_rounds = 0;
  int failed_checkpoint_writes = 0;
  int torn_checkpoint_images = 0;
  size_t fallback_recoveries = 0;
  ThreadPool pool(2);

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FailpointRegistry::Get().DisableAll();
    Rng rng(9000 + round);

    Wal wal;  // the in-memory buffer is this round's "disk"
    auto catalog = FreshCatalog();
    TransactionManager tm(catalog.get(), &wal);
    Table* table = catalog->GetTable("t");

    Shadow shadow;
    std::vector<int64_t> live_ids;
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
        const Timestamp ts = tm.oracle()->CurrentReadTs();
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

      // One transaction of 1-3 ops over distinct keys.
      auto txn = tm.Begin();
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
        if (roll < 0.5 || live_ids.empty()) {
          int64_t id = next_id++;
          Row row = MakeRow(id, rng.AlphaString(1, 8), rng.NextDouble());
          ASSERT_TRUE(txn->Insert(table, row).ok());
          staged.push_back({Staged::kPut, id, std::move(row)});
        } else {
          int64_t id = live_ids[rng.Uniform(live_ids.size())];
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
      Status st = tm.Commit(txn.get());
      if (!st.ok()) {
        // Only the injected WAL fault may fail a commit in this
        // single-threaded workload, and it is the crash point: the
        // transaction is not in the shadow and must not be recovered.
        ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
        if (fault_flavor == 0) ++torn_wal_rounds;
        crashed = true;
        break;
      }
      for (Staged& s : staged) {
        std::string key = EncodeKey(table->schema(), MakeRow(s.id, "", 0));
        if (s.action == Staged::kPut) {
          if (shadow.count(key) == 0) live_ids.push_back(s.id);
          shadow[key] = std::move(s.row);
        } else {
          shadow.erase(key);
          for (size_t i = 0; i < live_ids.size(); ++i) {
            if (live_ids[i] == s.id) {
              live_ids.erase(live_ids.begin() + static_cast<long>(i));
              break;
            }
          }
        }
      }
    }

    // --- Crash. Recover from the newest checkpoint that restores
    // cleanly (torn ones are skipped as fallbacks), else full replay over
    // the pre-created table — serial on even rounds, on the pool on odd.
    FailpointRegistry::Get().DisableAll();
    Database recovered;
    ASSERT_TRUE(recovered.catalog()
                    ->CreateTable("t", TortureSchema(), TableFormat::kColumn)
                    .ok());
    auto report = recovered.RecoverFromCheckpointStore(
        store, wal.buffer(), (round % 2 == 1) ? &pool : nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    fallback_recoveries += report->fallbacks;

    ExpectShadowEquality(Snapshot(*recovered.catalog()), shadow);

    // The recovered engine must accept new commits.
    TransactionManager* tm2 = recovered.txn_manager();
    Table* rt = recovered.catalog()->GetTable("t");
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
  (void)failed_checkpoint_writes;
}

}  // namespace
}  // namespace oltap
