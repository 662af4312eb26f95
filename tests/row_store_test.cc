#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/row_store.h"

namespace oltap {
namespace {

Schema TestSchema() {
  return SchemaBuilder()
      .AddInt64("id", false)
      .AddString("payload")
      .SetKey({"id"})
      .Build();
}

std::string Key(int64_t id) {
  Schema s = TestSchema();
  return EncodeKey(s, Row{Value::Int64(id), Value::String("")});
}

TEST(RowStoreTest, GetOrCreateAndGet) {
  RowStore store(TestSchema());
  EXPECT_EQ(store.Get(Key(1)), nullptr);
  RowStore::Entry* e = store.GetOrCreate(Key(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(store.Get(Key(1)), e);
  EXPECT_EQ(store.GetOrCreate(Key(1)), e);  // idempotent
  EXPECT_EQ(store.num_entries(), 1u);
}

TEST(RowStoreTest, IterationIsKeyOrdered) {
  RowStore store(TestSchema());
  std::vector<int64_t> ids = {5, 1, 9, 3, 7, 2, 8, 4, 6};
  for (int64_t id : ids) store.GetOrCreate(Key(id));
  RowStore::Iterator it(&store);
  int64_t expected = 1;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), Key(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 10);
}

TEST(RowStoreTest, SeekPositionsAtLowerBound) {
  RowStore store(TestSchema());
  for (int64_t id : {10, 20, 30}) store.GetOrCreate(Key(id));
  RowStore::Iterator it(&store);
  it.Seek(Key(15));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(20));
  it.Seek(Key(30));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(30));
  it.Seek(Key(31));
  EXPECT_FALSE(it.Valid());
}

TEST(RowStoreTest, InstallVersionCas) {
  RowStore store(TestSchema());
  RowStore::Entry* e = store.GetOrCreate(Key(1));
  auto* v1 = new RowVersion(Row{Value::Int64(1), Value::String("a")});
  v1->begin.store(1);
  EXPECT_TRUE(RowStore::InstallVersion(e, nullptr, v1));
  EXPECT_EQ(e->head.load(), v1);

  auto* v2 = new RowVersion(Row{Value::Int64(1), Value::String("b")});
  v2->begin.store(2);
  // Wrong expected head fails.
  EXPECT_FALSE(RowStore::InstallVersion(e, nullptr, v2));
  EXPECT_TRUE(RowStore::InstallVersion(e, v1, v2));
  EXPECT_EQ(e->head.load(), v2);
  EXPECT_EQ(v2->next, v1);
}

TEST(RowStoreTest, ConcurrentDistinctInserts) {
  RowStore store(TestSchema());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.GetOrCreate(Key(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.num_entries(),
            static_cast<size_t>(kThreads) * kPerThread);
  // Everything findable and ordered.
  RowStore::Iterator it(&store);
  size_t count = 0;
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (count > 0) {
      EXPECT_LT(prev, it.key());
    }
    prev = it.key();
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(kThreads) * kPerThread);
}

// A fresh store starts at height 1, so the first concurrent inserts race
// to raise the list height. An insert that searched below the old height
// must still link its upper levels from the head sentinel.
TEST(RowStoreTest, ConcurrentInsertsIntoFreshStores) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    RowStore store(TestSchema());
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, &ready, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (int i = 0; i < kPerThread; ++i) {
          store.GetOrCreate(Key(i * kThreads + t));
        }
      });
    }
    for (auto& t : threads) t.join();
    constexpr size_t kTotal = static_cast<size_t>(kThreads) * kPerThread;
    ASSERT_EQ(store.num_entries(), kTotal) << "round " << round;
    RowStore::Iterator it(&store);
    int64_t expected = 0;
    for (it.SeekToFirst(); it.Valid(); it.Next(), ++expected) {
      ASSERT_EQ(it.key(), Key(expected)) << "round " << round;
    }
    ASSERT_EQ(expected, static_cast<int64_t>(kTotal)) << "round " << round;
    for (int64_t id = 0; id < static_cast<int64_t>(kTotal); ++id) {
      RowStore::Entry* e = store.Get(Key(id));
      ASSERT_NE(e, nullptr) << "round " << round << " id " << id;
      ASSERT_EQ(e->key, Key(id));
    }
  }
}

TEST(RowStoreTest, ConcurrentSameKeyInsertsYieldOneEntry) {
  RowStore store(TestSchema());
  constexpr int kThreads = 8;
  std::atomic<RowStore::Entry*> first{nullptr};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        RowStore::Entry* e = store.GetOrCreate(Key(i));
        RowStore::Entry* expected = nullptr;
        if (i == 0) {
          if (!first.compare_exchange_strong(expected, e) && expected != e) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.num_entries(), 500u);
}

TEST(RowStoreTest, ConcurrentReadersDuringInserts) {
  RowStore store(TestSchema());
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) store.GetOrCreate(Key(i));
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(r + 1);
      while (!stop.load(std::memory_order_acquire)) {
        // Iterate a stretch; keys must stay sorted even mid-insert.
        RowStore::Iterator it(&store);
        it.Seek(Key(static_cast<int64_t>(rng.Uniform(20000))));
        std::string prev;
        for (int steps = 0; it.Valid() && steps < 50; it.Next(), ++steps) {
          if (!prev.empty() && prev >= it.key()) reader_errors.fetch_add(1);
          prev = it.key();
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(store.num_entries(), 20000u);
}

}  // namespace
}  // namespace oltap
