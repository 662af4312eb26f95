#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/bitvector.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace oltap {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing row");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not found: missing row");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsAborted());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Aborted("conflict");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  OLTAP_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Internal("x")).ok());
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    size_t align = size_t{1} << (i % 5);  // 1..16
    void* p = arena.Allocate(17, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
    EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_GE(arena.bytes_allocated(), 17000u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, AllocateAndCopyPreservesBytes) {
  Arena arena;
  const char data[] = "hello arena";
  void* p = arena.AllocateAndCopy(data, sizeof(data));
  EXPECT_EQ(memcmp(p, data, sizeof(data)), 0);
}

TEST(ArenaTest, ResetReleasesMemory) {
  Arena arena(64);
  arena.Allocate(10000);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(ArenaTest, ConcurrentAllocations) {
  Arena arena(128);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        auto* p = static_cast<uint64_t*>(arena.Allocate(8, 8));
        *p = 0xdeadbeef;  // touch it; ASAN would catch overlap corruption
        if (*p != 0xdeadbeef) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(arena.bytes_allocated(), 8u * 8 * 2000);
}

TEST(BitVectorTest, SetGetClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.CountSet(), 0u);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.CountSet(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.CountSet(), 3u);
}

TEST(BitVectorTest, NotMasksTail) {
  BitVector bv(70);
  bv.Not();
  EXPECT_EQ(bv.CountSet(), 70u);
  bv.Not();
  EXPECT_EQ(bv.CountSet(), 0u);
}

TEST(BitVectorTest, FindNextSet) {
  BitVector bv(200);
  bv.Set(5);
  bv.Set(64);
  bv.Set(199);
  EXPECT_EQ(bv.FindNextSet(0), 5u);
  EXPECT_EQ(bv.FindNextSet(5), 5u);
  EXPECT_EQ(bv.FindNextSet(6), 64u);
  EXPECT_EQ(bv.FindNextSet(65), 199u);
  EXPECT_EQ(bv.FindNextSet(200), 200u);
}

TEST(BitVectorTest, AndOrSemantics) {
  BitVector a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  BitVector a_and = a;
  a_and.And(b);
  EXPECT_EQ(a_and.CountSet(), 1u);
  EXPECT_TRUE(a_and.Get(50));
  BitVector a_or = a;
  a_or.Or(b);
  EXPECT_EQ(a_or.CountSet(), 3u);
}

TEST(BitVectorTest, CountSetPrefix) {
  BitVector bv(256);
  for (size_t i = 0; i < 256; i += 3) bv.Set(i);
  size_t expected = 0;
  for (size_t end = 0; end <= 256; ++end) {
    EXPECT_EQ(bv.CountSetPrefix(end), expected) << "end=" << end;
    if (end < 256 && end % 3 == 0) ++expected;
  }
}

TEST(BitVectorTest, ResizeWithFill) {
  BitVector bv(10, true);
  EXPECT_EQ(bv.CountSet(), 10u);
  bv.Resize(100, true);
  EXPECT_EQ(bv.CountSet(), 100u);
  bv.Resize(5);
  EXPECT_EQ(bv.CountSet(), 5u);
}

TEST(BitVectorTest, AppendSetIndices) {
  BitVector bv(150);
  std::vector<uint32_t> expected = {0, 7, 63, 64, 149};
  for (uint32_t i : expected) bv.Set(i);
  std::vector<uint32_t> got;
  bv.AppendSetIndices(&got);
  EXPECT_EQ(got, expected);
}

TEST(HashTest, DistinctInputsDistinctHashes) {
  std::set<uint64_t> hashes;
  for (int64_t i = 0; i < 10000; ++i) hashes.insert(HashInt64(i));
  EXPECT_EQ(hashes.size(), 10000u);
}

TEST(HashTest, StringHashConsistency) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, NegativeZeroDouble) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfSkewsTowardZero) {
  Rng rng(2);
  size_t low = 0;
  const size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = rng.Zipf(1000, 0.99);
    EXPECT_LT(v, 1000u);
    if (v < 10) ++low;
  }
  // Zipf(0.99): the top 1% of keys should draw far more than 1% of samples.
  EXPECT_GT(low, n / 10);
}

TEST(RngTest, AlphaStringBounds) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string s = rng.AlphaString(4, 9);
    EXPECT_GE(s.size(), 4u);
    EXPECT_LE(s.size(), 9u);
    for (char c : s) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(RngTest, NURandWithinBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NURand(255, 1, 3000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitWithResult) {
  ThreadPool pool(2);
  auto fut = pool.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        std::lock_guard<SpinLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 200000);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  Stopwatch sw(&clock);
  clock.AdvanceMicros(25);
  EXPECT_EQ(sw.ElapsedMicros(), 25);
}

TEST(ClockTest, SystemClockMonotone) {
  SystemClock* clock = SystemClock::Get();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace oltap
