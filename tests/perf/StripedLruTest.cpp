//===- StripedLruTest.cpp - The lock-striped concurrent memo table ----------===//
//
// The shared-cache contract behind cross-thread memo sharing
// (support/StripedLru.h): every lookup returns the deterministic value
// of its key no matter how many threads race, the accounting identity
// hits + misses + duplicates == lookups holds exactly, eviction never
// exceeds capacity and never evicts the just-inserted entry (the
// capacity-0 / tiny-capacity edge cases of the old single-mutex memo).
//
//===----------------------------------------------------------------------===//

#include "support/StripedLru.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

using namespace mlirrl;

namespace {

/// The deterministic "pricing" every test memoizes: a pure function of
/// the key with full 64-bit sensitivity.
double valueOf(uint64_t Key) {
  return static_cast<double>(stripedShardMix(Key ^ 0x9e3779b97f4a7c15ull)) *
         0x1p-64;
}

} // namespace

TEST(StripedLruTest, ShardCountRoundsToPowersOfTwo) {
  EXPECT_EQ(stripedShardCount(0), 1u);
  EXPECT_EQ(stripedShardCount(1), 1u);
  EXPECT_EQ(stripedShardCount(3), 4u);
  EXPECT_EQ(stripedShardCount(16), 16u);
  EXPECT_EQ(stripedShardCount(17), 32u);
  EXPECT_EQ(stripedShardCount(100000), 256u);

  StripedLruMemo<double> Memo("test.shards", 64, 5);
  EXPECT_EQ(Memo.shardCount(), 8u);
}

TEST(StripedLruTest, ZeroCapacityIsClampedAndCachesOneEntry) {
  // The old LruMemo at capacity 0 evicted the entry it had just
  // inserted; the striped table clamps to one entry per shard.
  StripedLruMemo<double> Memo("test.cap0", /*Capacity=*/0, /*ShardCount=*/1);
  EXPECT_EQ(Memo.shardCapacity(), 1u);

  unsigned Computes = 0;
  auto Compute = [&](uint64_t K) {
    return [&Computes, K] {
      ++Computes;
      return valueOf(K);
    };
  };
  EXPECT_EQ(Memo.memoized(7, Compute(7)), valueOf(7));
  // The just-inserted entry survived: the immediate re-lookup hits.
  EXPECT_EQ(Memo.memoized(7, Compute(7)), valueOf(7));
  EXPECT_EQ(Computes, 1u);
  EXPECT_EQ(Memo.size(), 1u);

  HitMissCounters C = Memo.counters();
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Duplicates, 0u);
}

TEST(StripedLruTest, CapacityOneKeepsMostRecentKey) {
  StripedLruMemo<double> Memo("test.cap1", 1, 1);
  Memo.memoized(1, [] { return 1.0; }); // miss, cache = {1}
  Memo.memoized(2, [] { return 2.0; }); // miss, evicts 1, cache = {2}
  EXPECT_EQ(Memo.memoized(2, [] { return -1.0; }), 2.0); // hit
  Memo.memoized(1, [] { return 1.0; }); // miss again: 1 was evicted
  EXPECT_EQ(Memo.size(), 1u);

  HitMissCounters C = Memo.counters();
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 3u);
}

TEST(StripedLruTest, CapacityTwoEvictsLeastRecentlyUsed) {
  // Same recency scenario CostCacheTest pins for the cost-model memo,
  // at the smallest capacity where recency matters.
  StripedLruMemo<double> Memo("test.cap2", 2, 1);
  Memo.memoized(1, [] { return 1.0; });                  // miss {1}
  Memo.memoized(2, [] { return 2.0; });                  // miss {2,1}
  EXPECT_EQ(Memo.memoized(1, [] { return -1.0; }), 1.0); // hit {1,2}
  Memo.memoized(3, [] { return 3.0; }); // miss, evicts LRU=2 -> {3,1}
  EXPECT_EQ(Memo.memoized(1, [] { return -1.0; }), 1.0); // hit: protected
  Memo.memoized(2, [] { return 2.0; }); // miss: 2 was the eviction victim
  EXPECT_EQ(Memo.size(), 2u);

  HitMissCounters C = Memo.counters();
  EXPECT_EQ(C.Hits, 2u);
  EXPECT_EQ(C.Misses, 4u);
  EXPECT_EQ(C.Hits + C.Misses + C.Duplicates, C.total());
}

TEST(StripedLruTest, ClearDropsEntriesKeepsCounters) {
  StripedLruMemo<double> Memo("test.clear", 16, 4);
  Memo.memoized(1, [] { return 1.0; });
  Memo.memoized(1, [] { return -1.0; });
  Memo.clear();
  EXPECT_EQ(Memo.size(), 0u);
  Memo.memoized(1, [] { return 1.0; }); // miss again after clear
  HitMissCounters C = Memo.counters();
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 2u);
  Memo.resetCounters();
  EXPECT_EQ(Memo.counters().total(), 0u);
}

TEST(StripedLruTest, RegistryAggregatesAcrossShards) {
  CacheStatsRegistry::instance().resetAll();
  StripedLruMemo<double> Memo("test.registry_agg", 64, 8);
  for (uint64_t K = 0; K < 32; ++K)
    Memo.memoized(K, [K] { return valueOf(K); });
  for (uint64_t K = 0; K < 32; ++K)
    Memo.memoized(K, [K] { return valueOf(K); });

  CacheStatsRegistry::CategoryStats S =
      CacheStatsRegistry::instance().categoryStats("test.registry_agg");
  EXPECT_EQ(S.Misses, 32u);
  EXPECT_EQ(S.Hits, 32u);
}

TEST(StripedLruTest, ConcurrentHammerIsExactlyAccounted) {
  // N threads x M keys, capacity ample (no eviction): every lookup must
  // return the key's deterministic value, every key must be inserted
  // exactly once (misses == distinct keys), and benign races must land
  // in the duplicate counter -- never skew hits or misses -- so
  // hits + misses + duplicates == total lookups exactly.
  const unsigned Threads = 8;
  const uint64_t Keys = 64;
  const unsigned Rounds = 50;
  StripedLruMemo<double> Memo("test.hammer", /*Capacity=*/1024,
                              /*ShardCount=*/8);

  std::atomic<uint64_t> WrongValues{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      for (unsigned R = 0; R < Rounds; ++R) {
        for (uint64_t I = 0; I < Keys; ++I) {
          // Different walk order per thread so first-touches race.
          uint64_t Key = (I * (T + 1) + R) % Keys;
          double Got = Memo.memoized(Key, [Key] { return valueOf(Key); });
          if (Got != valueOf(Key))
            WrongValues.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(WrongValues.load(), 0u);
  HitMissCounters C = Memo.counters();
  const uint64_t Lookups =
      static_cast<uint64_t>(Threads) * Rounds * Keys;
  EXPECT_EQ(C.Hits + C.Misses + C.Duplicates, Lookups);
  EXPECT_EQ(C.total(), Lookups);
  // No eviction at this capacity: each key is inserted exactly once.
  EXPECT_EQ(C.Misses, Keys);
  EXPECT_EQ(Memo.size(), Keys);
}

TEST(StripedLruTest, ConcurrentEvictionNeverExceedsCapacityOrCorrupts) {
  // Keys far outnumber capacity so eviction churns constantly under
  // contention; values must stay deterministic and the table bounded.
  const unsigned Threads = 4;
  const uint64_t Keys = 512;
  const unsigned Rounds = 20;
  StripedLruMemo<double> Memo("test.evict", /*Capacity=*/32,
                              /*ShardCount=*/4);

  std::atomic<uint64_t> WrongValues{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      for (unsigned R = 0; R < Rounds; ++R) {
        for (uint64_t I = 0; I < Keys; ++I) {
          uint64_t Key = (I * 7 + T * 13 + R) % Keys;
          double Got = Memo.memoized(Key, [Key] { return valueOf(Key); });
          if (Got != valueOf(Key))
            WrongValues.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(WrongValues.load(), 0u);
  EXPECT_LE(Memo.size(), Memo.shardCount() * Memo.shardCapacity());
  HitMissCounters C = Memo.counters();
  EXPECT_EQ(C.total(),
            static_cast<uint64_t>(Threads) * Rounds * Keys);
  // With eviction on, keys are re-inserted -- misses exceed the key
  // count but the identity still holds exactly.
  EXPECT_GE(C.Misses, Keys);
}
