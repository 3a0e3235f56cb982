//===- StripedLru.h - Lock-striped concurrent LRU memo tables ----*- C++-*-===//
///
/// \file
/// The shared-cache building block of the training loop: a memo table
/// split into N independently locked shards so parallel episode
/// collectors stop serializing on one global mutex. Keys are 64-bit
/// content hashes; a finalizing mix selects the shard, each shard is a
/// small mutex-guarded intrusive LRU with its own capacity slice, and
/// per-shard HitMissCounters are enrolled in the CacheStatsRegistry
/// under one category (the registry aggregates across shards and
/// instances).
///
/// Sharing one table across threads is only sound for *deterministic*
/// values: memoized(K, Compute) may race, and the loser of the race
/// returns the winner's entry -- identical bitwise only because Compute
/// is a pure function of the key. That is exactly the CachingEvaluator
/// contract (prices are deterministic cost-model outputs), and it is
/// what makes sharing/eviction order free to differ across runs while
/// every returned value stays bitwise-reproducible.
///
/// Accounting is race-exact, not merely race-tolerant:
///
///  * a lookup that finds the key under the shard lock is a hit;
///  * a thread that missed, computed, and finds the key inserted by a
///    racer when it re-checks under the insert lock records a
///    *duplicate* (its compute is discarded) -- never a second miss;
///  * misses are recorded at insertion, so misses == entries inserted
///    and hits + misses + duplicates == lookups always holds.
///
/// Capacity is clamped to >= 1 per shard and eviction pops strictly
/// from the LRU tail after the MRU push, so the just-inserted entry can
/// never evict itself (the capacity-0 footgun of the old single-mutex
/// LruMemo).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_SUPPORT_STRIPEDLRU_H
#define MLIRRL_SUPPORT_STRIPEDLRU_H

#include "support/Stats.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace mlirrl {

/// Rounds a requested shard count to the power of two actually used
/// (clamped to [1, 256]) so shard selection is a mask, not a modulo.
unsigned stripedShardCount(unsigned Requested);

/// Finalizing 64-bit mix (splitmix64) applied to keys before shard
/// selection: memo keys are already FNV-folded, but their low bits can
/// still carry structure, and a biased shard choice would re-create the
/// single-lock hot spot striping exists to remove.
uint64_t stripedShardMix(uint64_t Key);

/// A lock-striped memoization table mapping 64-bit keys to
/// deterministic values. Thread-safe; see the file comment for the
/// accounting and determinism contract.
template <typename ValueT> class StripedLruMemo {
public:
  /// \p Capacity is the total entry budget, divided across shards
  /// (clamped so every shard holds at least one entry). \p ShardCount
  /// is rounded up to a power of two; 1 degenerates to a classic
  /// single-mutex LRU.
  StripedLruMemo(const char *Category, size_t Capacity,
                 unsigned ShardCount = 8) {
    unsigned N = stripedShardCount(ShardCount);
    ShardMask = N - 1;
    size_t Total = Capacity == 0 ? 1 : Capacity;
    size_t PerShard = (Total + N - 1) / N;
    Shards.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Shards.push_back(std::make_unique<Shard>(Category, PerShard));
  }

  /// Returns the memoized value of \p Key, calling \p Compute outside
  /// any lock on a miss so concurrent misses on different keys price in
  /// parallel. \p Compute must be a pure deterministic function of the
  /// key: a racing duplicate's result is discarded in favor of the
  /// entry a concurrent winner inserted. Templated on the callable so
  /// the hit path (the overwhelming majority of hot-loop lookups) pays
  /// no std::function erasure.
  template <typename ComputeT>
  ValueT memoized(uint64_t Key, ComputeT &&Compute) {
    Shard &S = shardFor(Key);
    {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      auto It = S.Index.find(Key);
      if (It != S.Index.end()) {
        S.HitMiss.recordHit();
        S.Order.splice(S.Order.begin(), S.Order, It->second);
        return It->second->Value;
      }
    }

    ValueT Computed = Compute();

    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Index.find(Key);
    if (It != S.Index.end()) {
      // A racer inserted the key while we computed: this lookup found a
      // (late) cached value, so it must not count as a miss -- the
      // duplicate counter keeps hits + misses + duplicates == lookups
      // without inflating either side.
      S.HitMiss.recordDuplicate();
      S.Order.splice(S.Order.begin(), S.Order, It->second);
      return It->second->Value;
    }
    S.HitMiss.recordMiss();
    S.Order.push_front(Entry{Key, std::move(Computed)});
    S.Index[Key] = S.Order.begin();
    // Per-shard capacity is >= 1 and the new entry sits at the MRU
    // head, so this only ever evicts *older* entries.
    while (S.Order.size() > S.Capacity) {
      S.Index.erase(S.Order.back().Key);
      S.Order.pop_back();
    }
    return S.Order.front().Value;
  }

  /// Drops every memoized entry (counters untouched).
  void clear() {
    for (auto &S : Shards) {
      std::lock_guard<std::mutex> Lock(S->Mutex);
      S->Order.clear();
      S->Index.clear();
    }
  }

  /// Live entries across all shards (locks each shard in turn; the sum
  /// is a snapshot, exact only when quiescent).
  size_t size() const {
    size_t Total = 0;
    for (const auto &S : Shards) {
      std::lock_guard<std::mutex> Lock(S->Mutex);
      Total += S->Order.size();
    }
    return Total;
  }

  unsigned shardCount() const { return ShardMask + 1; }
  size_t shardCapacity() const { return Shards.front()->Capacity; }
  size_t capacity() const { return shardCapacity() * Shards.size(); }

  /// Aggregate hit/miss/duplicate snapshot over all shards (relaxed).
  HitMissCounters counters() const {
    HitMissCounters Total;
    for (const auto &S : Shards) {
      Total.Hits.fetch_add(
          S->HitMiss.Hits.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      Total.Misses.fetch_add(
          S->HitMiss.Misses.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      Total.Duplicates.fetch_add(
          S->HitMiss.Duplicates.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    return Total;
  }

  void resetCounters() {
    for (auto &S : Shards)
      S->HitMiss.reset();
  }

private:
  struct Entry {
    uint64_t Key = 0;
    ValueT Value;
  };

  /// One stripe: an independent mutex-guarded MRU-ordered LRU with its
  /// own counters, enrolled in the registry so category aggregates span
  /// every shard of every instance.
  struct Shard {
    Shard(const char *Category, size_t Capacity)
        : Capacity(Capacity < 1 ? 1 : Capacity),
          Stats(Category, &HitMiss) {}

    mutable std::mutex Mutex;
    std::list<Entry> Order; // MRU first
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> Index;
    const size_t Capacity; // fixed at construction
    HitMissCounters HitMiss;
    CacheStatsRegistry::Enrollment Stats;
  };

  Shard &shardFor(uint64_t Key) {
    return *Shards[stripedShardMix(Key) & ShardMask];
  }

  std::vector<std::unique_ptr<Shard>> Shards;
  unsigned ShardMask = 0;
};

} // namespace mlirrl

#endif // MLIRRL_SUPPORT_STRIPEDLRU_H
