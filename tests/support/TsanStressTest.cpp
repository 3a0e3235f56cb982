//===- TsanStressTest.cpp - Many-thread hammers for the TSan gate ---------===//
//
// The dedicated workload for scripts/ci.sh --sanitize=thread: saturate
// the two most concurrency-dense structures in the tree -- the
// lock-striped LRU under forced eviction and the serving queue under
// submit/shutdown churn -- with more threads than cores so TSan sees a
// rich set of interleavings. The assertions are deliberately thin
// (accounting identity, every future resolves); in this test the
// sanitizer is the oracle and the hammer's job is coverage. It also
// runs in the normal build, where it doubles as a cheap smoke of the
// same paths.
//
// Thread counts stay identical across build modes (fewer threads means
// fewer interleavings); only per-thread iteration counts shrink under
// TSan, via tsanScale, to bound gate runtime.
//
//===----------------------------------------------------------------------===//

#include "support/StripedLru.h"
#include "support/TsanAnnotations.h"

#include "datasets/DnnOps.h"
#include "ir/Printer.h"
#include "serve/Server.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace mlirrl;

namespace {

ServeOptions stressServeOptions() {
  ServeOptions O;
  O.Net = testutil::tinyNet();
  O.BatchWidth = 2;
  O.Workers = 3;
  O.QueueCapacity = 8;
  O.Inference = InferenceDtype::F32;
  return O;
}

} // namespace

TEST(TsanStressTest, StripedLruEvictionHammer) {
  // Tiny capacity over a much larger key range: every shard is
  // constantly evicting while other threads hit, miss and duplicate on
  // the same keys, so the insert/evict/splice path runs under maximum
  // cross-thread interleaving.
  constexpr unsigned Threads = 8;
  constexpr uint64_t KeyRange = 512;
  const size_t PerThread = tsanScale(40000);
  StripedLruMemo<double> Memo("tsan_stress.lru_evict", /*Capacity=*/16,
                              /*ShardCount=*/4);

  std::atomic<unsigned> WrongValues{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      // Different stride per thread so threads collide on keys at
      // different phases instead of marching in lockstep.
      uint64_t Key = T * 17;
      for (size_t I = 0; I < PerThread; ++I) {
        Key = (Key + 2 * T + 1) % KeyRange;
        double Got =
            Memo.memoized(Key, [Key] { return static_cast<double>(Key) * 3.0; });
        if (Got != static_cast<double>(Key) * 3.0)
          WrongValues.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Maintenance churn racing the lookups: full clears and counter
  // snapshots, all of which walk every shard.
  std::atomic<bool> Stop{false};
  std::thread Maintenance([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      Memo.clear();
      (void)Memo.size();
      (void)Memo.counters();
    }
  });

  for (std::thread &W : Workers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Maintenance.join();

  EXPECT_EQ(WrongValues.load(), 0u);
  // The race-exact accounting identity must survive eviction and
  // clears: every lookup is exactly one of hit, miss or discarded
  // duplicate.
  HitMissCounters Totals = Memo.counters();
  EXPECT_EQ(Totals.Hits.load() + Totals.Misses.load() +
                Totals.Duplicates.load(),
            static_cast<uint64_t>(Threads) * PerThread);
}

TEST(TsanStressTest, ServerSubmitShutdownChurn) {
  // Repeatedly build a server, hammer it from more clients than
  // workers, and tear it down while requests are still in flight. The
  // tiny queue forces the full admission matrix -- served, queue-full
  // and shutdown rejections -- and shutdown racing submitAsync is
  // exactly the path where a lost promise would hang a client forever.
  const std::string Request = printModule(makeReluModule({64, 64}));
  const size_t Rounds = tsanScale(4, 2);
  constexpr unsigned Clients = 6;
  const size_t PerClient = tsanScale(24, 4);

  for (size_t Round = 0; Round < Rounds; ++Round) {
    ScheduleServer Server(stressServeOptions());
    std::atomic<unsigned> Unresolved{0};
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&] {
        for (size_t I = 0; I < PerClient; ++I) {
          std::future<Expected<ServeResponse>> F = Server.submitAsync(Request);
          // Every submission must resolve -- served or cleanly
          // rejected -- even when shutdown lands mid-flight. A dropped
          // promise surfaces as broken_promise here instead of a hang.
          try {
            (void)F.get();
          } catch (const std::future_error &) {
            Unresolved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });

    // Half the rounds shut down while clients are mid-hammer, half let
    // the destructor race the last submissions directly.
    if (Round % 2 == 0)
      Server.shutdown();
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(Unresolved.load(), 0u) << "round " << Round;
  }
}
