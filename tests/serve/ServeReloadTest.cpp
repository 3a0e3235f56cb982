//===- ServeReloadTest.cpp - Checkpoint reload under serving load -----------===//
//
// The stale-policy race the version-stamped inference cache closes: a
// server thread mid-greedy-rollout while another thread restores a
// checkpoint must never serve a torn or stale policy. Two frozen
// checkpoints are prepared once for the suite with their reference
// answers; then a reloader thread flips the server between them while
// client threads hammer requests, and every response must be
// bitwise-identical to one of the two references -- nothing in between,
// no crash, no hang. The hammer runs at Workers = 1 and Workers = 4:
// with several workers, distinct batches can be in flight on *both*
// sides of a reload, which is exactly the interleaving a torn policy
// swap would corrupt. Runs under the ci.sh --sanitize pass (TSan
// config), where a torn publication would be a reported race even if
// the values happened to coincide.
//
// Inference runs in F32 here on purpose: that is the path with the
// packed-policy snapshot cache (the race's subject); F64 recomputes
// from the master parameters every call.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "datasets/DnnOps.h"
#include "ir/Printer.h"
#include "rl/MlirRl.h"
#include "rl/Checkpoint.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

using namespace mlirrl;

namespace {

MlirRlOptions trainingOptions() {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Net = testutil::tinyNet();
  O.Ppo.SamplesPerIteration = 4;
  O.Iterations = 1;
  O.Seed = 303;
  return O;
}

ServeOptions matchingServeOptions() {
  MlirRlOptions Train = trainingOptions();
  ServeOptions O;
  O.Env = Train.Env;
  O.Net = Train.Net;
  O.Seed = 9;
  O.BatchWidth = 2;
  O.Inference = InferenceDtype::F32;
  return O;
}

} // namespace

/// Shares the expensive setup -- training two checkpoints and serving
/// their quiescent reference answers -- across the per-worker-count
/// hammer runs.
class ServeReloadTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Request = printModule(makeMatmulModule(96, 96, 96));

    // Two frozen policies: after one and after two training iterations.
    {
      MlirRl Sys(trainingOptions());
      std::vector<Module> Data = {makeMatmulModule(96, 96, 96)};
      Sys.train(Data);
      ASSERT_TRUE(saveCheckpoint(Sys.trainer(), PathA).hasValue());
      Sys.train(Data);
      ASSERT_TRUE(saveCheckpoint(Sys.trainer(), PathB).hasValue());
    }

    // Reference answers, served quiescently.
    ScheduleServer Server(matchingServeOptions());
    Expected<bool> LA = Server.loadPolicy(PathA);
    ASSERT_TRUE(LA.hasValue()) << LA.getError();
    Expected<ServeResponse> RA = Server.optimize(Request);
    ASSERT_TRUE(RA.hasValue()) << RA.getError();
    ScheduleA = RA->Schedule.toString();
    SpeedupA = RA->Speedup;

    Expected<bool> LB = Server.loadPolicy(PathB);
    ASSERT_TRUE(LB.hasValue()) << LB.getError();
    Expected<ServeResponse> RB = Server.optimize(Request);
    ASSERT_TRUE(RB.hasValue()) << RB.getError();
    ScheduleB = RB->Schedule.toString();
    SpeedupB = RB->Speedup;
    EXPECT_EQ(Server.stats().PolicyReloads, 2u);
  }

  static void TearDownTestSuite() {
    std::remove(PathA);
    std::remove(PathB);
  }

  /// Clients serve continuously while a reloader flips between the two
  /// checkpoints; every answer must match one reference exactly.
  static void hammerReloads(unsigned Workers) {
    ServeOptions O = matchingServeOptions();
    O.Workers = Workers;
    ScheduleServer Server(O);
    ASSERT_TRUE(Server.loadPolicy(PathA).hasValue());

    std::atomic<bool> Stop{false};
    std::atomic<unsigned> BadResponses{0};
    constexpr unsigned Clients = 4;

    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Clients; ++T)
      Threads.emplace_back([&] {
        while (!Stop.load(std::memory_order_relaxed)) {
          Expected<ServeResponse> R = Server.optimize(Request);
          if (!R.hasValue()) {
            // Only the bounded-admission rejection is acceptable here.
            if (R.getError().find("queue full") == std::string::npos)
              BadResponses.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          std::string Sched = R->Schedule.toString();
          bool MatchesA = Sched == ScheduleA &&
                          std::bit_cast<uint64_t>(R->Speedup) ==
                              std::bit_cast<uint64_t>(SpeedupA);
          bool MatchesB = Sched == ScheduleB &&
                          std::bit_cast<uint64_t>(R->Speedup) ==
                              std::bit_cast<uint64_t>(SpeedupB);
          if (!MatchesA && !MatchesB)
            BadResponses.fetch_add(1, std::memory_order_relaxed);
        }
      });

    for (unsigned Reload = 0; Reload < 12; ++Reload) {
      Expected<bool> L = Server.loadPolicy(Reload % 2 == 0 ? PathB : PathA);
      EXPECT_TRUE(L.hasValue()) << L.getError();
    }
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(BadResponses.load(), 0u) << "workers=" << Workers;
    EXPECT_GT(Server.stats().Served, 0u);
    EXPECT_EQ(Server.stats().PolicyReloads, 13u);
  }

  static constexpr const char *PathA = "serve_reload_a.ckpt";
  static constexpr const char *PathB = "serve_reload_b.ckpt";
  static std::string Request;
  static std::string ScheduleA, ScheduleB;
  static double SpeedupA, SpeedupB;
};

std::string ServeReloadTest::Request;
std::string ServeReloadTest::ScheduleA;
std::string ServeReloadTest::ScheduleB;
double ServeReloadTest::SpeedupA = 0.0;
double ServeReloadTest::SpeedupB = 0.0;

TEST_F(ServeReloadTest, ReloadUnderLoadServesOnlyCompletePolicies) {
  hammerReloads(1);
}

TEST_F(ServeReloadTest, ReloadUnderLoadWithFourWorkers) { hammerReloads(4); }

TEST_F(ServeReloadTest, LoadPolicyRejectsMissingAndMismatchedCheckpoints) {
  ScheduleServer Server(matchingServeOptions());
  EXPECT_FALSE(Server.loadPolicy("no_such_checkpoint.ckpt").hasValue());

  // An architecture mismatch must fail cleanly and keep serving on the
  // previous (fresh-initialized) policy.
  const std::string Path = "serve_reload_mismatch.ckpt";
  {
    MlirRlOptions Wide = trainingOptions();
    Wide.Net.LstmHidden = 32;
    Wide.Net.BackboneHidden = 32;
    MlirRl Sys(Wide);
    ASSERT_TRUE(saveCheckpoint(Sys.trainer(), Path).hasValue());
  }
  EXPECT_FALSE(Server.loadPolicy(Path).hasValue());
  EXPECT_EQ(Server.stats().PolicyReloads, 0u);
  Expected<ServeResponse> R =
      Server.optimize(printModule(makeReluModule({256, 256})));
  EXPECT_TRUE(R.hasValue());
  std::remove(Path.c_str());
}
