//===- ServeRaceTest.cpp - Clients vs reloads vs shutdown, all at once ----===//
//
// ServeReloadTest pins reload correctness and TsanStressTest pins
// submit/shutdown liveness; this test runs all three actors
// simultaneously: client threads hammering optimize(), a reloader
// thread flipping between two frozen checkpoints, and shutdown landing
// while both are mid-flight. The contract under that full collision:
//
//  * no lost promises -- every submission resolves, served or rejected
//    with a reason, never a hang or a broken future;
//  * every served answer is bitwise one of the two reference answers
//    (worker- and batch-invariant, no torn or blended policy);
//  * loadPolicy racing shutdown either completes or fails cleanly.
//
// Runs in the normal build and under scripts/ci.sh --sanitize=thread,
// where the same interleavings must also produce zero TSan reports.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "datasets/DnnOps.h"
#include "ir/Printer.h"
#include "rl/Checkpoint.h"
#include "rl/MlirRl.h"
#include "support/TsanAnnotations.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace mlirrl;

namespace {

MlirRlOptions trainingOptions() {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Net = testutil::tinyNet();
  O.Ppo.SamplesPerIteration = 4;
  O.Iterations = 1;
  O.Seed = 1717;
  return O;
}

ServeOptions matchingServeOptions() {
  MlirRlOptions Train = trainingOptions();
  ServeOptions O;
  O.Env = Train.Env;
  O.Net = Train.Net;
  O.Seed = 21;
  O.BatchWidth = 2;
  O.Inference = InferenceDtype::F32;
  return O;
}

} // namespace

/// Trains the two checkpoints and records their quiescent reference
/// answers once for every worker-count variant below.
class ServeRaceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Request = printModule(makeMatmulModule(96, 96, 96));

    {
      MlirRl Sys(trainingOptions());
      std::vector<Module> Data = {makeMatmulModule(96, 96, 96)};
      Sys.train(Data);
      ASSERT_TRUE(saveCheckpoint(Sys.trainer(), PathA).hasValue());
      Sys.train(Data);
      ASSERT_TRUE(saveCheckpoint(Sys.trainer(), PathB).hasValue());
    }

    ScheduleServer Server(matchingServeOptions());
    for (const char *Path : {PathA, PathB}) {
      Expected<bool> L = Server.loadPolicy(Path);
      ASSERT_TRUE(L.hasValue()) << L.getError();
      Expected<ServeResponse> R = Server.optimize(Request);
      ASSERT_TRUE(R.hasValue()) << R.getError();
      References.push_back(
          {R->Schedule.toString(), std::bit_cast<uint64_t>(R->Speedup)});
    }
  }

  static void TearDownTestSuite() {
    std::remove(PathA);
    std::remove(PathB);
  }

  static bool matchesReference(const ServeResponse &R) {
    std::string Sched = R.Schedule.toString();
    uint64_t Bits = std::bit_cast<uint64_t>(R.Speedup);
    for (const auto &[RefSched, RefBits] : References)
      if (Sched == RefSched && Bits == RefBits)
        return true;
    return false;
  }

  /// The three-way collision. \p ShutdownMidFlight = false keeps the
  /// clients-vs-reloads phase pure and shuts down only after everyone
  /// stopped; true drops shutdown into the middle of both.
  static void collide(unsigned Workers, bool ShutdownMidFlight) {
    ServeOptions O = matchingServeOptions();
    O.Workers = Workers;
    O.QueueCapacity = 16;
    ScheduleServer Server(O);
    ASSERT_TRUE(Server.loadPolicy(PathA).hasValue());

    constexpr unsigned Clients = 4;
    const size_t PerClient = tsanScale(30, 4);
    const size_t Reloads = tsanScale(16, 4);

    std::atomic<unsigned> BadAnswers{0};
    std::atomic<unsigned> BadRejections{0};
    std::atomic<unsigned> LostPromises{0};
    std::atomic<uint64_t> ServedSeen{0};

    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&] {
        for (size_t I = 0; I < PerClient; ++I) {
          std::future<Expected<ServeResponse>> F = Server.submitAsync(Request);
          Expected<ServeResponse> R = [&] {
            try {
              return F.get();
            } catch (const std::future_error &) {
              LostPromises.fetch_add(1, std::memory_order_relaxed);
              return makeError<ServeResponse>("broken promise");
            }
          }();
          if (!R.hasValue()) {
            // The only legitimate rejections under this load are the
            // bounded queue and shutdown; anything else (import errors
            // on a known-good module, torn-policy failures) is a bug.
            if (R.getError().find("queue full") == std::string::npos &&
                R.getError().find("shut") == std::string::npos &&
                R.getError().find("broken promise") == std::string::npos)
              BadRejections.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          ServedSeen.fetch_add(1, std::memory_order_relaxed);
          if (!matchesReference(*R))
            BadAnswers.fetch_add(1, std::memory_order_relaxed);
        }
      });

    // The reloader races the clients (and possibly shutdown). Once
    // shutdown can land concurrently, a clean failure is acceptable;
    // silent corruption is not (the answer check above would catch it).
    std::thread Reloader([&] {
      for (size_t R = 0; R < Reloads; ++R) {
        Expected<bool> L = Server.loadPolicy(R % 2 == 0 ? PathB : PathA);
        if (!ShutdownMidFlight)
          EXPECT_TRUE(L.hasValue()) << L.getError();
      }
    });

    if (ShutdownMidFlight)
      Server.shutdown();

    for (std::thread &T : Threads)
      T.join();
    Reloader.join();

    EXPECT_EQ(LostPromises.load(), 0u) << "workers=" << Workers;
    EXPECT_EQ(BadAnswers.load(), 0u) << "workers=" << Workers;
    EXPECT_EQ(BadRejections.load(), 0u) << "workers=" << Workers;
    if (!ShutdownMidFlight) {
      // Without early shutdown nothing else may reject, so the clients'
      // served tally must match the server's own accounting.
      EXPECT_EQ(Server.stats().Served, ServedSeen.load());
      EXPECT_GT(ServedSeen.load(), 0u);
    }
  }

  static constexpr const char *PathA = "serve_race_a.ckpt";
  static constexpr const char *PathB = "serve_race_b.ckpt";
  static std::string Request;
  static std::vector<std::pair<std::string, uint64_t>> References;
};

std::string ServeRaceTest::Request;
std::vector<std::pair<std::string, uint64_t>> ServeRaceTest::References;

TEST_F(ServeRaceTest, ClientsVsReloadsSingleWorker) {
  collide(/*Workers=*/1, /*ShutdownMidFlight=*/false);
}

TEST_F(ServeRaceTest, ClientsVsReloadsFourWorkers) {
  collide(/*Workers=*/4, /*ShutdownMidFlight=*/false);
}

TEST_F(ServeRaceTest, ShutdownLandsMidCollision) {
  collide(/*Workers=*/4, /*ShutdownMidFlight=*/true);
}
