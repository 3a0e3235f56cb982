//===- ServeTest.cpp - Schedule server determinism and admission ------------===//
//
// The serving contract: (1) a module's answer is bitwise-identical
// whether it is served alone, inside a mixed batch, or under
// concurrent client threads (greedy rollouts draw no RNG and the
// batched forward is batch-invariant); (2) admission is bounded -- an
// over-capacity submission is a clean immediate rejection with a
// reason, never a hang; (3) malformed modules die at the import gate
// on the caller's thread.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "datasets/DnnOps.h"
#include "ir/Printer.h"
#include "support/Stats.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace mlirrl;

namespace {

ServeOptions tinyServeOptions() {
  ServeOptions O;
  O.Env = EnvConfig::laptop();
  O.Net = testutil::tinyNet();
  O.Seed = 77;
  O.BatchWidth = 4;
  return O;
}

std::string matmulText() { return printModule(makeMatmulModule(96, 96, 96)); }
std::string reluText() { return printModule(makeReluModule({512, 256})); }

} // namespace

TEST(ServeTest, SameModuleAloneAndInMixedBatchBitwise) {
  ScheduleServer Server(tinyServeOptions());

  Expected<ServeResponse> Alone = Server.optimize(matmulText());
  ASSERT_TRUE(Alone.hasValue()) << Alone.getError();

  // Queue a mixed batch while the worker is held, then release it so
  // all four are served as one lockstep group.
  Server.pauseWorker();
  auto F1 = Server.submitAsync(reluText());
  auto F2 = Server.submitAsync(matmulText());
  auto F3 = Server.submitAsync(reluText());
  auto F4 = Server.submitAsync(matmulText());
  Server.resumeWorker();

  Expected<ServeResponse> Mixed = F2.get();
  ASSERT_TRUE(Mixed.hasValue()) << Mixed.getError();
  EXPECT_SAME_BITS(Alone->Speedup, Mixed->Speedup);
  EXPECT_EQ(Alone->Schedule.toString(), Mixed->Schedule.toString());

  Expected<ServeResponse> MixedTail = F4.get();
  ASSERT_TRUE(MixedTail.hasValue());
  EXPECT_SAME_BITS(Alone->Speedup, MixedTail->Speedup);
  EXPECT_EQ(Alone->Schedule.toString(), MixedTail->Schedule.toString());
  ASSERT_TRUE(F1.get().hasValue());
  ASSERT_TRUE(F3.get().hasValue());

  ServeStats S = Server.stats();
  EXPECT_EQ(S.Served, 5u);
  EXPECT_EQ(S.RejectedImport + S.RejectedQueueFull + S.RejectedShutdown, 0u);
}

TEST(ServeTest, ConcurrentClientsGetBitwiseIdenticalAnswers) {
  ScheduleServer Server(tinyServeOptions());

  Expected<ServeResponse> Reference = Server.optimize(matmulText());
  ASSERT_TRUE(Reference.hasValue()) << Reference.getError();
  const std::string RefSchedule = Reference->Schedule.toString();
  const double RefSpeedup = Reference->Speedup;

  constexpr unsigned Threads = 4, PerThread = 3;
  std::vector<Expected<ServeResponse>> Responses(
      Threads * PerThread, makeError<ServeResponse>("unset"));
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < Threads; ++T)
    Clients.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        Responses[T * PerThread + I] = Server.optimize(matmulText());
    });
  for (std::thread &C : Clients)
    C.join();

  for (unsigned I = 0; I < Responses.size(); ++I) {
    ASSERT_TRUE(Responses[I].hasValue()) << Responses[I].getError();
    EXPECT_SAME_BITS(RefSpeedup, Responses[I]->Speedup) << "request " << I;
    EXPECT_EQ(RefSchedule, Responses[I]->Schedule.toString())
        << "request " << I;
  }
  // Cross-request memoization: repeated identical modules must hit the
  // shared memo, not re-price from scratch every time.
  EXPECT_GT(Server.stats().OpMemoHitRate, 0.0);
}

TEST(ServeTest, WorkerCountNeverChangesAnswers) {
  // Serve the same request mix at Workers = 1 and Workers = 4 under
  // concurrent clients. Batch composition is racy at 4 workers by
  // design; the answers must not be -- every response has to match the
  // single-worker reference bit for bit.
  std::string RefMatmulSchedule, RefReluSchedule;
  double RefMatmulSpeedup = 0.0, RefReluSpeedup = 0.0;
  for (unsigned Workers : {1u, 4u}) {
    ServeOptions O = tinyServeOptions();
    O.Workers = Workers;
    ScheduleServer Server(O);

    constexpr unsigned Threads = 4, PerThread = 3;
    std::vector<Expected<ServeResponse>> Responses(
        Threads * PerThread, makeError<ServeResponse>("unset"));
    std::vector<std::thread> Clients;
    for (unsigned T = 0; T < Threads; ++T)
      Clients.emplace_back([&, T] {
        for (unsigned I = 0; I < PerThread; ++I) {
          const unsigned Slot = T * PerThread + I;
          Responses[Slot] =
              Server.optimize(Slot % 2 ? reluText() : matmulText());
        }
      });
    for (std::thread &C : Clients)
      C.join();

    for (unsigned I = 0; I < Responses.size(); ++I)
      ASSERT_TRUE(Responses[I].hasValue())
          << "workers=" << Workers << " request " << I << ": "
          << Responses[I].getError();
    if (Workers == 1) {
      RefMatmulSchedule = Responses[0]->Schedule.toString();
      RefMatmulSpeedup = Responses[0]->Speedup;
      RefReluSchedule = Responses[1]->Schedule.toString();
      RefReluSpeedup = Responses[1]->Speedup;
    }
    for (unsigned I = 0; I < Responses.size(); ++I) {
      EXPECT_SAME_BITS(I % 2 ? RefReluSpeedup : RefMatmulSpeedup,
                       Responses[I]->Speedup)
          << "workers=" << Workers << " request " << I;
      EXPECT_EQ(I % 2 ? RefReluSchedule : RefMatmulSchedule,
                Responses[I]->Schedule.toString())
          << "workers=" << Workers << " request " << I;
    }
    EXPECT_EQ(Server.stats().Served, Threads * PerThread);
  }
}

TEST(ServeTest, BatchWidthZeroServesLikeWidthOne) {
  // BatchWidth 0 is treated as 1. A zero-wide batch would drain
  // nothing, so no future would resolve before shutdown; the bounded
  // waits turn that into a failure instead of a hang.
  std::vector<double> RefSpeedups;
  std::vector<std::string> RefSchedules;
  for (unsigned Width : {1u, 0u}) {
    ServeOptions O = tinyServeOptions();
    O.BatchWidth = Width;
    ScheduleServer Server(O);

    std::vector<std::future<Expected<ServeResponse>>> Futures;
    for (const std::string &Text : {matmulText(), reluText(), matmulText()})
      Futures.push_back(Server.submitAsync(Text));
    for (size_t I = 0; I < Futures.size(); ++I) {
      ASSERT_EQ(Futures[I].wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "width " << Width << " request " << I;
      Expected<ServeResponse> R = Futures[I].get();
      ASSERT_TRUE(R.hasValue()) << R.getError();
      if (Width == 1) {
        RefSpeedups.push_back(R->Speedup);
        RefSchedules.push_back(R->Schedule.toString());
        continue;
      }
      EXPECT_SAME_BITS(RefSpeedups[I], R->Speedup) << "request " << I;
      EXPECT_EQ(RefSchedules[I], R->Schedule.toString()) << "request " << I;
    }
    // One request per batch at either width.
    ServeStats S = Server.stats();
    EXPECT_EQ(S.Served, 3u) << "width " << Width;
    EXPECT_EQ(S.Batches, 3u) << "width " << Width;
  }
}

TEST(ServeTest, OverCapacitySubmissionRejectsImmediately) {
  ServeOptions O = tinyServeOptions();
  O.QueueCapacity = 2;
  ScheduleServer Server(O);

  uint64_t CounterBefore =
      robustnessCounter(RobustnessEvent::ServerQueueFull).total();

  Server.pauseWorker();
  auto F1 = Server.submitAsync(matmulText());
  auto F2 = Server.submitAsync(reluText());
  auto F3 = Server.submitAsync(matmulText()); // over capacity

  // The rejection must already be resolved -- no hang, no timeout.
  ASSERT_EQ(F3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Expected<ServeResponse> Rejected = F3.get();
  ASSERT_FALSE(Rejected.hasValue());
  EXPECT_NE(Rejected.getError().find("queue full"), std::string::npos)
      << Rejected.getError();
  EXPECT_EQ(robustnessCounter(RobustnessEvent::ServerQueueFull).total(),
            CounterBefore + 1);
  EXPECT_EQ(Server.stats().RejectedQueueFull, 1u);

  // The admitted requests still complete once the worker resumes.
  Server.resumeWorker();
  EXPECT_TRUE(F1.get().hasValue());
  EXPECT_TRUE(F2.get().hasValue());
  EXPECT_EQ(Server.stats().Served, 2u);
}

TEST(ServeTest, MalformedModuleRejectedAtTheGate) {
  ScheduleServer Server(tinyServeOptions());

  Expected<ServeResponse> R = Server.optimize("module @broken { %A = ");
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.getError().find("import rejected"), std::string::npos)
      << R.getError();
  EXPECT_EQ(Server.stats().RejectedImport, 1u);
  EXPECT_EQ(Server.stats().Served, 0u);

  // The gate also applies resource caps, not just syntax.
  ServeOptions Capped = tinyServeOptions();
  Capped.Limits.MaxSourceBytes = 8;
  ScheduleServer Small(Capped);
  EXPECT_FALSE(Small.optimize(matmulText()).hasValue());
}

TEST(ServeTest, ShutdownRejectsQueuedAndLaterSubmissions) {
  ServeOptions O = tinyServeOptions();
  ScheduleServer Server(O);

  Server.pauseWorker();
  auto Queued = Server.submitAsync(matmulText());
  Server.shutdown();

  Expected<ServeResponse> R = Queued.get();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.getError().find("shut down"), std::string::npos)
      << R.getError();

  Expected<ServeResponse> Late = Server.optimize(matmulText());
  ASSERT_FALSE(Late.hasValue());
  EXPECT_NE(Late.getError().find("shutting down"), std::string::npos);
  EXPECT_EQ(Server.stats().RejectedShutdown, 2u);
}
