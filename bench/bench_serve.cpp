//===- bench_serve.cpp - Schedule-server throughput and tail latency --------===//
//
// The serving numbers: requests/s and per-request latency percentiles
// of a ScheduleServer answering optimize() calls end to end -- import
// gate, admission queue, lockstep greedy batch, response. The policy is
// fresh-initialized (serving cost does not depend on the weight
// values); requests round-robin over three operator modules, so after
// the first touch the shared striped memo serves prices from cache and
// the numbers show steady-state serving, which is the production shape
// (a compile service sees the same operators over and over).
//
// BM_ServeLatency is single-client and records exact p50/p99 over its
// own request stream. BM_ServeThroughput hammers one shared server from
// {1, 2, 4, 8} client threads; items_processed counts requests, so the
// reported rate is requests/s across all clients. BM_ServeWorkerSweep
// holds the client load fixed (4 threads) and sweeps the *server's*
// worker count instead -- the knob ServeOptions::Workers adds; answers
// are worker-invariant, so the sweep moves only throughput. On a 1-core
// box both sweeps measure batching + admission overhead, not parallel
// speedup -- scripts/bench_json.sh --serve records nproc alongside and
// prunes the worker sweep to the host's cores for that reason.
//
//===----------------------------------------------------------------------===//

#include "datasets/DnnOps.h"
#include "ir/Printer.h"
#include "serve/Server.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace mlirrl;

namespace {

ServeOptions benchServeOptions() {
  ServeOptions O;
  O.Env = EnvConfig::laptop();
  O.Net.LstmHidden = 16;
  O.Net.BackboneHidden = 16;
  O.Seed = 1234;
  O.BatchWidth = 8;
  O.QueueCapacity = 256;
  return O;
}

const std::vector<std::string> &requestTexts() {
  static const std::vector<std::string> Texts = {
      printModule(makeMatmulModule(96, 96, 96)),
      printModule(makeReluModule({512, 256})),
      printModule(makeMatmulModule(64, 128, 64)),
  };
  return Texts;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  std::nth_element(Sorted.begin(), Sorted.begin() + Idx, Sorted.end());
  return Sorted[Idx];
}

/// Single client, one request per iteration; exact per-request latency
/// distribution over the run, reported as p50/p99 counters in
/// microseconds.
void BM_ServeLatency(benchmark::State &State) {
  ScheduleServer Server(benchServeOptions());
  const std::vector<std::string> &Texts = requestTexts();

  // Warm the memo so the timed stream is steady-state.
  for (const std::string &T : Texts)
    if (!Server.optimize(T))
      State.SkipWithError("warmup request rejected");

  std::vector<double> SamplesUs;
  SamplesUs.reserve(4096);
  size_t Next = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    Expected<ServeResponse> R = Server.optimize(Texts[Next++ % Texts.size()]);
    auto T1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(R);
    if (!R) {
      State.SkipWithError("request rejected");
      break;
    }
    SamplesUs.push_back(
        std::chrono::duration<double, std::micro>(T1 - T0).count());
  }
  State.SetItemsProcessed(static_cast<int64_t>(SamplesUs.size()));
  State.counters["p50_us"] = percentile(SamplesUs, 0.50);
  State.counters["p99_us"] = percentile(SamplesUs, 0.99);
  ServeStats S = Server.stats();
  State.counters["op_memo_hit_rate"] = S.OpMemoHitRate;
}

/// One shared server per run; thread 0 owns setup/teardown
/// (google-benchmark barriers the threads around the timed loop). All
/// client threads submit round-robin, offset so a lockstep batch mixes
/// modules.
ScheduleServer *SharedServer = nullptr;

void BM_ServeThroughput(benchmark::State &State) {
  const std::vector<std::string> &Texts = requestTexts();
  if (State.thread_index() == 0) {
    SharedServer = new ScheduleServer(benchServeOptions());
    for (const std::string &T : Texts)
      if (!SharedServer->optimize(T))
        State.SkipWithError("warmup request rejected");
  }

  size_t Next = static_cast<size_t>(State.thread_index());
  int64_t Served = 0;
  for (auto _ : State) {
    Expected<ServeResponse> R =
        SharedServer->optimize(Texts[Next++ % Texts.size()]);
    benchmark::DoNotOptimize(R);
    if (!R) {
      State.SkipWithError("request rejected");
      break;
    }
    ++Served;
  }
  State.SetItemsProcessed(Served);

  if (State.thread_index() == 0) {
    ServeStats S = SharedServer->stats();
    State.counters["batches"] = static_cast<double>(S.Batches);
    State.counters["requests_per_batch"] =
        S.Batches ? static_cast<double>(S.Served) /
                        static_cast<double>(S.Batches)
                  : 0.0;
    State.counters["op_memo_hit_rate"] = S.OpMemoHitRate;
    delete SharedServer;
    SharedServer = nullptr;
  }
}

/// Fixed 4-thread client load, server worker count swept via the
/// benchmark argument (the shared-server pattern from
/// BM_ServeThroughput, with Workers set at construction).
void BM_ServeWorkerSweep(benchmark::State &State) {
  const std::vector<std::string> &Texts = requestTexts();
  if (State.thread_index() == 0) {
    ServeOptions O = benchServeOptions();
    O.Workers = static_cast<unsigned>(State.range(0));
    SharedServer = new ScheduleServer(O);
    for (const std::string &T : Texts)
      if (!SharedServer->optimize(T))
        State.SkipWithError("warmup request rejected");
  }

  size_t Next = static_cast<size_t>(State.thread_index());
  int64_t Served = 0;
  for (auto _ : State) {
    Expected<ServeResponse> R =
        SharedServer->optimize(Texts[Next++ % Texts.size()]);
    benchmark::DoNotOptimize(R);
    if (!R) {
      State.SkipWithError("request rejected");
      break;
    }
    ++Served;
  }
  State.SetItemsProcessed(Served);

  if (State.thread_index() == 0) {
    ServeStats S = SharedServer->stats();
    State.counters["batches"] = static_cast<double>(S.Batches);
    State.counters["requests_per_batch"] =
        S.Batches ? static_cast<double>(S.Served) /
                        static_cast<double>(S.Batches)
                  : 0.0;
    delete SharedServer;
    SharedServer = nullptr;
  }
}

} // namespace

// Real time on all: a request's cost is wall-clock waiting on a server
// worker, not caller-side CPU.
BENCHMARK(BM_ServeLatency)->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeThroughput)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeWorkerSweep)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_MAIN();
