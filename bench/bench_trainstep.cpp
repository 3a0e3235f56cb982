//===- bench_trainstep.cpp - Training-core thread sweeps ---------------------===//
//
// Wall-clock time per PPO train iteration as a function of the trainer's
// thread counts (CollectThreads and UpdateThreads). perfbench's
// train_ops workload is the benchmark of record for iteration time and
// its layer split; these sweeps stay because no perfbench workload
// varies the thread counts. scripts/bench_json.sh --threads runs them
// with google-benchmark's JSON writer.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace mlirrl;
using namespace mlirrl::bench;

namespace {

/// Collection-thread wall-clock sweep (Arg = CollectThreads; rollouts
/// are bitwise-identical across the sweep).
void BM_TrainIterationCollectThreads(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  Options.Ppo.CollectThreads = static_cast<unsigned>(State.range(0));
  MlirRl Sys(Options);
  std::vector<Module> Data = operatorTrainingSet();
  uint64_t Steps = 0;
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Data);
    Steps += Stats.StepsCollected;
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
  State.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}

/// The batched update in isolation: minibatch GEMMs partitioned across
/// the ThreadPool (Arg = UpdateThreads; results are bitwise-invariant
/// to it).
void BM_TrainIterationUpdateThreads(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  Options.Ppo.UpdateThreads = static_cast<unsigned>(State.range(0));
  MlirRl Sys(Options);
  std::vector<Module> Data = operatorTrainingSet();
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Data);
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
}

} // namespace

BENCHMARK(BM_TrainIterationCollectThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainIterationUpdateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_MAIN();
