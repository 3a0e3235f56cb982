//===- bench_trainstep.cpp - Training-core throughput ------------------------===//
//
// The perf trajectory of the training core: ns per PPO train iteration
// (episode collection + updates), blocked-matmul GFLOP/s forward and
// through the backward products, and the per-op price memo's hit rate
// during training. scripts/bench_json.sh runs this binary with
// google-benchmark's JSON writer to produce BENCH_trainstep.json, the
// cross-PR comparison artifact.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "datasets/Sequences.h"
#include "env/Environment.h"
#include "nn/Gemm.h"
#include "nn/Ops.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace mlirrl;
using namespace mlirrl::bench;
using namespace mlirrl::nn;

namespace {

/// One full PPO training iteration at the laptop benchmark scale,
/// drawing its samples from the sharded dataset stream (the default
/// training shape since streaming landed). This is the number every
/// other bench amortizes; its inverse is training iterations per
/// second.
void BM_TrainIteration(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  MlirRl Sys(Options);
  ShardedDataset Stream(DatasetConfig::scaled(0.02), /*ShardSize=*/16);
  // Warm the memo layers once, then reset every cache counter: the hit
  // rates reported below cover exactly this repetition's timed
  // iterations.
  Sys.trainer().trainIteration(Stream);
  Stream.seek(0);
  resetCacheStats();
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Stream);
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
  CacheStatsRegistry::CategoryStats OpMemo =
      CacheStatsRegistry::instance().categoryStats("evaluator.op_memo");
  State.counters["op_memo_hit_rate"] = OpMemo.hitRate();
  State.counters["op_memo_lookups"] = static_cast<double>(OpMemo.total());
  CacheStatsRegistry::CategoryStats Reuse =
      CacheStatsRegistry::instance().categoryStats("state.price_reuse");
  State.counters["state_price_reuse_rate"] = Reuse.hitRate();
}

/// The pre-streaming workload (a fixed, fully materialized operator
/// dataset): the fixed-dataset path stays selectable and its number
/// stays comparable with earlier PRs' committed artifacts.
void BM_TrainIterationFixedDataset(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  MlirRl Sys(Options);
  std::vector<Module> Data = operatorTrainingSet();
  Sys.trainer().trainIteration(Data);
  resetCacheStats();
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Data);
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
  CacheStatsRegistry::CategoryStats OpMemo =
      CacheStatsRegistry::instance().categoryStats("evaluator.op_memo");
  State.counters["op_memo_hit_rate"] = OpMemo.hitRate();
  State.counters["op_memo_lookups"] = static_cast<double>(OpMemo.total());
}

/// Per-step environment cost in Immediate-reward mode on multi-op
/// modules -- the path the ScheduleState transaction layer targets
/// (Arg 0: 1 = incremental dirty-op pricing, 0 = the from-scratch
/// oracle; Arg 1: 0 = random operator sequences of a few ops, 1 =
/// MobileNetV2, a full model of dozens of ops, where the O(module) vs
/// O(dirty) gap is widest). Identical masked-random episodes either way
/// (the two paths are bitwise-equal); steps_per_s isolates the win.
void BM_ImmediateStepIncremental(benchmark::State &State) {
  EnvConfig Config = EnvConfig::laptop();
  Config.Reward = RewardMode::Immediate;
  Config.Incremental = State.range(0) != 0;
  CostModelEvaluator Eval(MachineModel::xeonE5_2680v4());

  Rng ModuleRng(21);
  std::vector<Module> Samples;
  if (State.range(1) == 0)
    for (unsigned I = 0; I < 4; ++I)
      Samples.push_back(generateOperatorSequence(ModuleRng));
  else
    Samples.push_back(makeMobileNetV2());

  uint64_t Steps = 0;
  unsigned Episode = 0;
  for (auto _ : State) {
    const Module &M = Samples[Episode % Samples.size()];
    Rng ActionRng(Rng::deriveSeed(77, Episode));
    ++Episode;
    Environment Env(Config, Eval, M);
    while (!Env.isDone()) {
      const Observation &Obs = Env.observe();
      AgentAction A;
      if (Obs.InPointerSequence) {
        A.Kind = TransformKind::Interchange;
        A.PointerChoice = static_cast<unsigned>(
            ActionRng.sampleWeighted(Obs.InterchangeMask));
      } else {
        A.Kind = static_cast<TransformKind>(
            ActionRng.sampleWeighted(Obs.TransformMask));
        A.TileSizeIdx.resize(Config.MaxLoops);
        for (unsigned &Idx : A.TileSizeIdx)
          Idx = static_cast<unsigned>(
              ActionRng.nextBounded(Config.NumTileSizes));
      }
      Env.step(A);
      ++Steps;
    }
    benchmark::DoNotOptimize(Env.currentSpeedup());
  }
  State.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}

/// Train iteration with parallel episode collection (0 = all hardware
/// threads); on a single-core host this measures pool overhead.
void BM_TrainIterationParallelCollect(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  Options.Ppo.CollectThreads = 0;
  MlirRl Sys(Options);
  std::vector<Module> Data = operatorTrainingSet();
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Data);
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
}

/// The shared striped evaluator memo under parallel collection (Arg =
/// memo shard count, 0 = memo disabled): 4 collector threads price
/// through one CachingEvaluator, so 1 shard reproduces the old
/// global-lock serialization and higher counts show what striping buys.
/// Rollouts are bitwise-identical across the whole sweep; the counters
/// record the evaluator-memo hit rate and the contended-acquisition
/// fraction of the shard locks.
void BM_TrainIterationMemoShards(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  Options.Ppo.CollectThreads = 4;
  Options.MemoizeEvaluations = State.range(0) != 0;
  Options.MemoShards = static_cast<unsigned>(State.range(0));
  MlirRl Sys(Options);
  std::vector<Module> Data = operatorTrainingSet();
  Sys.trainer().trainIteration(Data);
  resetCacheStats();
  uint64_t Steps = 0;
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Data);
    Steps += Stats.StepsCollected;
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
  State.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
  if (CachingEvaluator *Memo = Sys.memo()) {
    HitMissCounters Op = Memo->getOpCounters();
    State.counters["op_memo_hit_rate"] = Op.hitRate();
    ContentionCounters L = Memo->getOpContention();
    State.counters["op_memo_contended_rate"] = L.contendedRate();
  }
}

/// Collection-thread wall-clock sweep (Arg = CollectThreads; rollouts
/// are bitwise-identical across the sweep). scripts/bench_json.sh
/// --threads runs this matrix and records the multi-core numbers in
/// PERF.md.
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

/// Train-iteration throughput as a function of the vectorized-env batch
/// width (Arg = BatchWidth; 1 reproduces the PR-1 single-env path
/// bitwise). steps_per_s counts collected environment steps; the
/// rollouts are identical for every width, so the counter isolates the
/// GEMV -> GEMM batching win.
void BM_TrainIterationBatchWidth(benchmark::State &State) {
  MlirRlOptions Options = standardOptions(/*Iterations=*/0);
  Options.Ppo.BatchWidth = static_cast<unsigned>(State.range(0));
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

/// Forward blocked matmul at a square compute-bound size.
void BM_MatmulForward(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Rng R(7);
  std::vector<double> Ad(static_cast<size_t>(N) * N), Bd(Ad.size());
  for (double &V : Ad)
    V = R.nextDouble(-1, 1);
  for (double &V : Bd)
    V = R.nextDouble(-1, 1);
  Tensor A = Tensor::fromData(N, N, Ad);
  Tensor B = Tensor::fromData(N, N, Bd);
  for (auto _ : State) {
    Tensor C = matmul(A, B);
    benchmark::DoNotOptimize(C.data().data());
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * N * N * N * static_cast<double>(State.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

/// The float inference counterpart of BM_MatmulForward: the same
/// N x N x N product on the float gemmAccNN entry (the kernel the
/// packed f32 policy nets run on). The ratio against BM_MatmulForward
/// is the raw dtype speedup behind MlirRlOptions::Inference = F32.
void BM_MatmulForwardF32(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Rng R(7);
  std::vector<float> Af(static_cast<size_t>(N) * N), Bf(Af.size());
  for (float &V : Af)
    V = static_cast<float>(R.nextDouble(-1, 1));
  for (float &V : Bf)
    V = static_cast<float>(R.nextDouble(-1, 1));
  std::vector<float> C(Af.size(), 0.0f);
  for (auto _ : State) {
    gemmAccNN(N, N, N, Af.data(), N, Bf.data(), N, C.data(), N);
    benchmark::DoNotOptimize(C.data());
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * N * N * N * static_cast<double>(State.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

/// Forward + both backward products through autograd (the PPO update
/// path: dA = dC.B^T and dB = A^T.dC also run on the blocked kernels).
void BM_MatmulForwardBackward(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Rng R(8);
  std::vector<double> Ad(static_cast<size_t>(N) * N), Bd(Ad.size());
  for (double &V : Ad)
    V = R.nextDouble(-1, 1);
  for (double &V : Bd)
    V = R.nextDouble(-1, 1);
  for (auto _ : State) {
    Tensor A = Tensor::parameter(N, N, Ad);
    Tensor B = Tensor::parameter(N, N, Bd);
    Tensor Loss = sumAll(matmul(A, B));
    Loss.backward();
    benchmark::DoNotOptimize(A.grad().data());
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      6.0 * N * N * N * static_cast<double>(State.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

} // namespace

BENCHMARK(BM_TrainIteration)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainIterationFixedDataset)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ImmediateStepIncremental)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainIterationParallelCollect)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainIterationMemoShards)
    ->Arg(0)
    ->Arg(1)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainIterationBatchWidth)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
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
BENCHMARK(BM_MatmulForward)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MatmulForwardF32)
    ->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MatmulForwardBackward)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_MAIN();
