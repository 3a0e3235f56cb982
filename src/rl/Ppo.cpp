//===- Ppo.cpp ------------------------------------------------------------===//

#include "rl/Ppo.h"

#include "datasets/Dataset.h"
#include "nn/Gemm.h"
#include "nn/Ops.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace mlirrl;
using namespace mlirrl::nn;

PpoTrainer::PpoTrainer(ActorCritic &Agent, Evaluator &Eval, PpoConfig Config)
    : Agent(Agent), Eval(Eval), Engine(Agent, Eval), Config(Config),
      Optimizer(Agent.parameters(), Config.LearningRate),
      SampleRng(Config.Seed) {}

std::vector<RolloutEngine::Episode>
PpoTrainer::collectGroup(const std::vector<const Module *> &Samples,
                         const std::vector<uint64_t> &StreamKeys) const {
  // Derive each episode's private stream from its global sample index;
  // the engine's loop guarantees an episode only ever consumes its own
  // stream, which is what makes the result independent of batch width
  // and collection thread count.
  std::vector<Rng> Rngs;
  Rngs.reserve(StreamKeys.size());
  for (uint64_t Key : StreamKeys)
    Rngs.emplace_back(Rng::deriveSeed(Config.Seed, Key));
  std::vector<Rng *> RngPtrs(Rngs.size());
  for (size_t I = 0; I < Rngs.size(); ++I)
    RngPtrs[I] = &Rngs[I];

  RolloutEngine::Options Opts;
  Opts.RecordSteps = true;
  return Engine.sampleGroup(Samples, RngPtrs, Opts);
}

ThreadPool *PpoTrainer::collectionPool() {
  if (Config.CollectThreads == 1)
    return nullptr;
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Config.CollectThreads);
  return Pool.get();
}

ThreadPool *PpoTrainer::updatePool() {
  if (Config.UpdateThreads == 1)
    return nullptr;
  if (!GemmPool)
    GemmPool = std::make_unique<ThreadPool>(Config.UpdateThreads);
  return GemmPool.get();
}

PpoIterationStats
PpoTrainer::trainIteration(const std::vector<Module> &Dataset) {
  unsigned N = Config.SamplesPerIteration;
  std::vector<const Module *> Samples(N);
  for (unsigned I = 0; I < N; ++I) {
    Samples[I] = &Dataset[DatasetCursor % Dataset.size()];
    ++DatasetCursor;
  }
  return runIteration(Samples);
}

PpoIterationStats PpoTrainer::trainIteration(ShardedDataset &Stream) {
  // next() invalidates earlier references on shard switches, so the
  // iteration's draw is copied out of the stream first.
  unsigned N = Config.SamplesPerIteration;
  std::vector<Module> Drawn;
  Drawn.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Drawn.push_back(Stream.next());
  std::vector<const Module *> Samples(N);
  for (unsigned I = 0; I < N; ++I)
    Samples[I] = &Drawn[I];
  return runIteration(Samples);
}

PpoIterationStats
PpoTrainer::runIteration(const std::vector<const Module *> &Samples) {
  PpoIterationStats Stats;

  // Draw the RNG stream key of each episode up front; groups are then
  // embarrassingly parallel and the result is independent of both the
  // batch width and the thread count (streams are keyed by the global
  // sample index, merged back in sample order).
  unsigned N = static_cast<unsigned>(Samples.size());
  std::vector<uint64_t> StreamKeys(N);
  for (unsigned I = 0; I < N; ++I)
    StreamKeys[I] = EpisodeCounter++;

  unsigned Width = std::max(1u, Config.BatchWidth);
  unsigned Groups = (N + Width - 1) / Width;
  std::vector<std::vector<RolloutEngine::Episode>> GroupResults(Groups);
  auto RunGroup = [&](size_t G) {
    unsigned Begin = static_cast<unsigned>(G) * Width;
    unsigned End = std::min(N, Begin + Width);
    GroupResults[G] = collectGroup(
        {Samples.begin() + Begin, Samples.begin() + End},
        {StreamKeys.begin() + Begin, StreamKeys.begin() + End});
  };
  if (ThreadPool *P = collectionPool())
    P->parallelFor(Groups, RunGroup);
  else
    for (unsigned G = 0; G < Groups; ++G)
      RunGroup(G);

  RolloutBuffer Buffer;
  std::vector<double> Speedups;
  std::vector<double> Rewards;
  for (std::vector<RolloutEngine::Episode> &Group : GroupResults) {
    for (RolloutEngine::Episode &R : Group) {
      Rewards.push_back(R.Reward);
      Speedups.push_back(std::max(R.Speedup, 1e-9));
      Stats.MeasurementSeconds += R.MeasurementSeconds;
      Stats.NestMaterializations += R.NestMaterializations;
      for (RolloutStep &Step : R.Steps)
        Buffer.add(std::move(Step));
    }
  }
  Stats.MeanEpisodeReward = mean(Rewards);
  Stats.MeanSpeedup = geomean(Speedups);
  Stats.StepsCollected = static_cast<unsigned>(Buffer.size());

  Buffer.computeAdvantages(Config.Gamma, Config.Lambda);
  Buffer.normalizeAdvantages();
  update(Buffer, Stats);
  ++IterationsDone;
  return Stats;
}

namespace {

/// Installs the update pool into the GEMM kernels for the current
/// scope; the kernels stay serial when \p Pool is null.
struct GemmPoolScope {
  explicit GemmPoolScope(ThreadPool *Pool) { setGemmPool(Pool); }
  ~GemmPoolScope() { setGemmPool(nullptr); }
};

} // namespace

void PpoTrainer::update(const RolloutBuffer &Buffer,
                        PpoIterationStats &Stats) {
  GemmPoolScope PoolScope(updatePool());

  std::vector<size_t> Indices(Buffer.size());
  std::iota(Indices.begin(), Indices.end(), 0u);

  double PolicyLossAcc = 0.0, ValueLossAcc = 0.0, EntropyAcc = 0.0;
  unsigned MinibatchCount = 0;

  // 0 is treated as 1 (a restored checkpoint's config is not checked).
  const size_t Minibatch = std::max(1u, Config.MinibatchSize);
  for (unsigned Epoch = 0; Epoch < Config.UpdateEpochs; ++Epoch) {
    SampleRng.shuffle(Indices);
    for (size_t Start = 0; Start < Indices.size(); Start += Minibatch) {
      size_t End = std::min(Indices.size(), Start + Minibatch);
      unsigned B = static_cast<unsigned>(End - Start);

      // Pack the minibatch; the whole forward then runs as one GEMM per
      // network layer instead of one GEMV per sample.
      std::vector<const Observation *> Obs(B);
      std::vector<const AgentAction *> Actions(B);
      std::vector<double> OldLogProb(B), Advantage(B), Return(B);
      for (unsigned I = 0; I < B; ++I) {
        const RolloutStep &Step = Buffer.steps()[Indices[Start + I]];
        Obs[I] = &Step.Obs;
        Actions[I] = &Step.Action;
        OldLogProb[I] = Step.OldLogProb;
        Advantage[I] = Step.Advantage;
        Return[I] = Step.Return;
      }
      ActorCritic::BatchEvaluation Eval = Agent.evaluateBatch(Obs, Actions);

      // Clipped surrogate objective over the batch rows.
      Tensor Ratio = expOp(
          sub(Eval.LogProb, Tensor::fromData(B, 1, std::move(OldLogProb))));
      Tensor Adv = Tensor::fromData(B, 1, std::move(Advantage));
      Tensor Unclipped = hadamard(Ratio, Adv);
      Tensor Clipped = hadamard(
          clamp(Ratio, 1.0 - Config.ClipRange, 1.0 + Config.ClipRange), Adv);
      Tensor PolicyLoss = scale(meanAll(minOp(Unclipped, Clipped)), -1.0);

      // Value regression to the GAE returns.
      Tensor Diff =
          sub(Eval.Value, Tensor::fromData(B, 1, std::move(Return)));
      Tensor ValueLoss = meanAll(hadamard(Diff, Diff));

      Tensor Entropy = meanAll(Eval.Entropy);
      Tensor Loss =
          add(add(PolicyLoss, scale(ValueLoss, Config.ValueCoef)),
              scale(Entropy, -Config.EntropyCoef));

      Optimizer.zeroGrad();
      Loss.backward();
      // An Inf or NaN gradient would reach every parameter through the
      // step (and Adam's moments would keep it), so the minibatch is
      // dropped instead.
      if (std::isfinite(clipGradNorm(Agent.parameters(), Config.MaxGradNorm)))
        Optimizer.step();
      else
        recordRobustnessEvent(RobustnessEvent::NonFiniteUpdate);

      PolicyLossAcc += PolicyLoss.item();
      ValueLossAcc += ValueLoss.item();
      EntropyAcc += Entropy.item();
      ++MinibatchCount;
    }
  }
  if (MinibatchCount > 0) {
    Stats.PolicyLoss = PolicyLossAcc / MinibatchCount;
    Stats.ValueLoss = ValueLossAcc / MinibatchCount;
    Stats.Entropy = EntropyAcc / MinibatchCount;
  }
  // The optimizer stepped the parameters: any packed f32 copy of the
  // policy is stale.
  Agent.invalidateInferenceCache();
}

double PpoTrainer::evaluate(const Module &Sample, ModuleSchedule *Out) {
  // Greedy inference draws no RNG and evaluates no critic, so running
  // it as a width-1 engine group is bitwise-identical to the legacy
  // single-Environment loop (RolloutEquivalenceTest pins the pair).
  RolloutEngine::Options Opts;
  Opts.RecordSchedule = Out != nullptr;
  RolloutEngine::Episode E = Engine.greedy(Sample, Opts);
  if (Out)
    *Out = std::move(E.Schedule);
  return E.Speedup;
}
