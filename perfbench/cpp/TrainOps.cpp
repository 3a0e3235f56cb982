//===- TrainOps.cpp - train_ops: PPO iterations on the operator set -------===//
//
// PPO trainIteration on the fixed DNN-operator set drawn at the seed,
// with the laptop preset (48-wide nets), 16 samples per iteration,
// BatchWidth 8, CollectThreads 1 and UpdateThreads 2. The latency unit
// is one iteration; throughput is environment steps collected per
// second of iteration time; the speedup is the greedy geomean on a
// held-out operator set after separate, untimed trainings of fixed
// length, so it depends on the seed alone.
//
// The traced run trains a twin system through the same public calls
// trainIteration makes -- rolloutGroup with an actBatch action source,
// RolloutBuffer GAE, then evaluateBatch + loss ops, Tensor::backward,
// clipGradNorm and Adam::step per minibatch -- timing each call, and
// requires the twin's losses to equal trainIteration's bitwise.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "env/Featurizer.h"
#include "nn/Gemm.h"
#include "nn/Ops.h"
#include "rl/MlirRl.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace perfbench {

namespace {

/// Measured iterations per cycle. Each cycle restarts from a fresh
/// system on a freshly shuffled order of the set, so a run times many
/// early stretches of training: episodes shorten as the policy learns,
/// at a pace that differs by trajectory, and iteration time follows the
/// episode lengths.
constexpr unsigned CycleIterations = 25;
/// Separate, untimed trainings (on different sample orders) whose greedy
/// speedups on the held-out set are pooled, and their length. One
/// training's score swings with its trajectory; two halve that swing.
constexpr unsigned ScoredTrainings = 2;
constexpr unsigned ScoreAfterIterations = 100;
/// Setups per run; the median is reported.
constexpr unsigned Setups = 7;

MlirRlOptions trainOptions() {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Ppo.SamplesPerIteration = 16;
  O.Ppo.BatchWidth = 8;
  O.Ppo.CollectThreads = 1;
  O.Ppo.UpdateThreads = 2;
  return O;
}

/// The MlirRl composition (Runner -> striped memo -> agent -> trainer),
/// with the benchmark's timed memo in place of the default one.
struct TrainSystem {
  explicit TrainSystem(const MlirRlOptions &O)
      : Run(O.Machine, O.Runner), Memo(Run),
        Agent(O.Env, Featurizer(O.Env).featureSize(), O.Net, O.Seed),
        Trainer(Agent, Memo, O.Ppo) {
    Agent.setInferenceDtype(O.Inference);
  }

  Runner Run;
  TimedEvaluator Memo;
  ActorCritic Agent;
  PpoTrainer Trainer;
};

/// Per-iteration phase times of the replay.
struct ReplayPhases {
  Accum Collect, Action, Gae, Update, Forward, Backward, Clip, Optimizer;
  double PriceSeconds = 0.0;
  uint64_t PriceCalls = 0;
  uint64_t Steps = 0;
  uint64_t Minibatches = 0;
};

/// Installs \p Pool into the GEMM kernels for the current scope.
struct GemmPoolScope {
  explicit GemmPoolScope(ThreadPool *Pool) { setGemmPool(Pool); }
  ~GemmPoolScope() { setGemmPool(nullptr); }
  GemmPoolScope(const GemmPoolScope &) = delete;
  GemmPoolScope &operator=(const GemmPoolScope &) = delete;
};

/// trainIteration, re-assembled from the public calls it makes, with a
/// timer around each. Owns the trainer-side state trainIteration keeps
/// privately (sample RNG, episode counter, dataset cursor, optimizer).
class Replay {
public:
  Replay(TrainSystem &Sys, const PpoConfig &Config)
      : Sys(Sys), Config(Config), Engine(Sys.Agent, Sys.Memo),
        Optimizer(Sys.Agent.parameters(), Config.LearningRate),
        SampleRng(Config.Seed), Pool(Config.UpdateThreads) {}

  PpoIterationStats iterate(const std::vector<Module> &Dataset,
                            ReplayPhases &P, bool On) {
    PpoIterationStats Stats;
    const unsigned N = Config.SamplesPerIteration;
    std::vector<const Module *> Samples(N);
    std::vector<uint64_t> Keys(N);
    for (unsigned I = 0; I < N; ++I) {
      Samples[I] = &Dataset[Cursor++ % Dataset.size()];
      Keys[I] = EpisodeCounter++;
    }

    RolloutBuffer Buffer;
    double Price0 = Sys.Memo.pricedSeconds();
    uint64_t Calls0 = Sys.Memo.pricedCalls();
    {
      ScopedTimer T(P.Collect, On);
      RolloutEngine::ActionSource Source =
          [&](const std::vector<const Observation *> &Obs,
              const std::vector<Rng *> &Streams) {
            ScopedTimer A(P.Action, On);
            return Sys.Agent.actBatch(Obs, Streams);
          };
      RolloutEngine::Options Opts;
      Opts.RecordSteps = true;
      const unsigned Width = std::max(1u, Config.BatchWidth);
      for (unsigned Begin = 0; Begin < N; Begin += Width) {
        unsigned End = std::min(N, Begin + Width);
        std::vector<Rng> Rngs;
        Rngs.reserve(End - Begin);
        for (unsigned I = Begin; I < End; ++I)
          Rngs.emplace_back(Rng::deriveSeed(Config.Seed, Keys[I]));
        std::vector<Rng *> Ptrs;
        for (Rng &R : Rngs)
          Ptrs.push_back(&R);
        std::vector<RolloutEngine::Episode> Episodes = Engine.rolloutGroup(
            {Samples.begin() + Begin, Samples.begin() + End}, Ptrs, Source,
            Opts);
        for (RolloutEngine::Episode &E : Episodes)
          for (RolloutStep &S : E.Steps)
            Buffer.add(std::move(S));
      }
    }
    P.PriceSeconds += Sys.Memo.pricedSeconds() - Price0;
    P.PriceCalls += Sys.Memo.pricedCalls() - Calls0;
    P.Steps += Buffer.size();
    Stats.StepsCollected = static_cast<unsigned>(Buffer.size());

    {
      ScopedTimer T(P.Gae, On);
      Buffer.computeAdvantages(Config.Gamma, Config.Lambda);
      Buffer.normalizeAdvantages();
    }

    ScopedTimer T(P.Update, On);
    GemmPoolScope PoolScope(Pool.size() > 1 ? &Pool : nullptr);
    std::vector<size_t> Indices(Buffer.size());
    std::iota(Indices.begin(), Indices.end(), 0u);
    double PolicyAcc = 0.0, ValueAcc = 0.0, EntropyAcc = 0.0;
    unsigned Count = 0;
    for (unsigned Epoch = 0; Epoch < Config.UpdateEpochs; ++Epoch) {
      SampleRng.shuffle(Indices);
      for (size_t Start = 0; Start < Indices.size();
           Start += Config.MinibatchSize) {
        size_t End = std::min(Indices.size(),
                              Start + static_cast<size_t>(Config.MinibatchSize));
        unsigned B = static_cast<unsigned>(End - Start);
        Tensor PolicyLoss, ValueLoss, Entropy, Loss;
        {
          ScopedTimer F(P.Forward, On);
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
          ActorCritic::BatchEvaluation Eval =
              Sys.Agent.evaluateBatch(Obs, Actions);
          Tensor Ratio = expOp(sub(
              Eval.LogProb, Tensor::fromData(B, 1, std::move(OldLogProb))));
          Tensor Adv = Tensor::fromData(B, 1, std::move(Advantage));
          Tensor Unclipped = hadamard(Ratio, Adv);
          Tensor Clipped = hadamard(
              clamp(Ratio, 1.0 - Config.ClipRange, 1.0 + Config.ClipRange),
              Adv);
          PolicyLoss = scale(meanAll(minOp(Unclipped, Clipped)), -1.0);
          Tensor Diff =
              sub(Eval.Value, Tensor::fromData(B, 1, std::move(Return)));
          ValueLoss = meanAll(hadamard(Diff, Diff));
          Entropy = meanAll(Eval.Entropy);
          Loss = add(add(PolicyLoss, scale(ValueLoss, Config.ValueCoef)),
                     scale(Entropy, -Config.EntropyCoef));
        }
        {
          ScopedTimer O(P.Optimizer, On);
          Optimizer.zeroGrad();
        }
        {
          ScopedTimer Bw(P.Backward, On);
          Loss.backward();
        }
        {
          ScopedTimer C(P.Clip, On);
          clipGradNorm(Sys.Agent.parameters(), Config.MaxGradNorm);
        }
        {
          ScopedTimer O(P.Optimizer, On);
          Optimizer.step();
        }
        PolicyAcc += PolicyLoss.item();
        ValueAcc += ValueLoss.item();
        EntropyAcc += Entropy.item();
        ++Count;
      }
    }
    P.Minibatches += Count;
    if (Count > 0) {
      Stats.PolicyLoss = PolicyAcc / Count;
      Stats.ValueLoss = ValueAcc / Count;
      Stats.Entropy = EntropyAcc / Count;
    }
    Sys.Agent.invalidateInferenceCache();
    return Stats;
  }

private:
  TrainSystem &Sys;
  PpoConfig Config;
  RolloutEngine Engine;
  Adam Optimizer;
  Rng SampleRng;
  ThreadPool Pool;
  size_t Cursor = 0;
  uint64_t EpisodeCounter = 0;
};

bool finiteLosses(const PpoIterationStats &S) {
  return std::isfinite(S.PolicyLoss) && std::isfinite(S.ValueLoss) &&
         std::isfinite(S.Entropy);
}

bool sameLosses(const PpoIterationStats &A, const PpoIterationStats &B) {
  return A.PolicyLoss == B.PolicyLoss && A.ValueLoss == B.ValueLoss &&
         A.Entropy == B.Entropy && A.StepsCollected == B.StepsCollected;
}

/// Appends the greedy speedup on each of \p HeldOut to \p Speedups,
/// each schedule re-priced.
void heldOutSpeedups(PpoTrainer &Trainer, const std::vector<Module> &HeldOut,
                     std::vector<double> &Speedups, Record &R) {
  for (const Module &M : HeldOut) {
    ModuleSchedule Sched;
    double S = Trainer.evaluate(M, &Sched);
    std::string Err = checkSpeedup(M, Sched, S);
    if (!Err.empty())
      R.Errors.push_back("train_ops held-out: " + Err);
    Speedups.push_back(std::max(S, 1e-12));
  }
}

/// Cycle \p Cycle's sample order of \p Set: a seeded shuffle, so every
/// iteration's 16 samples mix operator kinds.
std::vector<Module> orderForCycle(const std::vector<Module> &Set,
                                  uint64_t Seed, unsigned Cycle) {
  std::vector<Module> Data = Set;
  Rng(Rng::deriveSeed(Seed, 100 + Cycle)).shuffle(Data);
  return Data;
}

double ms(const Accum &A, unsigned Iterations) {
  return Iterations ? A.Seconds * 1e3 / Iterations : 0.0;
}

/// The trainer under test plus, in traced runs, its replayed twin.
struct Systems {
  std::unique_ptr<TrainSystem> Sys, Twin;
  std::unique_ptr<Replay> Rep;

  /// Fresh systems after one warm-up iteration; returns false when the
  /// twin's warm-up losses differ from the trainer's.
  bool start(const MlirRlOptions &Opts, const std::vector<Module> &Data,
             bool Trace) {
    Rep.reset();
    Twin.reset();
    Sys = std::make_unique<TrainSystem>(Opts);
    PpoIterationStats First = Sys->Trainer.trainIteration(Data);
    if (!Trace)
      return true;
    Twin = std::make_unique<TrainSystem>(Opts);
    Twin->Memo.setTiming(true);
    Rep = std::make_unique<Replay>(*Twin, Opts.Ppo);
    ReplayPhases Unused;
    return sameLosses(First, Rep->iterate(Data, Unused, false));
  }
};

} // namespace

int runTrainOps(const RunArgs &Args, Record &R) {
  const MlirRlOptions Opts = trainOptions();
  std::vector<Module> Set, Data, HeldOut;
  Systems S;
  {
    // Each setup on the next CPU; the median is reported.
    CpuRotator SetupCpus(/*Span=*/2);
    for (unsigned I = 0; I < Setups; ++I) {
      S = Systems();
      SetupCpus.rotate();
      Clock::time_point T0 = Clock::now();
      Set = operatorSet(Args.Seed, 0.08);
      Data = orderForCycle(Set, Args.Seed, 0);
      HeldOut = operatorSet(Rng::deriveSeed(Args.Seed, 1), 0.2);
      S.start(Opts, Data, /*Trace=*/false);
      R.SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    }
  }
  if (Args.Trace && !S.start(Opts, Data, true))
    R.Errors.push_back("train_ops: replay diverged on the warm-up iteration");

  CacheStatsRegistry::instance().resetAll();
  ReplayPhases P;
  std::vector<double> IterMs, ReplayMs;
  double IterSeconds = 0.0;
  uint64_t Steps = 0;
  unsigned Iterations = 0;
  CpuRotator Rotator;
  while (IterSeconds < Args.Seconds) {
    if (Iterations > 0 && Iterations % CycleIterations == 0) {
      // Off the clock: the next cycle starts from a fresh system.
      Data = orderForCycle(Set, Args.Seed, Iterations / CycleIterations);
      if (!S.start(Opts, Data, Args.Trace))
        R.Errors.push_back("train_ops: replay diverged on a warm-up "
                           "iteration");
    }
    Rotator.maybeRotate();
    Clock::time_point T0 = Clock::now();
    PpoIterationStats Stats = S.Sys->Trainer.trainIteration(Data);
    double Dt = secondsBetween(T0, Clock::now());
    IterSeconds += Dt;
    ++Iterations;
    ++R.Attempted;
    Steps += Stats.StepsCollected;
    IterMs.push_back(Dt * 1e3);
    addLatency(R, 0, Dt * 1e3);
    if (!finiteLosses(Stats)) {
      ++R.Failed;
      R.Errors.push_back("train_ops: non-finite loss");
    }
    if (S.Rep) {
      Clock::time_point T1 = Clock::now();
      PpoIterationStats Mirror = S.Rep->iterate(Data, P, true);
      double Rt = secondsBetween(T1, Clock::now());
      ReplayMs.push_back(Rt * 1e3);
      IterSeconds += Rt;
      if (!sameLosses(Stats, Mirror))
        R.Errors.push_back("train_ops: replay losses differ from "
                           "trainIteration at iteration " +
                           std::to_string(Iterations));
    }
  }
  R.Failed += robustnessCount(RobustnessEvent::RolloutStepCapHit);
  const uint64_t CheckRejects =
      robustnessCount(RobustnessEvent::PostTransformCheckFailed);
  // Off the clock: the speedup of fixed-length trainings.
  std::vector<double> Speedups;
  for (unsigned T = 0; T < ScoredTrainings; ++T) {
    TrainSystem Scored(Opts);
    const std::vector<Module> Order = orderForCycle(Set, Args.Seed, T);
    for (unsigned I = 0; I < ScoreAfterIterations; ++I)
      if (!finiteLosses(Scored.Trainer.trainIteration(Order)))
        R.Errors.push_back("train_ops: non-finite loss while scoring");
    heldOutSpeedups(Scored.Trainer, HeldOut, Speedups, R);
  }
  R.SpeedupGeomean = geomean(Speedups);
  double TrainSeconds = 0.0;
  for (double L : IterMs)
    TrainSeconds += L * 1e-3;
  R.ThroughputPerS = static_cast<double>(Steps) / TrainSeconds;
  R.Notes["iterations"] = Iterations;
  R.Notes["held_out_modules"] = static_cast<double>(HeldOut.size());
  R.Notes["cycle_iterations"] = CycleIterations;
  R.Notes["scored_trainings"] = ScoredTrainings;
  R.Notes["score_after_iterations"] = ScoreAfterIterations;

  if (!Args.Trace)
    return 0;
  const unsigned It = Iterations;
  double Steps1 = static_cast<double>(std::max<uint64_t>(P.Steps, 1));
  double ActionS = P.Action.Seconds, PriceS = P.PriceSeconds;
  double EnvS = P.Collect.Seconds - ActionS - PriceS;
  R.Layers["rl.collect_ms"] = ms(P.Collect, It);
  R.Layers["rl.policy_sample_ms"] = ActionS * 1e3 / It;
  R.Layers["perf.price_ms"] = PriceS * 1e3 / It;
  R.Layers["env.step_ms"] = EnvS * 1e3 / It;
  R.Layers["rl.gae_ms"] = ms(P.Gae, It);
  R.Layers["rl.update_ms"] = ms(P.Update, It);
  R.Layers["nn.forward_ms"] = ms(P.Forward, It);
  R.Layers["nn.backward_ms"] = ms(P.Backward, It);
  R.Layers["nn.clip_ms"] = ms(P.Clip, It);
  R.Layers["nn.adam_ms"] = ms(P.Optimizer, It);
  R.Layers["rl.steps_per_iter"] = static_cast<double>(P.Steps) / It;
  R.Layers["rl.minibatches_per_iter"] = static_cast<double>(P.Minibatches) / It;
  R.Layers["env.step_us"] = EnvS * 1e6 / Steps1;
  R.Layers["rl.action_us"] = ActionS * 1e6 / Steps1;
  R.Layers["perf.price_us"] = PriceS * 1e6 / Steps1;
  R.Layers["perf.price_calls"] = static_cast<double>(P.PriceCalls) / Steps1;
  // Both systems step identical episodes, so halve the shared tally.
  R.Layers["env.check_reject_frac"] =
      static_cast<double>(CheckRejects) / 2.0 / Steps1;
  addMemoHitRates(R);
  double ReplaySum = 0.0;
  for (double V : ReplayMs)
    ReplaySum += V;
  R.Layers["trace.overhead_frac"] = median(ReplayMs) / median(IterMs);
  R.Layers["trace.phase_sum_frac"] =
      (P.Collect.Seconds + P.Gae.Seconds + P.Update.Seconds) * 1e3 / ReplaySum;
  return 0;
}

} // namespace perfbench
