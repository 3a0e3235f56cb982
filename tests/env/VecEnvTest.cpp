//===- VecEnvTest.cpp - Vectorized rollouts are exactly sequential ones ------===//
//
// The vectorized environment advances B episodes in lockstep through the
// batched policy path. Episode RNG streams are private per environment
// and the batched forward is bitwise row-identical to the single path,
// so a VecEnv rollout must reproduce B sequential single-environment
// rollouts *bitwise* -- same actions, log-probs, values and rewards.
// (Whole-training invariance to batch width and thread counts is swept
// by DeterminismMatrixTest; the shared helpers live in TestUtil.h.)
//
//===----------------------------------------------------------------------===//

#include "env/VecEnv.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "perf/Runner.h"
#include "rl/MlirRl.h"

#include <gtest/gtest.h>

using namespace mlirrl;
using mlirrl::testutil::tinyNet;

namespace {

std::vector<Module> testModules() {
  return {makeMatmulModule(64, 64, 64), makeReluModule({512, 128}),
          makeMatmulModule(128, 64, 32), makeReluModule({256, 256})};
}

/// One recorded step of a rollout, in plain doubles.
struct TraceStep {
  AgentAction Action;
  double LogProb = 0.0;
  double Value = 0.0;
  double Reward = 0.0;
};

/// Rolls every module sequentially through single Environments with
/// act(), one derived RNG stream per episode -- the reference the
/// vectorized path must reproduce.
std::vector<std::vector<TraceStep>>
rollSequential(const EnvConfig &Config, const ActorCritic &Agent,
               Evaluator &Eval, const std::vector<Module> &Samples,
               uint64_t Seed) {
  std::vector<std::vector<TraceStep>> Traces(Samples.size());
  for (unsigned E = 0; E < Samples.size(); ++E) {
    Rng EpisodeRng(Rng::deriveSeed(Seed, E));
    Environment Env(Config, Eval, Samples[E]);
    while (!Env.isDone()) {
      ActorCritic::Sampled S = Agent.act(Env.observe(), EpisodeRng);
      Environment::StepOutcome Out = Env.step(S.Action);
      Traces[E].push_back({S.Action, S.LogProb, S.Value, Out.Reward});
    }
  }
  return Traces;
}

/// Rolls the same modules through one lockstep VecEnv with actBatch().
std::vector<std::vector<TraceStep>>
rollVectorized(const EnvConfig &Config, const ActorCritic &Agent,
               Evaluator &Eval, std::vector<Module> Samples, uint64_t Seed) {
  unsigned B = static_cast<unsigned>(Samples.size());
  VecEnv Vec(Config, Eval, std::move(Samples));
  std::vector<Rng> Rngs;
  for (unsigned E = 0; E < B; ++E)
    Rngs.emplace_back(Rng::deriveSeed(Seed, E));

  std::vector<std::vector<TraceStep>> Traces(B);
  while (!Vec.allDone()) {
    std::vector<unsigned> Live = Vec.liveIndices();
    std::vector<const Observation *> Obs = Vec.observeLive();
    std::vector<Rng *> RngPtrs;
    for (unsigned Idx : Live)
      RngPtrs.push_back(&Rngs[Idx]);
    std::vector<ActorCritic::Sampled> Sampled = Agent.actBatch(Obs, RngPtrs);
    std::vector<AgentAction> Actions;
    for (const ActorCritic::Sampled &S : Sampled)
      Actions.push_back(S.Action);
    std::vector<VecEnv::StepOutcome> Outs = Vec.step(Actions);
    for (unsigned K = 0; K < Live.size(); ++K)
      Traces[Live[K]].push_back({Sampled[K].Action, Sampled[K].LogProb,
                                 Sampled[K].Value, Outs[K].Reward});
  }
  return Traces;
}

void expectSameTraces(const std::vector<std::vector<TraceStep>> &A,
                      const std::vector<std::vector<TraceStep>> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (unsigned E = 0; E < A.size(); ++E) {
    ASSERT_EQ(A[E].size(), B[E].size()) << "episode " << E;
    for (unsigned S = 0; S < A[E].size(); ++S) {
      const TraceStep &X = A[E][S];
      const TraceStep &Y = B[E][S];
      EXPECT_EQ(X.Action.Kind, Y.Action.Kind) << E << "/" << S;
      EXPECT_EQ(X.Action.TileSizeIdx, Y.Action.TileSizeIdx) << E << "/" << S;
      EXPECT_EQ(X.Action.PointerChoice, Y.Action.PointerChoice);
      EXPECT_EQ(X.Action.EnumeratedChoice, Y.Action.EnumeratedChoice);
      EXPECT_EQ(X.Action.FlatChoice, Y.Action.FlatChoice);
      EXPECT_SAME_BITS(X.LogProb, Y.LogProb);
      EXPECT_SAME_BITS(X.Value, Y.Value);
      EXPECT_SAME_BITS(X.Reward, Y.Reward);
    }
  }
}

} // namespace

TEST(VecEnvTest, BatchedRolloutsAreBitwiseSequentialRollouts) {
  EnvConfig Config = EnvConfig::laptop();
  Runner Run(MachineModel::xeonE5_2680v4());
  ActorCritic Agent(Config, Featurizer(Config).featureSize(), tinyNet(),
                    /*Seed=*/11);

  std::vector<Module> Samples = testModules();
  auto Sequential = rollSequential(Config, Agent, Run, Samples, /*Seed=*/40);
  auto Vectorized = rollVectorized(Config, Agent, Run, Samples, /*Seed=*/40);
  expectSameTraces(Sequential, Vectorized);
}

TEST(VecEnvTest, EnumeratedInterchangeRolloutsMatchToo) {
  EnvConfig Config = EnvConfig::laptop();
  Config.Interchange = InterchangeMode::Enumerated;
  Runner Run(MachineModel::xeonE5_2680v4());
  ActorCritic Agent(Config, Featurizer(Config).featureSize(), tinyNet(),
                    /*Seed=*/12);
  std::vector<Module> Samples = testModules();
  auto Sequential = rollSequential(Config, Agent, Run, Samples, /*Seed=*/41);
  auto Vectorized = rollVectorized(Config, Agent, Run, Samples, /*Seed=*/41);
  expectSameTraces(Sequential, Vectorized);
}

TEST(VecEnvTest, FlatActionSpaceRolloutsMatchToo) {
  EnvConfig Config = EnvConfig::laptop();
  Config.ActionSpace = ActionSpaceMode::Flat;
  Runner Run(MachineModel::xeonE5_2680v4());
  ActorCritic Agent(Config, Featurizer(Config).featureSize(), tinyNet(),
                    /*Seed=*/13);
  std::vector<Module> Samples = testModules();
  auto Sequential = rollSequential(Config, Agent, Run, Samples, /*Seed=*/42);
  auto Vectorized = rollVectorized(Config, Agent, Run, Samples, /*Seed=*/42);
  expectSameTraces(Sequential, Vectorized);
}

TEST(VecEnvTest, CachingEvaluatorPreservesRewardsAndCounts) {
  EnvConfig Config = EnvConfig::laptop();
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  ActorCritic Agent(Config, Featurizer(Config).featureSize(), tinyNet(),
                    /*Seed=*/14);

  Runner Direct(Machine);
  CostModelEvaluator Inner(Machine);
  CachingEvaluator Cached(Inner);

  std::vector<Module> Samples = testModules();
  auto Plain = rollVectorized(Config, Agent, Direct, Samples, /*Seed=*/43);
  auto Memoized = rollVectorized(Config, Agent, Cached, Samples, /*Seed=*/43);
  expectSameTraces(Plain, Memoized);

  HitMissCounters Counters = Cached.getOpCounters();
  EXPECT_GT(Counters.total(), 0u);
  // Every op price of the batch -- baselines included -- is now in the
  // per-op table, so replaying the same batch only hits.
  uint64_t MissesBefore = Counters.Misses.load(std::memory_order_relaxed);
  rollVectorized(Config, Agent, Cached, Samples, /*Seed=*/43);
  HitMissCounters After = Cached.getOpCounters();
  EXPECT_EQ(After.Misses.load(std::memory_order_relaxed), MissesBefore);
  EXPECT_GT(After.Hits.load(std::memory_order_relaxed),
            Counters.Hits.load(std::memory_order_relaxed));
}

//===----------------------------------------------------------------------===//
// Robustness: degenerate batches and malformed action vectors.
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

TEST(VecEnvRobustness, EmptyBatchIsInert) {
  EnvConfig Config = EnvConfig::laptop();
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  Runner Eval(Machine);
  uint64_t Before =
      robustnessCounter(RobustnessEvent::VecEnvEmptyBatch).Misses.load();
  VecEnv Vec(Config, Eval, {});
  EXPECT_EQ(Vec.size(), 0u);
  EXPECT_TRUE(Vec.allDone());
  EXPECT_TRUE(Vec.observeLive().empty());
  EXPECT_EQ(robustnessCounter(RobustnessEvent::VecEnvEmptyBatch).Misses.load(),
            Before + 1);
}

TEST(VecEnvRobustness, ActionArityMismatchStepsNothing) {
  EnvConfig Config = EnvConfig::laptop();
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  Runner Eval(Machine);
  VecEnv Vec(Config, Eval, testModules());
  ASSERT_EQ(Vec.liveIndices().size(), 4u);

  uint64_t Before = robustnessCounter(RobustnessEvent::VecEnvActionArityMismatch)
                        .Misses.load();
  // Two actions for four live environments: nothing may advance.
  std::vector<AgentAction> TooFew(2);
  std::vector<VecEnv::StepOutcome> Outs = Vec.step(TooFew);
  EXPECT_EQ(Outs.size(), 4u);
  for (const VecEnv::StepOutcome &Out : Outs) {
    EXPECT_DOUBLE_EQ(Out.Reward, 0.0);
    EXPECT_FALSE(Out.Done);
  }
  EXPECT_EQ(Vec.liveIndices().size(), 4u);
  EXPECT_EQ(robustnessCounter(RobustnessEvent::VecEnvActionArityMismatch)
                .Misses.load(),
            Before + 1);

  // The batch still finishes normally with well-formed actions.
  AgentAction Stop;
  Stop.Kind = TransformKind::NoTransformation;
  while (!Vec.allDone())
    Vec.step(std::vector<AgentAction>(Vec.liveIndices().size(), Stop));
}
