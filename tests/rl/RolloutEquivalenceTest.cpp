//===- RolloutEquivalenceTest.cpp - Engine vs legacy loop, bitwise ----------===//
//
// The RolloutEngine extraction's safety net: the engine replaced three
// hand-rolled episode loops (PPO collection inside PpoTrainer, the
// greedy single-Environment loop inside evaluate(), and the random
// search baseline's loop). These tests keep verbatim replicas of the
// legacy loops and assert the engine's trajectories are bitwise
// identical per seed -- any drift in step caps, done-handling, reward
// accounting or RNG consumption order fails here first, with a readable
// diff instead of a mysteriously changed training curve.
//
// The random baseline is the one deliberate exception: its old loop
// over-sampled tile levels (one RNG draw per MaxLoops level, where the
// policy heads draw one per *present* loop), so its trajectories were
// NOT policy-shaped. That fix is pinned by its own regression test
// below rather than by replica equality.
//
//===----------------------------------------------------------------------===//

#include "rl/RolloutEngine.h"

#include "baselines/RandomSearch.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"
#include "env/VecEnv.h"
#include "perf/Runner.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace mlirrl;

namespace {

void expectSameAction(const AgentAction &A, const AgentAction &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.TileSizeIdx, B.TileSizeIdx);
  EXPECT_EQ(A.EnumeratedChoice, B.EnumeratedChoice);
  EXPECT_EQ(A.PointerChoice, B.PointerChoice);
  EXPECT_EQ(A.FlatChoice, B.FlatChoice);
}

struct EquivalenceFixture : ::testing::Test {
  EnvConfig Config = EnvConfig::laptop();
  NetConfig Net = testutil::tinyNet();
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  Runner Run{Machine};
  unsigned FeatureSize = Featurizer(Config).featureSize();

  std::vector<Module> Samples = {makeMatmulModule(96, 96, 96),
                                 makeReluModule({512, 256}),
                                 makeMatmulModule(64, 128, 64)};
};

/// The PPO collection loop exactly as PpoTrainer::collectGroup shipped
/// it before the extraction (modulo the trainer's member plumbing).
struct LegacyEpisode {
  double Reward = 0.0;
  double Speedup = 1.0;
  double MeasurementSeconds = 0.0;
  uint64_t NestMaterializations = 0;
  std::vector<RolloutStep> Steps;
};

std::vector<LegacyEpisode>
legacyCollectGroup(const ActorCritic &Agent, Evaluator &Eval,
                   const std::vector<const Module *> &Samples,
                   const std::vector<uint64_t> &StreamKeys, uint64_t Seed) {
  unsigned B = static_cast<unsigned>(Samples.size());
  std::vector<Module> Copies;
  Copies.reserve(B);
  for (const Module *M : Samples)
    Copies.push_back(*M);
  VecEnv Vec(Agent.getEnvConfig(), Eval, std::move(Copies));

  std::vector<Rng> Rngs;
  Rngs.reserve(B);
  for (uint64_t Key : StreamKeys)
    Rngs.emplace_back(Rng::deriveSeed(Seed, Key));

  std::vector<LegacyEpisode> Results(B);
  while (!Vec.allDone()) {
    std::vector<unsigned> Live = Vec.liveIndices();
    std::vector<const Observation *> ObsPtrs = Vec.observeLive();
    std::vector<Observation> ObsCopies;
    ObsCopies.reserve(Live.size());
    for (const Observation *Obs : ObsPtrs)
      ObsCopies.push_back(*Obs);

    std::vector<Rng *> RngPtrs(Live.size());
    for (unsigned K = 0; K < Live.size(); ++K)
      RngPtrs[K] = &Rngs[Live[K]];

    std::vector<ActorCritic::Sampled> Sampled =
        Agent.actBatch(ObsPtrs, RngPtrs);
    std::vector<AgentAction> Actions(Live.size());
    for (unsigned K = 0; K < Live.size(); ++K)
      Actions[K] = Sampled[K].Action;
    std::vector<VecEnv::StepOutcome> Outs = Vec.step(Actions);

    for (unsigned K = 0; K < Live.size(); ++K) {
      LegacyEpisode &Episode = Results[Live[K]];
      RolloutStep Step;
      Step.Obs = std::move(ObsCopies[K]);
      Step.Action = std::move(Sampled[K].Action);
      Step.OldLogProb = Sampled[K].LogProb;
      Step.Value = Sampled[K].Value;
      Step.Reward = Outs[K].Reward;
      Step.EpisodeEnd = Outs[K].Done;
      Episode.Steps.push_back(std::move(Step));
      Episode.Reward += Outs[K].Reward;
    }
  }

  for (unsigned I = 0; I < B; ++I) {
    Results[I].Speedup = Vec.env(I).currentSpeedup();
    Results[I].MeasurementSeconds = Vec.env(I).getMeasurementSeconds();
    Results[I].NestMaterializations =
        Vec.env(I).getState().counters().NestMaterializations;
  }
  return Results;
}

} // namespace

TEST_F(EquivalenceFixture, SamplingGroupMatchesLegacyCollectLoopBitwise) {
  for (uint64_t Seed : {7u, 1234u}) {
    ActorCritic Agent(Config, FeatureSize, Net, Seed);

    std::vector<const Module *> Ptrs;
    for (const Module &M : Samples)
      Ptrs.push_back(&M);
    std::vector<uint64_t> Keys = {0, 1, 2};

    std::vector<LegacyEpisode> Legacy =
        legacyCollectGroup(Agent, Run, Ptrs, Keys, Seed);

    RolloutEngine Engine(Agent, Run);
    std::vector<Rng> Rngs;
    for (uint64_t Key : Keys)
      Rngs.emplace_back(Rng::deriveSeed(Seed, Key));
    std::vector<Rng *> RngPtrs;
    for (Rng &R : Rngs)
      RngPtrs.push_back(&R);
    RolloutEngine::Options Opts;
    Opts.RecordSteps = true;
    std::vector<RolloutEngine::Episode> Current =
        Engine.sampleGroup(Ptrs, RngPtrs, Opts);

    ASSERT_EQ(Legacy.size(), Current.size());
    for (size_t I = 0; I < Legacy.size(); ++I) {
      EXPECT_SAME_BITS(Legacy[I].Reward, Current[I].Reward) << "episode " << I;
      EXPECT_SAME_BITS(Legacy[I].Speedup, Current[I].Speedup)
          << "episode " << I;
      EXPECT_SAME_BITS(Legacy[I].MeasurementSeconds,
                       Current[I].MeasurementSeconds)
          << "episode " << I;
      EXPECT_EQ(Legacy[I].NestMaterializations,
                Current[I].NestMaterializations)
          << "episode " << I;
      ASSERT_EQ(Legacy[I].Steps.size(), Current[I].Steps.size())
          << "episode " << I;
      for (size_t S = 0; S < Legacy[I].Steps.size(); ++S) {
        const RolloutStep &L = Legacy[I].Steps[S];
        const RolloutStep &C = Current[I].Steps[S];
        expectSameAction(L.Action, C.Action);
        EXPECT_SAME_BITS(L.OldLogProb, C.OldLogProb)
            << "episode " << I << " step " << S;
        EXPECT_SAME_BITS(L.Value, C.Value)
            << "episode " << I << " step " << S;
        EXPECT_SAME_BITS(L.Reward, C.Reward)
            << "episode " << I << " step " << S;
        EXPECT_EQ(L.EpisodeEnd, C.EpisodeEnd)
            << "episode " << I << " step " << S;
        const std::string At =
            " of episode " + std::to_string(I) + " step " + std::to_string(S);
        testutil::expectSameRow(L.Obs.Consumer, C.Obs.Consumer,
                                "Consumer" + At);
        testutil::expectSameRow(L.Obs.Producer, C.Obs.Producer,
                                "Producer" + At);
      }
    }
  }
}

TEST_F(EquivalenceFixture, GreedyMatchesLegacySingleEnvironmentLoopBitwise) {
  ActorCritic Agent(Config, FeatureSize, Net, 42);

  for (const Module &M : Samples) {
    // The loop PpoTrainer::evaluate shipped before the extraction. The
    // RNG it passed was never drawn from in greedy mode; an engine
    // rollout that consumed entropy here would diverge on the next
    // sampling call, so the replica hands act() a throwaway stream.
    Environment Env(Config, Run, M);
    Rng Throwaway(999);
    while (!Env.isDone()) {
      ActorCritic::Sampled S =
          Agent.act(Env.observe(), Throwaway, /*Greedy=*/true);
      Env.step(S.Action);
    }
    ModuleSchedule LegacySchedule = Env.getSchedule();
    double LegacySpeedup = Env.currentSpeedup();

    RolloutEngine Engine(Agent, Run);
    RolloutEngine::Options Opts;
    Opts.RecordSchedule = true;
    RolloutEngine::Episode E = Engine.greedy(M, Opts);

    EXPECT_SAME_BITS(LegacySpeedup, E.Speedup);
    EXPECT_EQ(LegacySchedule.toString(), E.Schedule.toString());
  }
}

TEST_F(EquivalenceFixture, WidthBGroupEqualsSequentialWidthOneGroups) {
  ActorCritic Agent(Config, FeatureSize, Net, 5);
  RolloutEngine Engine(Agent, Run);

  std::vector<const Module *> Ptrs;
  for (const Module &M : Samples)
    Ptrs.push_back(&M);

  RolloutEngine::Options Opts;
  Opts.RecordSteps = true;

  std::vector<Rng> Wide;
  for (uint64_t Key : {0u, 1u, 2u})
    Wide.emplace_back(Rng::deriveSeed(5, Key));
  std::vector<Rng *> WidePtrs;
  for (Rng &R : Wide)
    WidePtrs.push_back(&R);
  std::vector<RolloutEngine::Episode> Batched =
      Engine.sampleGroup(Ptrs, WidePtrs, Opts);

  for (size_t I = 0; I < Ptrs.size(); ++I) {
    Rng Solo(Rng::deriveSeed(5, I));
    std::vector<RolloutEngine::Episode> Single =
        Engine.sampleGroup({Ptrs[I]}, {&Solo}, Opts);
    EXPECT_SAME_BITS(Batched[I].Reward, Single[0].Reward) << "episode " << I;
    EXPECT_SAME_BITS(Batched[I].Speedup, Single[0].Speedup)
        << "episode " << I;
    EXPECT_EQ(Batched[I].Steps.size(), Single[0].Steps.size())
        << "episode " << I;
  }
}

TEST_F(EquivalenceFixture, StepCapCountsRobustnessEventAndTerminates) {
  ActorCritic Agent(Config, FeatureSize, Net, 11);
  RolloutEngine Engine(Agent, Run);

  uint64_t Before =
      robustnessCounter(RobustnessEvent::RolloutStepCapHit).total();
  RolloutEngine::Options Opts;
  Opts.MaxGroupSteps = 1; // every real episode takes more than one step
  RolloutEngine::Episode E = Engine.greedy(Samples[0], Opts);
  uint64_t After =
      robustnessCounter(RobustnessEvent::RolloutStepCapHit).total();

  EXPECT_EQ(After, Before + 1);
  // The truncated episode still reports a consistent (if trivial)
  // speedup instead of garbage.
  EXPECT_GE(E.Speedup, 0.0);
}

TEST_F(EquivalenceFixture, RandomActionSamplesOnlyPresentTileLevels) {
  // The drift the extraction fixed: the old baseline drew one tile
  // index per MaxLoops level, including levels the op does not have;
  // the policy heads draw one per min(NumLoops, MaxLoops) and leave
  // the rest zero. A matmul has 3 loops < MaxLoops on the laptop
  // config, so under the old code trailing levels were (almost always)
  // nonzero draws; now they must be exactly zero.
  ASSERT_GT(Config.MaxLoops, 3u);
  Environment Env(Config, Run, Samples[0]);
  Observation Obs = Env.observe();
  ASSERT_EQ(Obs.NumLoops, 3u);

  unsigned TiledSeen = 0;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Rng R(Seed);
    AgentAction A = randomAction(Obs, Config, R);
    if (A.Kind != TransformKind::Tiling &&
        A.Kind != TransformKind::TiledParallelization &&
        A.Kind != TransformKind::TiledFusion)
      continue;
    ++TiledSeen;
    ASSERT_EQ(A.TileSizeIdx.size(), Config.MaxLoops);
    for (unsigned L = Obs.NumLoops; L < Config.MaxLoops; ++L)
      EXPECT_EQ(A.TileSizeIdx[L], 0u) << "level " << L << " seed " << Seed;
  }
  // The sweep must actually have exercised tiled kinds.
  EXPECT_GT(TiledSeen, 10u);
}

TEST_F(EquivalenceFixture, RandomSearchIsSeedDeterministicThroughEngine) {
  RolloutEngine Engine(Config, Run);
  RandomSearchResult A = randomSearch(Engine, Samples[0], 4, 21);
  RandomSearchResult B = randomSearch(Engine, Samples[0], 4, 21);
  EXPECT_SAME_BITS(A.Speedup, B.Speedup);
  EXPECT_EQ(A.Schedule.toString(), B.Schedule.toString());
  EXPECT_EQ(A.EpisodesUsed, 4u);
}
