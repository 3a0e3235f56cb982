//===- AgentTest.cpp - Tests for the actor-critic agent ---------------------===//

#include "rl/Agent.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"
#include "ir/Builder.h"
#include "perf/Runner.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mlirrl;

namespace {

struct AgentFixture : ::testing::Test {
  EnvConfig Config = EnvConfig::laptop();
  NetConfig Net{16, 16, 2};
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  Runner Run{Machine};
  unsigned FeatureSize = Featurizer(Config).featureSize();

  std::unique_ptr<Environment> makeEnv(Module M) {
    return std::make_unique<Environment>(Config, Run, std::move(M));
  }
};

} // namespace

TEST_F(AgentFixture, ActRespectsTransformMask) {
  ActorCritic Agent(Config, FeatureSize, Net, 1);
  auto Env = makeEnv(makeMaxpoolModule(1, 16, 32, 32, 2, 2));
  Rng R(3);
  for (int I = 0; I < 100; ++I) {
    ActorCritic::Sampled S = Agent.act(Env->observe(), R);
    // Vectorization and fusion are masked for a lone pooling op.
    EXPECT_NE(S.Action.Kind, TransformKind::Vectorization);
    EXPECT_NE(S.Action.Kind, TransformKind::TiledFusion);
  }
}

TEST_F(AgentFixture, SampledTileIndicesInRange) {
  ActorCritic Agent(Config, FeatureSize, Net, 2);
  auto Env = makeEnv(makeMatmulModule(64, 64, 64));
  Rng R(4);
  for (int I = 0; I < 50; ++I) {
    ActorCritic::Sampled S = Agent.act(Env->observe(), R);
    if (!S.Action.TileSizeIdx.empty())
      for (unsigned Idx : S.Action.TileSizeIdx)
        EXPECT_LT(Idx, Config.NumTileSizes);
  }
}

TEST_F(AgentFixture, EvaluateReproducesSampledLogProb) {
  // Sampling runs the graph-free forward, the PPO update re-evaluates
  // through autograd: before any update, the stored log-prob and value
  // must be the re-evaluation's bitwise, at every batch width.
  std::vector<Module> Modules = {makeMatmulModule(64, 64, 64),
                                 makeReluModule({256, 64}),
                                 makeMaxpoolModule(1, 16, 32, 32, 2, 2),
                                 makeConv2dModule(1, 8, 16, 16, 8, 3, 3, 1),
                                 makeAddModule({128, 128})};
  for (ActionSpaceMode Mode :
       {ActionSpaceMode::MultiDiscrete, ActionSpaceMode::Flat}) {
    EnvConfig ModeConfig = Config;
    ModeConfig.ActionSpace = Mode;
    ActorCritic Agent(ModeConfig, Featurizer(ModeConfig).featureSize(), Net,
                      5);
    for (unsigned Width : {1u, 8u}) {
      // Sixteen episodes, Width of them in lockstep at a time.
      std::vector<std::unique_ptr<Environment>> Envs;
      std::vector<Rng> Rngs;
      for (unsigned I = 0; I < 16; ++I) {
        Envs.push_back(std::make_unique<Environment>(
            ModeConfig, Run, Modules[I % Modules.size()]));
        Rngs.emplace_back(6 + I);
      }
      unsigned Rows = 0;
      for (unsigned Begin = 0; Begin < 16; Begin += Width) {
        for (;;) {
          std::vector<const Observation *> Obs;
          std::vector<Rng *> Streams;
          std::vector<Environment *> Live;
          for (unsigned I = Begin; I < Begin + Width; ++I)
            if (!Envs[I]->isDone()) {
              Obs.push_back(&Envs[I]->observe());
              Streams.push_back(&Rngs[I]);
              Live.push_back(Envs[I].get());
            }
          if (Obs.empty())
            break;
          std::vector<ActorCritic::Sampled> S = Agent.actBatch(Obs, Streams);
          std::vector<const AgentAction *> Actions;
          for (const ActorCritic::Sampled &One : S)
            Actions.push_back(&One.Action);
          ActorCritic::BatchEvaluation E = Agent.evaluateBatch(Obs, Actions);
          for (unsigned R = 0; R < S.size(); ++R) {
            EXPECT_SAME_BITS(E.LogProb.at(R, 0), S[R].LogProb);
            EXPECT_SAME_BITS(E.Value.at(R, 0), S[R].Value);
            Live[R]->step(S[R].Action);
          }
          Rows += static_cast<unsigned>(S.size());
        }
      }
      EXPECT_GT(Rows, 16u);
    }
  }
}

TEST_F(AgentFixture, GreedyIsDeterministic) {
  ActorCritic Agent(Config, FeatureSize, Net, 7);
  auto Env = makeEnv(makeMatmulModule(64, 64, 64));
  Rng R(8);
  ActorCritic::Sampled A = Agent.act(Env->observe(), R, /*Greedy=*/true);
  ActorCritic::Sampled B = Agent.act(Env->observe(), R, /*Greedy=*/true);
  EXPECT_EQ(A.Action.Kind, B.Action.Kind);
  EXPECT_EQ(A.Action.TileSizeIdx, B.Action.TileSizeIdx);
  EXPECT_DOUBLE_EQ(A.LogProb, B.LogProb);
}

TEST_F(AgentFixture, PointerSubStepUsesInterchangeHeadOnly) {
  ActorCritic Agent(Config, FeatureSize, Net, 9);
  auto Env = makeEnv(makeMatmulModule(64, 64, 64));
  Rng R(10);
  // Force an interchange start.
  AgentAction Start;
  Start.Kind = TransformKind::Interchange;
  Start.PointerChoice = 1;
  Env->step(Start);
  ASSERT_TRUE(Env->observe().InPointerSequence);
  ActorCritic::Sampled S = Agent.act(Env->observe(), R);
  EXPECT_EQ(S.Action.Kind, TransformKind::Interchange);
  // The already-placed loop cannot be chosen again.
  EXPECT_NE(S.Action.PointerChoice, 1u);
}

TEST_F(AgentFixture, EpisodeRunsToCompletionUnderRandomPolicy) {
  ActorCritic Agent(Config, FeatureSize, Net, 11);
  Rng R(12);
  // Multi-op module exercises op advancement and fusion paths.
  Module M("seq");
  {
    Builder B(M);
    std::string X = B.declareInput({256, 256});
    std::string A = B.relu(X);
    std::string C = B.sigmoid(A);
    B.add(C, C);
  }
  for (uint64_t Seed = 0; Seed < 5; ++Seed) {
    auto Env = makeEnv(M);
    unsigned Guard = 0;
    while (!Env->isDone()) {
      ASSERT_LT(++Guard, 200u) << "episode failed to terminate";
      ActorCritic::Sampled S = Agent.act(Env->observe(), R);
      Env->step(S.Action);
    }
    EXPECT_GE(Env->currentSpeedup(), 0.0);
  }
}

TEST_F(AgentFixture, FlatAgentRunsEpisodes) {
  EnvConfig Flat = Config;
  Flat.ActionSpace = ActionSpaceMode::Flat;
  ActorCritic Agent(Flat, Featurizer(Flat).featureSize(), Net, 13);
  Rng R(14);
  Environment Env(Flat, Run, makeMatmulModule(128, 128, 128));
  unsigned Guard = 0;
  while (!Env.isDone()) {
    ASSERT_LT(++Guard, 100u);
    ActorCritic::Sampled S = Agent.act(Env.observe(), R);
    Env.step(S.Action);
  }
  SUCCEED();
}
