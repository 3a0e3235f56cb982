//===- AgentTest.cpp - Tests for the actor-critic agent ---------------------===//

#include "rl/Agent.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"
#include "ir/Builder.h"
#include "nn/Gemm.h"
#include "nn/Ops.h"
#include "perf/Runner.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

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
  // Sampling runs the forward alone, the PPO update re-evaluates with a
  // tape for its backward: before any update, the stored log-prob and
  // value must be the re-evaluation's bitwise, at every batch width.
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

//===----------------------------------------------------------------------===//
// evaluateBatch's backward: both networks, any update pool.
//===----------------------------------------------------------------------===//

namespace {

/// Every step of a few sampled episodes, as one minibatch, with the
/// stored quantities PpoTrainer::update reads.
struct Minibatch {
  std::vector<Observation> Obs;
  std::vector<AgentAction> Actions;
  std::vector<double> OldLogProb, Advantage, Return;
};

Minibatch sampleMinibatch(const ActorCritic &Agent, const EnvConfig &Env,
                          Evaluator &Eval) {
  Minibatch MB;
  Rng R(21), Noise(22);
  std::vector<Module> Modules = {makeMatmulModule(64, 64, 64),
                                 makeReluModule({256, 64}),
                                 makeConv2dModule(1, 8, 16, 16, 8, 3, 3, 1),
                                 makeAddModule({128, 128})};
  for (unsigned Episode = 0; Episode < 12; ++Episode) {
    Environment E(Env, Eval, Modules[Episode % Modules.size()]);
    while (!E.isDone()) {
      ActorCritic::Sampled S = Agent.act(E.observe(), R);
      MB.Obs.push_back(E.observe());
      MB.Actions.push_back(S.Action);
      MB.OldLogProb.push_back(S.LogProb + Noise.nextDouble(-0.1, 0.1));
      MB.Advantage.push_back(Noise.nextDouble(-2.0, 2.0));
      MB.Return.push_back(S.Value + Noise.nextDouble(-1.0, 1.0));
      E.step(S.Action);
    }
  }
  return MB;
}

/// Which of the evaluation's outputs a loss reads.
enum class LossOver { All, Value, Policy };

/// PpoTrainer::update's loss over \p MB, or its value term alone, or its
/// surrogate and entropy terms alone.
nn::Tensor minibatchLoss(const ActorCritic &Agent, const Minibatch &MB,
                         LossOver Over) {
  std::vector<const Observation *> Obs;
  std::vector<const AgentAction *> Actions;
  for (size_t I = 0; I < MB.Obs.size(); ++I) {
    Obs.push_back(&MB.Obs[I]);
    Actions.push_back(&MB.Actions[I]);
  }
  const unsigned B = static_cast<unsigned>(Obs.size());
  PpoConfig Config;
  ActorCritic::BatchEvaluation Eval = Agent.evaluateBatch(Obs, Actions);
  using namespace nn;
  Tensor Ratio =
      expOp(sub(Eval.LogProb, Tensor::fromData(B, 1, MB.OldLogProb)));
  Tensor Adv = Tensor::fromData(B, 1, MB.Advantage);
  Tensor Clipped = hadamard(
      clamp(Ratio, 1.0 - Config.ClipRange, 1.0 + Config.ClipRange), Adv);
  Tensor PolicyLoss = add(scale(meanAll(minOp(hadamard(Ratio, Adv), Clipped)),
                                -1.0),
                          scale(meanAll(Eval.Entropy), -Config.EntropyCoef));
  Tensor Diff = sub(Eval.Value, Tensor::fromData(B, 1, MB.Return));
  Tensor ValueLoss = scale(meanAll(hadamard(Diff, Diff)), Config.ValueCoef);
  return Over == LossOver::Value    ? ValueLoss
         : Over == LossOver::Policy ? PolicyLoss
                                    : add(PolicyLoss, ValueLoss);
}

/// Seeds every gradient entry with +0.0, -0.0 or a Gaussian. A backward
/// that runs turns some -0.0 entries into +0.0 even where it adds only
/// zeros, so an entry left as seeded shows that none ran.
void seedGradients(const std::vector<nn::Tensor> &Params) {
  Rng R(23);
  for (const nn::Tensor &P : Params)
    for (double &G : P.node()->Grad)
      G = R.nextBernoulli(0.4)   ? -0.0
          : R.nextBernoulli(0.3) ? 0.0
                                 : R.nextGaussian();
}

std::vector<nn::DBuffer> gradientsOf(const std::vector<nn::Tensor> &Params) {
  std::vector<nn::DBuffer> Grads;
  for (const nn::Tensor &P : Params)
    Grads.push_back(P.grad());
  return Grads;
}

bool sameBits(const nn::DBuffer &A, const nn::DBuffer &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// Installs a pool of \p Threads as the update pool for the scope; 0
/// installs none.
struct ScopedUpdatePool {
  explicit ScopedUpdatePool(unsigned Threads) {
    if (Threads > 0)
      nn::setGemmPool(&Pool.emplace(Threads));
  }
  ~ScopedUpdatePool() { nn::setGemmPool(nullptr); }
  std::optional<ThreadPool> Pool;
};

/// The laptop preset's 48-wide networks, so that the minibatch's GEMMs
/// are large enough to split over a pool.
struct BackwardFixture : AgentFixture {
  NetConfig Wide{48, 48, 3};
  ActorCritic Agent{Config, FeatureSize, Wide, 15};
  Minibatch MB = sampleMinibatch(Agent, Config, Run);
  std::vector<nn::Tensor> Params = Agent.parameters();
  /// The critic's parameters are the last ones.
  size_t FirstCriticParam = [this] {
    Rng R(0);
    return Params.size() -
           ValueNet(Config, FeatureSize, Wide, R).parameters().size();
  }();
};

} // namespace

TEST_F(BackwardFixture, GradientsDoNotDependOnTheUpdatePool) {
  ASSERT_GE(MB.Obs.size(), 32u);
  std::vector<nn::DBuffer> Serial;
  for (unsigned Threads : {0u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << Threads << " pool threads");
    ScopedUpdatePool Scope(Threads);
    seedGradients(Params);
    minibatchLoss(Agent, MB, LossOver::All).backward();
    std::vector<nn::DBuffer> Grads = gradientsOf(Params);
    if (Threads == 0) {
      Serial = std::move(Grads);
      continue;
    }
    for (size_t I = 0; I < Params.size(); ++I)
      EXPECT_TRUE(sameBits(Grads[I], Serial[I])) << "parameter " << I;
  }
}

TEST_F(BackwardFixture, ALossReachesOnlyItsOwnNetwork) {
  // A loss over the values runs the critic's backward alone, and one
  // over the log-probabilities and entropies the actor's alone: the
  // other network's gradients stay as seeded, bit for bit.
  for (unsigned Threads : {0u, 2u}) {
    for (LossOver Over : {LossOver::Value, LossOver::Policy}) {
      SCOPED_TRACE(testing::Message()
                   << Threads << " pool threads, "
                   << (Over == LossOver::Value ? "value" : "policy")
                   << " loss");
      ScopedUpdatePool Scope(Threads);
      seedGradients(Params);
      std::vector<nn::DBuffer> Seeded = gradientsOf(Params);
      minibatchLoss(Agent, MB, Over).backward();
      std::vector<nn::DBuffer> Grads = gradientsOf(Params);
      bool ActorMoved = false, CriticMoved = false;
      for (size_t I = 0; I < Params.size(); ++I)
        (I < FirstCriticParam ? ActorMoved : CriticMoved) |=
            !sameBits(Grads[I], Seeded[I]);
      EXPECT_EQ(ActorMoved, Over == LossOver::Policy);
      EXPECT_EQ(CriticMoved, Over == LossOver::Value);
    }
  }
}
