//===- InferenceF32Test.cpp - f32 greedy inference vs the f64 path ----------===//
//
// The f32 inference contract (MlirRlOptions::Inference): packed float
// logits track the double forward pass to float relative error, greedy
// actions agree with the f64 path, the packed cache follows parameter
// updates, and the default stays F64 so nothing changes unless asked.
//
//===----------------------------------------------------------------------===//

#include "rl/Agent.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"
#include "perf/Runner.h"
#include "rl/MlirRl.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace mlirrl;
using namespace mlirrl::testutil;

namespace {

/// Float forward error through a few GEMM layers stays well inside
/// this envelope for laptop-scale nets (hidden sizes < 64).
constexpr double kLogitTol = 1e-3;

MlirRlOptions inferenceOptions() {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Net = tinyNet();
  O.Ppo.SamplesPerIteration = 8;
  O.Seed = 4242;
  return O;
}

std::vector<Module> inferenceDataset() {
  return {makeMatmulModule(64, 64, 64), makeReluModule({512, 128})};
}

void expectNearRel(double A, double B, double Tol) {
  EXPECT_NEAR(A, B, Tol * (1.0 + std::fabs(B)));
}

struct InferenceF32Fixture : ::testing::Test {
  EnvConfig Config = EnvConfig::laptop();
  NetConfig Net{16, 16, 2};
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  Runner Run{Machine};
  unsigned FeatureSize = Featurizer(Config).featureSize();
};

} // namespace

TEST_F(InferenceF32Fixture, DefaultInferenceDtypeIsF64) {
  // Off by default, everywhere: the options struct, the laptop preset,
  // and a freshly built agent.
  EXPECT_EQ(MlirRlOptions().Inference, InferenceDtype::F64);
  EXPECT_EQ(MlirRlOptions::laptop().Inference, InferenceDtype::F64);
  ActorCritic Agent(Config, FeatureSize, Net, 1);
  EXPECT_EQ(Agent.inferenceDtype(), InferenceDtype::F64);
}

TEST_F(InferenceF32Fixture, PackedLogitsMatchDoubleForwardWithinRelError) {
  Rng InitRng(17);
  PolicyNet Policy(Config, FeatureSize, Net, InitRng);
  nn::PackedF32 Packed(Policy.parameters());

  Environment Env(Config, Run, makeMatmulModule(64, 64, 64));
  Observation Obs = Env.observe();
  std::vector<const Observation *> Batch = {&Obs};

  std::shared_ptr<const nn::SparseRows> Producer =
      PolicyNet::compressRows(Batch, &Observation::Producer);
  std::shared_ptr<const nn::SparseRows> Consumer =
      PolicyNet::compressRows(Batch, &Observation::Consumer);
  PolicyNet::Logits<double> H64 = Policy.forwardLogits(
      *Producer, *Consumer, nn::valuesOf(Policy.parameters()));
  PolicyNet::Logits<float> H32 =
      Policy.forwardLogits(*Producer, *Consumer, Packed.values());

  auto ExpectNear = [](const nn::Mat<float> &F32, const nn::Mat<double> &F64) {
    ASSERT_EQ(F32.Rows, 1u);
    ASSERT_EQ(F32.Cols, F64.Cols);
    for (unsigned J = 0; J < F32.Cols; ++J)
      expectNearRel(F32.at(0, J), F64.at(0, J), kLogitTol);
  };
  ExpectNear(H32.Transform, H64.Transform);
  ASSERT_EQ(H32.Tile.size(), H64.Tile.size());
  for (unsigned Head = 0; Head < H32.Tile.size(); ++Head)
    ExpectNear(H32.Tile[Head], H64.Tile[Head]);
  ExpectNear(H32.Interchange, H64.Interchange);
}

TEST_F(InferenceF32Fixture, GreedyEpisodeMatchesF64StepByStep) {
  // Drive one episode with greedy f64 actions; at every step the f32
  // path must pick the same action from the same observation (the
  // logit gaps at random init are far wider than float error).
  ActorCritic Agent(Config, FeatureSize, Net, 21);
  Environment Env(Config, Run, makeMatmulModule(64, 64, 64));
  Rng R(22);
  unsigned Steps = 0;
  while (!Env.isDone()) {
    Observation Obs = Env.observe();
    Agent.setInferenceDtype(InferenceDtype::F64);
    ActorCritic::Sampled S64 = Agent.act(Obs, R, /*Greedy=*/true);
    Agent.setInferenceDtype(InferenceDtype::F32);
    ActorCritic::Sampled S32 = Agent.act(Obs, R, /*Greedy=*/true);

    EXPECT_EQ(S32.Action.Kind, S64.Action.Kind) << "step " << Steps;
    EXPECT_EQ(S32.Action.TileSizeIdx, S64.Action.TileSizeIdx)
        << "step " << Steps;
    EXPECT_EQ(S32.Action.EnumeratedChoice, S64.Action.EnumeratedChoice)
        << "step " << Steps;
    EXPECT_EQ(S32.Action.PointerChoice, S64.Action.PointerChoice)
        << "step " << Steps;
    expectNearRel(S32.LogProb, S64.LogProb, kLogitTol);

    Env.step(S64.Action);
    ++Steps;
  }
  EXPECT_GT(Steps, 0u);
}

TEST(InferenceF32EndToEnd, TrainedGreedyRolloutSpeedupWithinTolerance) {
  // Train once in f64 (training never touches the f32 path), then
  // compare the greedy optimize() rollout of the same trained agent
  // under both inference dtypes. Matching action sequences give
  // bitwise-equal speedups through the deterministic evaluator, so the
  // tolerance only absorbs a near-tie argmax flip.
  MlirRl System(inferenceOptions());
  std::vector<Module> Data = inferenceDataset();
  System.train(Data, nullptr);

  Module Target = makeMatmulModule(128, 64, 32);
  EXPECT_EQ(System.agent().inferenceDtype(), InferenceDtype::F64);
  double S64 = System.optimize(Target);

  System.agent().setInferenceDtype(InferenceDtype::F32);
  double S32 = System.optimize(Target);

  EXPECT_GT(S64, 0.0);
  EXPECT_NEAR(S32, S64, 0.05 * (1.0 + std::fabs(S64)));
}

TEST(InferenceF32EndToEnd, PackedCacheFollowsParameterUpdates) {
  // Pack the cache, train further (the optimizer steps the
  // parameters), and check the next f32 rollout reflects the fresh
  // parameters by agreeing with the f64 rollout of the same agent.
  MlirRlOptions O = inferenceOptions();
  O.Inference = InferenceDtype::F32;
  O.Iterations = 1;
  MlirRl System(O);
  EXPECT_EQ(System.agent().inferenceDtype(), InferenceDtype::F32);
  std::vector<Module> Data = inferenceDataset();

  Module Target = makeMatmulModule(128, 64, 32);
  System.train(Data, nullptr);
  (void)System.optimize(Target); // Packs the cache for this version.

  System.train(Data, nullptr); // Steps parameters; cache must refresh.
  double After32 = System.optimize(Target);

  System.agent().setInferenceDtype(InferenceDtype::F64);
  double After64 = System.optimize(Target);
  EXPECT_NEAR(After32, After64, 0.05 * (1.0 + std::fabs(After64)));
}
