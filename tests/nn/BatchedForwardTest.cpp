//===- BatchedForwardTest.cpp - Batched == per-sample at 0 ULP ---------------===//
//
// The batched policy path turns B GEMVs into one GEMM. The blocked GEMM
// accumulates every output element in the same K order for every batch
// size, and log-softmax is row-wise, so row r of a batched forward must
// be *bitwise* identical (0 ULP) to a single-observation forward of
// observation r -- the property the VecEnv determinism contract rests
// on. Verified here for batch sizes 1, 2 and 32 on both networks, along
// with the graph-free rollout forward against the autograd one.
//
//===----------------------------------------------------------------------===//

#include "rl/Agent.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Environment.h"
#include "perf/Runner.h"

#include <gtest/gtest.h>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

NetConfig tinyNet() { return mlirrl::testutil::tinyNet(24); }

/// Collects \p Count diverse observations by rolling random episodes
/// over a couple of modules (pooling, matmul: different loop counts,
/// producers, masks).
std::vector<Observation> collectObservations(const EnvConfig &Config,
                                             Evaluator &Eval,
                                             unsigned Count) {
  std::vector<Observation> Out;
  Rng ActionRng(17);
  std::vector<Module> Samples = {makeMatmulModule(64, 64, 64),
                                 makeReluModule({256, 64})};
  unsigned SampleIdx = 0;
  while (Out.size() < Count) {
    Environment Env(Config, Eval, Samples[SampleIdx++ % Samples.size()]);
    while (!Env.isDone() && Out.size() < Count) {
      Out.push_back(Env.observe());
      // A legal-but-arbitrary action: pick the first unmasked kind.
      AgentAction Action;
      const Observation &Obs = Env.observe();
      if (Obs.InPointerSequence) {
        Action.Kind = TransformKind::Interchange;
        for (unsigned I = 0; I < Obs.InterchangeMask.size(); ++I)
          if (Obs.InterchangeMask[I] != 0.0) {
            Action.PointerChoice = I;
            break;
          }
      } else {
        unsigned Kind = static_cast<unsigned>(
            ActionRng.sampleWeighted(Obs.TransformMask));
        Action.Kind = static_cast<TransformKind>(Kind);
        Action.TileSizeIdx.assign(Config.MaxLoops, 0);
        for (unsigned &Idx : Action.TileSizeIdx)
          Idx = static_cast<unsigned>(
              ActionRng.nextBounded(Config.NumTileSizes));
        if (Action.Kind == TransformKind::Interchange)
          Action.PointerChoice = static_cast<unsigned>(
              ActionRng.sampleWeighted(Obs.InterchangeMask));
      }
      Env.step(Action);
    }
  }
  return Out;
}

void expectRowMatchesSingle(const Tensor &Batched, const Tensor &Single,
                            unsigned Row) {
  ASSERT_EQ(Single.rows(), 1u);
  ASSERT_EQ(Batched.cols(), Single.cols());
  for (unsigned J = 0; J < Single.cols(); ++J)
    EXPECT_SAME_BITS(Batched.at(Row, J), Single.at(0, J));
}

class BatchedForwardFixture : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(BatchedForwardFixture, PolicyHeadsMatchPerSampleForward) {
  unsigned B = GetParam();
  EnvConfig Config = EnvConfig::laptop();
  Runner Run(MachineModel::xeonE5_2680v4());
  std::vector<Observation> Obs = collectObservations(Config, Run, B);

  Rng InitRng(5);
  PolicyNet Policy(Config, Featurizer(Config).featureSize(), tinyNet(),
                   InitRng);

  std::vector<const Observation *> Batch;
  for (const Observation &O : Obs)
    Batch.push_back(&O);
  PolicyNet::Heads Batched = Policy.forward(Batch);
  ASSERT_EQ(Batched.TransformLogits.rows(), B);

  for (unsigned R = 0; R < B; ++R) {
    PolicyNet::Heads Single = Policy.forward(Obs[R]);
    expectRowMatchesSingle(Batched.TransformLogits, Single.TransformLogits,
                           R);
    expectRowMatchesSingle(Batched.InterchangeLogits,
                           Single.InterchangeLogits, R);
    ASSERT_EQ(Batched.TileLogits.size(), Single.TileLogits.size());
    for (unsigned H = 0; H < Batched.TileLogits.size(); ++H)
      expectRowMatchesSingle(Batched.TileLogits[H], Single.TileLogits[H], R);
  }
}

TEST_P(BatchedForwardFixture, ValueNetMatchesPerSampleForward) {
  unsigned B = GetParam();
  EnvConfig Config = EnvConfig::laptop();
  Runner Run(MachineModel::xeonE5_2680v4());
  std::vector<Observation> Obs = collectObservations(Config, Run, B);

  Rng InitRng(6);
  ValueNet Value(Config, Featurizer(Config).featureSize(), tinyNet(),
                 InitRng);

  std::vector<const Observation *> Batch;
  for (const Observation &O : Obs)
    Batch.push_back(&O);
  Tensor Batched = Value.forward(Batch);
  ASSERT_EQ(Batched.rows(), B);
  ASSERT_EQ(Batched.cols(), 1u);

  for (unsigned R = 0; R < B; ++R) {
    Tensor Single = Value.forward(Obs[R]);
    EXPECT_SAME_BITS(Batched.at(R, 0), Single.at(0, 0));
  }
}

TEST_P(BatchedForwardFixture, FlatHeadMatchesPerSampleForward) {
  unsigned B = GetParam();
  EnvConfig Config = EnvConfig::laptop();
  Config.ActionSpace = ActionSpaceMode::Flat;
  Runner Run(MachineModel::xeonE5_2680v4());
  std::vector<Observation> Obs = collectObservations(Config, Run, B);

  Rng InitRng(7);
  PolicyNet Policy(Config, Featurizer(Config).featureSize(), tinyNet(),
                   InitRng);

  std::vector<const Observation *> Batch;
  for (const Observation &O : Obs)
    Batch.push_back(&O);
  PolicyNet::Heads Batched = Policy.forward(Batch);
  for (unsigned R = 0; R < B; ++R) {
    PolicyNet::Heads Single = Policy.forward(Obs[R]);
    expectRowMatchesSingle(Batched.FlatLogits, Single.FlatLogits, R);
  }
}

TEST_P(BatchedForwardFixture, GraphFreeForwardMatchesAutograd) {
  // Rollouts act through the graph-free forward, the PPO update through
  // autograd: every head and the value must agree at 0 ULP.
  unsigned B = GetParam();
  for (ActionSpaceMode Mode :
       {ActionSpaceMode::MultiDiscrete, ActionSpaceMode::Flat}) {
    EnvConfig Config = EnvConfig::laptop();
    Config.ActionSpace = Mode;
    Runner Run(MachineModel::xeonE5_2680v4());
    std::vector<Observation> Obs = collectObservations(Config, Run, B);
    unsigned FeatureSize = Featurizer(Config).featureSize();
    Rng PolicyRng(8), ValueRng(9);
    PolicyNet Policy(Config, FeatureSize, tinyNet(), PolicyRng);
    ValueNet Value(Config, FeatureSize, tinyNet(), ValueRng);

    std::vector<const Observation *> Batch;
    for (const Observation &O : Obs)
      Batch.push_back(&O);
    std::shared_ptr<const SparseRows> Producer =
        PolicyNet::compressRows(Batch, &Observation::Producer);
    std::shared_ptr<const SparseRows> Consumer =
        PolicyNet::compressRows(Batch, &Observation::Consumer);

    auto ExpectSame = [](const Mat<double> &Plain, const Tensor &Graph) {
      ASSERT_EQ(Plain.Rows, Graph.rows());
      ASSERT_EQ(Plain.Cols, Graph.cols());
      for (unsigned R = 0; R < Plain.Rows; ++R)
        for (unsigned C = 0; C < Plain.Cols; ++C)
          EXPECT_SAME_BITS(Plain.at(R, C), Graph.at(R, C));
    };
    PolicyNet::Heads Graph = Policy.forward(Batch);
    PolicyNet::Logits<double> Plain = Policy.forwardLogits(
        *Producer, *Consumer, valuesOf(Policy.parameters()));
    if (Mode == ActionSpaceMode::Flat) {
      ExpectSame(Plain.Flat, Graph.FlatLogits);
    } else {
      ExpectSame(Plain.Transform, Graph.TransformLogits);
      ExpectSame(Plain.Interchange, Graph.InterchangeLogits);
      ASSERT_EQ(Plain.Tile.size(), Graph.TileLogits.size());
      for (unsigned H = 0; H < Plain.Tile.size(); ++H)
        ExpectSame(Plain.Tile[H], Graph.TileLogits[H]);
    }
    ExpectSame(Value.forwardValues(*Producer, *Consumer),
               Value.forward(Batch));
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchedForwardFixture,
                         ::testing::Values(1u, 2u, 32u));
