//===- BatchedForwardTest.cpp - Batched == per-sample at 0 ULP ---------------===//
//
// The batched policy path turns B GEMVs into one GEMM. The blocked GEMM
// accumulates every output element in the same K order for every batch
// size, and log-softmax is row-wise, so row r of a batched forward must
// be *bitwise* identical (0 ULP) to a single-observation forward of
// observation r -- the property the VecEnv determinism contract rests
// on. Verified here for batch sizes 1, 2 and 32 on both networks, along
// with the forward against a plain dense reference of the paper's
// equations.
//
//===----------------------------------------------------------------------===//

#include "rl/Agent.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Environment.h"
#include "perf/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

/// Runs both networks' forward on a batch of observations.
struct Forward {
  PolicyNet::Logits<double> Logits;
  Mat<double> Values;
};

Forward forwardOn(const PolicyNet &Policy, const ValueNet &Value,
                  const std::vector<const Observation *> &Batch) {
  std::shared_ptr<const SparseRows> Producer =
      PolicyNet::compressRows(Batch, &Observation::Producer);
  std::shared_ptr<const SparseRows> Consumer =
      PolicyNet::compressRows(Batch, &Observation::Consumer);
  return {Policy.forwardLogits(*Producer, *Consumer,
                               valuesOf(Policy.parameters())),
          Value.forwardValues(*Producer, *Consumer)};
}

void expectRowMatchesSingle(const Mat<double> &Batched,
                            const Mat<double> &Single, unsigned Row) {
  ASSERT_EQ(Single.Rows, 1u);
  ASSERT_EQ(Batched.Cols, Single.Cols);
  for (unsigned J = 0; J < Single.Cols; ++J)
    EXPECT_SAME_BITS(Batched.at(Row, J), Single.at(0, J));
}

/// The networks of Sec. V-A in plain loops over one observation: the
/// LSTM over [producer, consumer] from a zero state, the ReLU backbone,
/// then the given number of linear heads, with parameters read in
/// parameters() order.
std::vector<std::vector<double>>
denseReference(const std::vector<Tensor> &Params, const Observation &Obs,
               unsigned Depth, unsigned Heads) {
  size_t Next = 0;
  auto Linear = [&](const std::vector<double> &X) {
    const Tensor &W = Params[Next], &B = Params[Next + 1];
    Next += 2;
    std::vector<double> Y(W.cols());
    for (unsigned J = 0; J < W.cols(); ++J) {
      double V = B.at(0, J);
      for (unsigned K = 0; K < W.rows(); ++K)
        V += X[K] * W.at(K, J);
      Y[J] = V;
    }
    return Y;
  };
  auto Sigmoid = [](double X) { return 1.0 / (1.0 + std::exp(-X)); };
  const unsigned Hidden = Params[0].cols();
  std::vector<double> H(Hidden, 0.0), C(Hidden, 0.0);
  for (const std::vector<double> *X : {&Obs.Producer, &Obs.Consumer}) {
    std::vector<double> XH = *X;
    XH.insert(XH.end(), H.begin(), H.end());
    Next = 0;
    std::vector<double> I = Linear(XH), F = Linear(XH), G = Linear(XH),
                        O = Linear(XH);
    for (unsigned K = 0; K < Hidden; ++K) {
      C[K] = Sigmoid(F[K]) * C[K] + Sigmoid(I[K]) * std::tanh(G[K]);
      H[K] = Sigmoid(O[K]) * std::tanh(C[K]);
    }
  }
  std::vector<double> Features = H;
  for (unsigned L = 0; L < Depth; ++L) {
    Features = Linear(Features);
    for (double &V : Features)
      V = std::max(V, 0.0);
  }
  std::vector<std::vector<double>> Out;
  for (unsigned Head = 0; Head < Heads; ++Head)
    Out.push_back(Linear(Features));
  EXPECT_EQ(Next, Params.size());
  return Out;
}

void expectNearReference(const Mat<double> &Plain, unsigned Row,
                         const std::vector<double> &Ref) {
  ASSERT_EQ(Plain.Cols, Ref.size());
  for (unsigned J = 0; J < Plain.Cols; ++J)
    EXPECT_NEAR(Plain.at(Row, J), Ref[J], 1e-12 * (1.0 + std::fabs(Ref[J])));
}

class BatchedForwardFixture : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(BatchedForwardFixture, PolicyHeadsMatchPerSampleForward) {
  unsigned B = GetParam();
  EnvConfig Config = EnvConfig::laptop();
  Runner Run(MachineModel::xeonE5_2680v4());
  std::vector<Observation> Obs = collectObservations(Config, Run, B);

  unsigned FeatureSize = Featurizer(Config).featureSize();
  Rng PolicyRng(5), ValueRng(6);
  PolicyNet Policy(Config, FeatureSize, tinyNet(), PolicyRng);
  ValueNet Value(Config, FeatureSize, tinyNet(), ValueRng);

  std::vector<const Observation *> Batch;
  for (const Observation &O : Obs)
    Batch.push_back(&O);
  Forward Batched = forwardOn(Policy, Value, Batch);
  ASSERT_EQ(Batched.Logits.Transform.Rows, B);

  for (unsigned R = 0; R < B; ++R) {
    Forward Single = forwardOn(Policy, Value, {&Obs[R]});
    expectRowMatchesSingle(Batched.Logits.Transform, Single.Logits.Transform,
                           R);
    expectRowMatchesSingle(Batched.Logits.Interchange,
                           Single.Logits.Interchange, R);
    ASSERT_EQ(Batched.Logits.Tile.size(), Single.Logits.Tile.size());
    for (unsigned H = 0; H < Batched.Logits.Tile.size(); ++H)
      expectRowMatchesSingle(Batched.Logits.Tile[H], Single.Logits.Tile[H], R);
  }
}

TEST_P(BatchedForwardFixture, ValueNetMatchesPerSampleForward) {
  unsigned B = GetParam();
  EnvConfig Config = EnvConfig::laptop();
  Runner Run(MachineModel::xeonE5_2680v4());
  std::vector<Observation> Obs = collectObservations(Config, Run, B);

  unsigned FeatureSize = Featurizer(Config).featureSize();
  Rng PolicyRng(5), ValueRng(6);
  PolicyNet Policy(Config, FeatureSize, tinyNet(), PolicyRng);
  ValueNet Value(Config, FeatureSize, tinyNet(), ValueRng);

  std::vector<const Observation *> Batch;
  for (const Observation &O : Obs)
    Batch.push_back(&O);
  Forward Batched = forwardOn(Policy, Value, Batch);
  ASSERT_EQ(Batched.Values.Rows, B);
  ASSERT_EQ(Batched.Values.Cols, 1u);
  for (unsigned R = 0; R < B; ++R)
    expectRowMatchesSingle(Batched.Values,
                           forwardOn(Policy, Value, {&Obs[R]}).Values, R);
}

TEST_P(BatchedForwardFixture, FlatHeadMatchesPerSampleForward) {
  unsigned B = GetParam();
  EnvConfig Config = EnvConfig::laptop();
  Config.ActionSpace = ActionSpaceMode::Flat;
  Runner Run(MachineModel::xeonE5_2680v4());
  std::vector<Observation> Obs = collectObservations(Config, Run, B);

  unsigned FeatureSize = Featurizer(Config).featureSize();
  Rng PolicyRng(7), ValueRng(6);
  PolicyNet Policy(Config, FeatureSize, tinyNet(), PolicyRng);
  ValueNet Value(Config, FeatureSize, tinyNet(), ValueRng);

  std::vector<const Observation *> Batch;
  for (const Observation &O : Obs)
    Batch.push_back(&O);
  Forward Batched = forwardOn(Policy, Value, Batch);
  for (unsigned R = 0; R < B; ++R) {
    Forward Single = forwardOn(Policy, Value, {&Obs[R]});
    expectRowMatchesSingle(Batched.Logits.Flat, Single.Logits.Flat, R);
  }
}

TEST_P(BatchedForwardFixture, ForwardMatchesDenseReference) {
  // Every head and the value against the paper's equations in plain
  // loops: an independent reference for the one forward.
  unsigned B = GetParam();
  for (ActionSpaceMode Mode :
       {ActionSpaceMode::MultiDiscrete, ActionSpaceMode::Flat}) {
    EnvConfig Config = EnvConfig::laptop();
    Config.ActionSpace = Mode;
    Runner Run(MachineModel::xeonE5_2680v4());
    std::vector<Observation> Obs = collectObservations(Config, Run, B);
    unsigned FeatureSize = Featurizer(Config).featureSize();
    NetConfig Net = tinyNet();
    Rng PolicyRng(8), ValueRng(9);
    PolicyNet Policy(Config, FeatureSize, Net, PolicyRng);
    ValueNet Value(Config, FeatureSize, Net, ValueRng);

    std::vector<const Observation *> Batch;
    for (const Observation &O : Obs)
      Batch.push_back(&O);
    Forward Plain = forwardOn(Policy, Value, Batch);
    for (unsigned R = 0; R < B; ++R) {
      bool Flat = Mode == ActionSpaceMode::Flat;
      std::vector<std::vector<double>> Heads =
          denseReference(Policy.parameters(), Obs[R], Net.BackboneDepth,
                         Flat ? 1 : 5);
      if (Flat) {
        expectNearReference(Plain.Logits.Flat, R, Heads[0]);
      } else {
        expectNearReference(Plain.Logits.Transform, R, Heads[0]);
        for (unsigned H = 0; H < 3; ++H)
          expectNearReference(Plain.Logits.Tile[H], R, Heads[1 + H]);
        expectNearReference(Plain.Logits.Interchange, R, Heads[4]);
      }
      expectNearReference(Plain.Values, R,
                          denseReference(Value.parameters(), Obs[R],
                                         Net.BackboneDepth, 1)[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchedForwardFixture,
                         ::testing::Values(1u, 2u, 32u));
