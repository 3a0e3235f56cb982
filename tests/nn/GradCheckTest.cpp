//===- GradCheckTest.cpp - Numerical gradient verification ------------------===//
//
// Central-difference gradient checks over the loss ops, the explicit
// backward of every network piece (dense layer, ReLU backbone, two-step
// sparse LSTM, masked categorical heads), and the whole PPO update:
// evaluateBatch, the loss, and backward on a policy and a value net
// small enough that every entry of every parameter tensor is checked.
//
//===----------------------------------------------------------------------===//

#include "nn/Backward.h"
#include "nn/Ops.h"
#include "nn/Optimizer.h"
#include "rl/Agent.h"
#include "rl/Ppo.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"
#include "perf/Runner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// Checks analytic gradients against central differences of \p Loss for
/// every entry of \p Values.
void checkEntries(std::vector<double> &Values,
                  const std::vector<double> &Analytic,
                  const std::function<double()> &Loss, double Eps = 1e-6,
                  double Tol = 1e-6) {
  ASSERT_EQ(Values.size(), Analytic.size());
  for (size_t I = 0; I < Values.size(); ++I) {
    double Saved = Values[I];
    Values[I] = Saved + Eps;
    double Plus = Loss();
    Values[I] = Saved - Eps;
    double Minus = Loss();
    Values[I] = Saved;
    double Numeric = (Plus - Minus) / (2 * Eps);
    double Scale =
        std::max({1.0, std::fabs(Analytic[I]), std::fabs(Numeric)});
    EXPECT_NEAR(Analytic[I], Numeric, Tol * Scale)
        << "entry " << I << " of " << Values.size();
  }
}

/// checkEntries over a parameter's data, changed in place, against its
/// gradient.
void checkParam(const Tensor &P, const std::function<double()> &Loss) {
  std::vector<double> Analytic(P.grad().begin(), P.grad().end());
  std::vector<double> Values(P.data().begin(), P.data().end());
  checkEntries(Values, Analytic, [&] {
    std::copy(Values.begin(), Values.end(), P.node()->Data.begin());
    return Loss();
  });
  std::copy(Values.begin(), Values.end(), P.node()->Data.begin());
}

/// checkParam with the gradient of one backward of the graph \p
/// BuildLoss returns.
void checkGradient(const Tensor &Param,
                   const std::function<Tensor()> &BuildLoss) {
  Tensor Loss = BuildLoss();
  zeroGradients({Param});
  Loss.backward();
  checkParam(Param, [&] { return BuildLoss().item(); });
}

Rng &testRng() {
  static Rng R(12345);
  return R;
}

std::vector<double> randomValues(size_t N, double Lo = -1.0, double Hi = 1.0) {
  std::vector<double> V(N);
  for (double &X : V)
    X = testRng().nextDouble(Lo, Hi);
  return V;
}

Tensor randomParam(unsigned Rows, unsigned Cols) {
  return Tensor::parameter(Rows, Cols,
                           randomValues(static_cast<size_t>(Rows) * Cols));
}

Mat<double> matOf(unsigned Rows, unsigned Cols, const std::vector<double> &V) {
  Mat<double> M(Rows, Cols);
  std::copy(V.begin(), V.end(), M.Data.begin());
  return M;
}

double dot(const Mat<double> &M, const std::vector<double> &W) {
  double Sum = 0.0;
  for (size_t I = 0; I < M.Data.size(); ++I)
    Sum += M.Data[I] * W[I];
  return Sum;
}

/// A layer's weights as the forward reads them.
LinearWeights<double> weightsOf(const Linear &L) {
  return {L.weight().data().data(), L.bias().data().data(), L.inFeatures(),
          L.outFeatures()};
}

} // namespace

//===----------------------------------------------------------------------===//
// The loss ops.
//===----------------------------------------------------------------------===//

TEST(GradCheckTest, AddSubHadamard) {
  Tensor A = randomParam(2, 3);
  Tensor B = randomParam(2, 3);
  checkGradient(A, [&] { return sumAll(hadamard(add(A, B), sub(A, B))); });
}

TEST(GradCheckTest, ExpAndScale) {
  Tensor X = randomParam(2, 5);
  checkGradient(X, [&] { return sumAll(expOp(scale(X, 0.3))); });
}

TEST(GradCheckTest, ClampInterior) {
  Tensor X = Tensor::parameter(1, 4, {0.5, -0.5, 2.5, -2.5});
  checkGradient(X, [&] { return sumAll(clamp(X, -1.0, 1.0)); });
}

TEST(GradCheckTest, MinOp) {
  Tensor A = Tensor::parameter(1, 3, {1.0, -1.0, 2.0});
  Tensor B = Tensor::parameter(1, 3, {0.5, 0.5, 3.0});
  checkGradient(A, [&] { return sumAll(minOp(A, B)); });
  checkGradient(B, [&] { return sumAll(minOp(A, B)); });
}

TEST(GradCheckTest, MeanAll) {
  Tensor A = randomParam(3, 2);
  checkGradient(A, [&] { return meanAll(hadamard(A, A)); });
}

//===----------------------------------------------------------------------===//
// The explicit backward, piece by piece.
//===----------------------------------------------------------------------===//

TEST(GradCheckTest, LinearLayer) {
  // L = sum tanh(X . W + b) over a 2-row batch.
  Rng Init(7);
  Linear L(4, 3, Init);
  std::vector<double> X = randomValues(2 * 4);
  auto Loss = [&] {
    double Sum = 0.0;
    for (double V : linearForward(matOf(2, 4, X), weightsOf(L)).Data)
      Sum += std::tanh(V);
    return Sum;
  };
  Mat<double> Y = linearForward(matOf(2, 4, X), weightsOf(L));
  std::vector<double> DY(Y.Data.size()), DX(X.size());
  for (size_t I = 0; I < DY.size(); ++I)
    DY[I] = 1.0 - std::tanh(Y.Data[I]) * std::tanh(Y.Data[I]);
  linearBackward(2, X.data(), DY.data(), L, DX.data());
  for (const Tensor &P : L.parameters())
    checkParam(P, Loss);
  checkEntries(X, DX, Loss);
}

TEST(GradCheckTest, MlpBackbone) {
  // L = <Out, C> for fixed random C through three ReLU layers.
  Rng Init(8);
  Mlp Backbone(6, 8, 3, Init);
  std::vector<double> X = randomValues(2 * 6);
  std::vector<double> C = randomValues(2 * 8);
  auto Weights = [&] {
    std::vector<LinearWeights<double>> W;
    for (const Linear &L : Backbone.layers())
      W.push_back(weightsOf(L));
    return W;
  };
  auto Loss = [&] { return dot(mlpForward(matOf(2, 6, X), Weights()), C); };

  std::vector<Mat<double>> Tape;
  mlpForward(matOf(2, 6, X), Weights(), &Tape);
  ASSERT_EQ(Tape.size(), 4u); // three layer inputs, then the output
  Mat<double> DX = mlpBackward(Tape, matOf(2, 8, C), Backbone);
  for (const Tensor &P : Backbone.parameters())
    checkParam(P, Loss);
  checkEntries(X, std::vector<double>(DX.Data.begin(), DX.Data.end()), Loss);
}

TEST(GradCheckTest, LstmTwoStepSparse) {
  // Two steps over a batch of two sparse feature rows: the second step
  // exercises the hidden-state product and the recurrent gradients.
  Rng Init(9);
  LstmCell Cell(5, 4, Init);
  SparseRows X1 = testutil::sparseRowsOf({{0.7, 0.0, -0.4, 0.0, 0.9},
                                          {0.0, 0.2, 0.0, 0.0, -0.6}});
  SparseRows X2 = testutil::sparseRowsOf({{0.0, -0.8, 0.5, 0.3, 0.0},
                                          {0.4, 0.0, 0.0, -0.9, 0.1}});
  std::vector<double> C = randomValues(2 * 4);
  auto Gates = Cell.gates();
  LstmWeights<double> Weights{weightsOf(*Gates[0]), weightsOf(*Gates[1]),
                              weightsOf(*Gates[2]), weightsOf(*Gates[3])};
  auto Loss = [&] { return dot(lstmForward<double>({&X1, &X2}, Weights), C); };

  std::vector<LstmStep<double>> Tape;
  lstmForward<double>({&X1, &X2}, Weights, &Tape);
  ASSERT_EQ(Tape.size(), 2u);
  lstmBackward(Tape, matOf(2, 4, C), Cell);
  // Every gate's weight and bias.
  std::vector<Tensor> Params = Cell.parameters();
  ASSERT_EQ(Params.size(), 8u);
  for (const Tensor &P : Params)
    checkParam(P, Loss);
}

TEST(GradCheckTest, MaskedHeads) {
  // L = sum_r DPick[r] * log p_r(pick_r) + DEntropy[r] * H_r over a
  // masked head: row 1 picks nothing (an inactive row) and row 2 takes
  // no entropy gradient.
  const unsigned Rows = 3, Cols = 6;
  std::vector<double> Logits = randomValues(Rows * Cols, -2.0, 2.0);
  std::vector<double> Mask0 = {1, 0, 1, 1, 0, 1};
  std::vector<double> Mask1 = {1, 1, 1, 1, 1, 1};
  std::vector<double> Mask2 = {0, 1, 1, 0, 1, 1};
  std::vector<const double *> Masks = {Mask0.data(), Mask1.data(),
                                       Mask2.data()};
  std::vector<int> Picks = {2, -1, 4};
  std::vector<double> DPick = {0.7, 0.9, -1.3};
  std::vector<double> DEntropy = {0.4, -0.8, 0.0};
  auto Loss = [&] {
    Mat<double> LogP = logSoftmaxRows(matOf(Rows, Cols, Logits), Masks);
    std::vector<double> H = entropyRows(LogP);
    double Sum = 0.0;
    for (unsigned R = 0; R < Rows; ++R) {
      if (Picks[R] >= 0)
        Sum += DPick[R] * LogP.at(R, static_cast<unsigned>(Picks[R]));
      Sum += DEntropy[R] * H[R];
    }
    return Sum;
  };
  Mat<double> LogP = logSoftmaxRows(matOf(Rows, Cols, Logits), Masks);
  Mat<double> DLogits(Rows, Cols);
  entropyBackward(LogP, Masks, DEntropy, DLogits);
  pickBackward(LogP, Masks, Picks, DPick.data(), DLogits);
  checkEntries(Logits, std::vector<double>(DLogits.Data.begin(),
                                           DLogits.Data.end()),
               Loss);
  // Masked entries receive no gradient at all.
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned J = 0; J < Cols; ++J) {
      if (Masks[R][J] == 0.0) {
        EXPECT_EQ(DLogits.at(R, J), 0.0) << "row " << R << " col " << J;
      }
    }

  // An inactive row with no entropy gradient is left untouched.
  Mat<double> Untouched(Rows, Cols);
  entropyBackward(LogP, Masks, {0.0, 0.0, 0.0}, Untouched);
  pickBackward(LogP, Masks, {-1, -1, -1}, DPick.data(), Untouched);
  for (double V : Untouched.Data)
    EXPECT_EQ(V, 0.0);
}

//===----------------------------------------------------------------------===//
// evaluateBatch -> PPO loss -> backward, every parameter entry.
//===----------------------------------------------------------------------===//

namespace {

/// A 79-feature environment (3 loops, 4 tile sizes, 2 arrays of rank 2,
/// schedules of at most 2 transformations) under a 4-wide, depth-1 net:
/// ~1.6k policy and ~1.4k value parameters.
EnvConfig tinyEnv(ActionSpaceMode Space, InterchangeMode Interchange) {
  EnvConfig E = EnvConfig::laptop();
  E.MaxLoops = 3;
  E.NumTileSizes = 4;
  E.TileCandidates = {0, 4, 8, 16};
  E.MaxArrays = 2;
  E.MaxRank = 2;
  E.MaxScheduleLength = 2;
  E.ActionSpace = Space;
  E.Interchange = Interchange;
  return E;
}

/// Every step of a few sampled episodes, as one minibatch.
struct Minibatch {
  std::vector<Observation> Obs;
  std::vector<AgentAction> Actions;
  std::vector<double> OldLogProb, Advantage, Return;
};

Minibatch sampleMinibatch(const ActorCritic &Agent, const EnvConfig &Env,
                          Evaluator &Eval) {
  Minibatch MB;
  Rng R(31), Noise(32);
  std::vector<Module> Modules = {makeMatmulModule(64, 64, 64),
                                 makeReluModule({256, 64}),
                                 makeAddModule({128, 128})};
  for (unsigned Episode = 0; Episode < 9; ++Episode) {
    Environment E(Env, Eval, Modules[Episode % Modules.size()]);
    while (!E.isDone()) {
      ActorCritic::Sampled S = Agent.act(E.observe(), R);
      MB.Obs.push_back(E.observe());
      MB.Actions.push_back(S.Action);
      // The stored log-probability: the ratio starts at 1, inside the
      // clip range, so the loss is smooth around the parameters.
      MB.OldLogProb.push_back(S.LogProb);
      MB.Advantage.push_back(Noise.nextDouble(-2.0, 2.0));
      MB.Return.push_back(S.Value + Noise.nextDouble(-1.0, 1.0));
      E.step(S.Action);
    }
  }
  return MB;
}

/// PpoTrainer::update's loss over \p MB (a larger entropy coefficient,
/// so the entropy heads' gradients are not swamped).
Tensor ppoLoss(const ActorCritic &Agent, const Minibatch &MB) {
  std::vector<const Observation *> Obs;
  std::vector<const AgentAction *> Actions;
  for (size_t I = 0; I < MB.Obs.size(); ++I) {
    Obs.push_back(&MB.Obs[I]);
    Actions.push_back(&MB.Actions[I]);
  }
  const unsigned B = static_cast<unsigned>(Obs.size());
  PpoConfig Config;
  ActorCritic::BatchEvaluation Eval = Agent.evaluateBatch(Obs, Actions);
  Tensor Ratio =
      expOp(sub(Eval.LogProb, Tensor::fromData(B, 1, MB.OldLogProb)));
  Tensor Adv = Tensor::fromData(B, 1, MB.Advantage);
  Tensor Unclipped = hadamard(Ratio, Adv);
  Tensor Clipped = hadamard(
      clamp(Ratio, 1.0 - Config.ClipRange, 1.0 + Config.ClipRange), Adv);
  Tensor PolicyLoss = scale(meanAll(minOp(Unclipped, Clipped)), -1.0);
  Tensor Diff = sub(Eval.Value, Tensor::fromData(B, 1, MB.Return));
  Tensor ValueLoss = meanAll(hadamard(Diff, Diff));
  return add(add(PolicyLoss, scale(ValueLoss, Config.ValueCoef)),
             scale(meanAll(Eval.Entropy), -0.3));
}

struct PpoGradCase {
  ActionSpaceMode Space;
  InterchangeMode Interchange;
};

class PpoGradCheck : public ::testing::TestWithParam<PpoGradCase> {};

} // namespace

TEST_P(PpoGradCheck, EveryParameterEntry) {
  EnvConfig Env = tinyEnv(GetParam().Space, GetParam().Interchange);
  ASSERT_EQ(Featurizer(Env).featureSize(), 79u);
  ActorCritic Agent(Env, Featurizer(Env).featureSize(), NetConfig{4, 4, 1},
                    11);
  Runner Run(MachineModel::xeonE5_2680v4());
  Minibatch MB = sampleMinibatch(Agent, Env, Run);

  // The minibatch reaches every head the space has.
  bool Pointer = false, Tiled = false, Interchange = false;
  for (size_t I = 0; I < MB.Obs.size(); ++I) {
    Pointer |= MB.Obs[I].InPointerSequence;
    TransformKind K = MB.Actions[I].Kind;
    Tiled |= K == TransformKind::Tiling ||
             K == TransformKind::TiledParallelization ||
             K == TransformKind::TiledFusion;
    Interchange |= K == TransformKind::Interchange;
  }
  if (GetParam().Space == ActionSpaceMode::MultiDiscrete) {
    EXPECT_TRUE(Tiled);
    EXPECT_TRUE(Interchange);
    EXPECT_EQ(Pointer,
              GetParam().Interchange == InterchangeMode::LevelPointers);
  }

  std::vector<Tensor> Params = Agent.parameters();
  zeroGradients(Params);
  ppoLoss(Agent, MB).backward();
  size_t Checked = 0;
  for (const Tensor &P : Params) {
    // Every entry, through a fresh evaluation each time.
    checkParam(P, [&] { return ppoLoss(Agent, MB).item(); });
    Checked += P.size();
  }
  EXPECT_GT(Checked, 2500u);
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, PpoGradCheck,
    ::testing::Values(
        PpoGradCase{ActionSpaceMode::MultiDiscrete,
                    InterchangeMode::LevelPointers},
        PpoGradCase{ActionSpaceMode::MultiDiscrete,
                    InterchangeMode::Enumerated},
        PpoGradCase{ActionSpaceMode::Flat, InterchangeMode::LevelPointers}),
    [](const ::testing::TestParamInfo<PpoGradCase> &Info) {
      std::string Name = Info.param.Space == ActionSpaceMode::Flat
                             ? "Flat"
                             : "MultiDiscrete";
      return Name + (Info.param.Interchange == InterchangeMode::Enumerated
                         ? "Enumerated"
                         : "Pointers");
    });
