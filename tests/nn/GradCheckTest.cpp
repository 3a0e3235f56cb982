//===- GradCheckTest.cpp - Numerical gradient verification ------------------===//
//
// Central-difference gradient checks over every differentiable op and the
// composite layers (Linear, MLP, sparse-input LSTM cell, masked
// categorical heads).
//
//===----------------------------------------------------------------------===//

#include "nn/Distributions.h"
#include "nn/Layers.h"
#include "nn/Lstm.h"
#include "nn/Ops.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// Checks d(Loss)/d(Param) against central differences for every entry.
void checkGradient(const Tensor &Param,
                   const std::function<Tensor()> &BuildLoss,
                   double Eps = 1e-5, double Tol = 1e-5) {
  Tensor Loss = BuildLoss();
  Param.zeroGrad();
  Loss.backward();
  std::vector<double> Analytic(Param.grad().begin(), Param.grad().end());

  for (size_t I = 0; I < Param.size(); ++I) {
    double Saved = Param.node()->Data[I];
    Param.node()->Data[I] = Saved + Eps;
    double Plus = BuildLoss().item();
    Param.node()->Data[I] = Saved - Eps;
    double Minus = BuildLoss().item();
    Param.node()->Data[I] = Saved;
    double Numeric = (Plus - Minus) / (2 * Eps);
    double Scale = std::max({1.0, std::fabs(Analytic[I]),
                             std::fabs(Numeric)});
    EXPECT_NEAR(Analytic[I], Numeric, Tol * Scale)
        << "entry " << I << " of " << Param.size();
  }
}

Rng &testRng() {
  static Rng R(12345);
  return R;
}

Tensor randomParam(unsigned Rows, unsigned Cols) {
  std::vector<double> V(static_cast<size_t>(Rows) * Cols);
  for (double &X : V)
    X = testRng().nextDouble(-1.0, 1.0);
  return Tensor::parameter(Rows, Cols, std::move(V));
}

} // namespace

TEST(GradCheckTest, Matmul) {
  Tensor A = randomParam(3, 4);
  Tensor B = randomParam(4, 2);
  checkGradient(A, [&] { return sumAll(matmul(A, B)); });
  checkGradient(B, [&] { return sumAll(hadamard(matmul(A, B), matmul(A, B))); });
}

TEST(GradCheckTest, AddSubHadamard) {
  Tensor A = randomParam(2, 3);
  Tensor B = randomParam(2, 3);
  checkGradient(A, [&] { return sumAll(hadamard(add(A, B), sub(A, B))); });
}

TEST(GradCheckTest, AddBias) {
  Tensor X = randomParam(3, 4);
  Tensor B = randomParam(1, 4);
  checkGradient(B, [&] { return sumAll(hadamard(addBias(X, B), X)); });
  checkGradient(X, [&] { return sumAll(hadamard(addBias(X, B), X)); });
}

TEST(GradCheckTest, Nonlinearities) {
  Tensor X = randomParam(2, 5);
  checkGradient(X, [&] { return sumAll(tanhOp(X)); });
  checkGradient(X, [&] { return sumAll(sigmoidOp(X)); });
  checkGradient(X, [&] { return sumAll(expOp(scale(X, 0.3))); });
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Keep inputs away from 0 where the subgradient is ambiguous.
  Tensor X = Tensor::parameter(1, 4, {1.5, -2.0, 0.7, -0.3});
  checkGradient(X, [&] { return sumAll(relu(X)); });
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

TEST(GradCheckTest, LogSoftmax) {
  Tensor Logits = randomParam(2, 5);
  checkGradient(Logits, [&] {
    // Weighted sum of log-probs exercises off-diagonal terms.
    Tensor W = Tensor::fromData(2, 5, {1, 0, 2, 0, 1, 0, 1, 0, 3, 0});
    return sumAll(hadamard(logSoftmaxRows(Logits), W));
  });
}

TEST(GradCheckTest, MaskedLogSoftmax) {
  Tensor Logits = randomParam(1, 6);
  Tensor Mask = Tensor::fromData(1, 6, {1, 0, 1, 1, 0, 1});
  checkGradient(Logits, [&] {
    return pickPerRow(logSoftmaxRows(Logits, Mask), {2});
  });
  // Masked entries receive zero gradient.
  Tensor Loss = pickPerRow(logSoftmaxRows(Logits, Mask), {2});
  Logits.zeroGrad();
  Loss.backward();
  EXPECT_DOUBLE_EQ(Logits.grad()[1], 0.0);
  EXPECT_DOUBLE_EQ(Logits.grad()[4], 0.0);
}

TEST(GradCheckTest, Entropy) {
  Tensor Logits = randomParam(1, 5);
  checkGradient(Logits, [&] { return entropyRowsOfLogits(Logits); });
}

TEST(GradCheckTest, MaskedEntropy) {
  Tensor Logits = randomParam(1, 5);
  Tensor Mask = Tensor::fromData(1, 5, {1, 1, 0, 1, 0});
  checkGradient(Logits, [&] { return entropyRowsOfLogits(Logits, Mask); });
}

TEST(GradCheckTest, MeanOf) {
  Tensor A = randomParam(1, 1);
  Tensor B = randomParam(1, 1);
  checkGradient(A, [&] {
    return meanOf({sumAll(hadamard(A, A)), sumAll(B), sumAll(A)});
  });
}

TEST(GradCheckTest, LinearLayer) {
  Rng R(7);
  Linear L(4, 3, R);
  Tensor X = randomParam(2, 4);
  for (const Tensor &P : L.parameters())
    checkGradient(P, [&] { return sumAll(tanhOp(L.forward(X))); });
}

TEST(GradCheckTest, MlpBackbone) {
  Rng R(8);
  Mlp Backbone(6, 8, 3, R);
  Tensor X = randomParam(1, 6);
  std::vector<Tensor> Params = Backbone.parameters();
  EXPECT_EQ(Params.size(), 6u); // 3 layers x (W, B)
  // Check the first and last layers' weights.
  checkGradient(Params.front(),
                [&] { return sumAll(Backbone.forward(X)); }, 1e-5, 1e-4);
  checkGradient(Params.back(),
                [&] { return sumAll(Backbone.forward(X)); }, 1e-5, 1e-4);
}

TEST(GradCheckTest, LstmCellStep) {
  Rng R(9);
  LstmCell Cell(5, 4, R);
  // Two steps over a batch of two sparse feature rows: the second step
  // exercises the hidden-state product and the recurrent gradients.
  auto SparseInput = [](std::vector<double> A, std::vector<double> B) {
    return std::make_shared<const SparseRows>(SparseRows::fromRows({&A, &B}));
  };
  std::vector<std::shared_ptr<const SparseRows>> Sequence = {
      SparseInput({0.7, 0.0, -0.4, 0.0, 0.9}, {0.0, 0.2, 0.0, 0.0, -0.6}),
      SparseInput({0.0, -0.8, 0.5, 0.3, 0.0}, {0.4, 0.0, 0.0, -0.9, 0.1})};
  auto Loss = [&] { return sumAll(Cell.runSequenceSparse(Sequence)); };
  // Every gate's weight and bias.
  std::vector<Tensor> Params = Cell.parameters();
  ASSERT_EQ(Params.size(), 8u);
  for (const Tensor &P : Params)
    checkGradient(P, Loss, 1e-5, 1e-4);
}

TEST(GradCheckTest, CategoricalLogProbGradient) {
  Tensor Logits = randomParam(1, 4);
  checkGradient(Logits, [&] {
    BatchedMaskedCategorical Dist(Logits);
    return Dist.logProbRows({1});
  });
}
