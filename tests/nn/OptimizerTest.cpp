//===- OptimizerTest.cpp - Tests for Adam / SGD and training dynamics -------===//

#include "nn/Ops.h"
#include "nn/Optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // minimize (x - 3)^2.
  Tensor X = Tensor::parameter(1, 1, {0.0});
  Sgd Opt({X}, 0.1);
  for (int I = 0; I < 100; ++I) {
    Opt.zeroGrad();
    Tensor Diff = sub(X, Tensor::scalar(3.0));
    Tensor Loss = sumAll(hadamard(Diff, Diff));
    Loss.backward();
    Opt.step();
  }
  EXPECT_NEAR(X.item(), 3.0, 1e-4);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Tensor X = Tensor::parameter(1, 2, {-4.0, 7.0});
  Adam Opt({X}, 0.1);
  for (int I = 0; I < 300; ++I) {
    Opt.zeroGrad();
    Tensor Target = Tensor::fromData(1, 2, {1.0, -2.0});
    Tensor Diff = sub(X, Target);
    sumAll(hadamard(Diff, Diff)).backward();
    Opt.step();
  }
  EXPECT_NEAR(X.at(0, 0), 1.0, 1e-2);
  EXPECT_NEAR(X.at(0, 1), -2.0, 1e-2);
}

TEST(OptimizerTest, AdamStepSizeBounded) {
  // First Adam step moves by ~lr regardless of gradient scale.
  Tensor X = Tensor::parameter(1, 1, {0.0});
  Adam Opt({X}, 0.5);
  Opt.zeroGrad();
  sumAll(scale(X, 1e6)).backward();
  Opt.step();
  EXPECT_NEAR(std::fabs(X.item()), 0.5, 0.01);
}

TEST(OptimizerTest, GradClipScalesDown) {
  Tensor A = Tensor::parameter(1, 2, {0, 0});
  A.node()->Grad = {3.0, 4.0}; // norm 5
  double Norm = clipGradNorm({A}, 1.0);
  EXPECT_DOUBLE_EQ(Norm, 5.0);
  EXPECT_NEAR(A.grad()[0], 0.6, 1e-12);
  EXPECT_NEAR(A.grad()[1], 0.8, 1e-12);
}

TEST(OptimizerTest, GradClipNoOpUnderLimit) {
  Tensor A = Tensor::parameter(1, 2, {0, 0});
  A.node()->Grad = {0.3, 0.4};
  clipGradNorm({A}, 1.0);
  EXPECT_DOUBLE_EQ(A.grad()[0], 0.3);
}

TEST(OptimizerTest, LinearRegressionConverges) {
  // Fit y = 2x - 1 with a weight and a bias, through the loss ops.
  Tensor W = Tensor::parameter(1, 1, {0.3});
  Tensor B = Tensor::parameter(1, 1, {0.0});
  Adam Opt({W, B}, 0.05);
  auto Predict = [&](double Xv) {
    return add(scale(W, Xv), B);
  };
  for (int Iter = 0; Iter < 500; ++Iter) {
    Opt.zeroGrad();
    Tensor Loss = Tensor::scalar(0.0);
    for (double Xv : {-1.0, 0.0, 1.0, 2.0}) {
      Tensor Diff = sub(Predict(Xv), Tensor::scalar(2 * Xv - 1));
      Loss = add(Loss, scale(hadamard(Diff, Diff), 0.25));
    }
    Loss.backward();
    Opt.step();
  }
  EXPECT_NEAR(Predict(5.0).item(), 9.0, 0.05);
}
