//===- TensorTest.cpp - Tests for the autograd engine -----------------------===//

#include "nn/Ops.h"
#include "nn/Optimizer.h"
#include "nn/Tensor.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

TEST(TensorTest, ConstructionAndAccess) {
  Tensor T = Tensor::fromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(T.rows(), 2u);
  EXPECT_EQ(T.cols(), 3u);
  EXPECT_DOUBLE_EQ(T.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(T.at(1, 2), 6.0);
  EXPECT_FALSE(T.requiresGrad());
}

TEST(TensorTest, ParameterRequiresGrad) {
  Tensor P = Tensor::parameter(1, 2, {0.5, -0.5});
  EXPECT_TRUE(P.requiresGrad());
}

TEST(TensorTest, RequiresGradPropagates) {
  Tensor A = Tensor::parameter(1, 2, {1, 2});
  Tensor B = Tensor::fromData(1, 2, {3, 4});
  EXPECT_TRUE(add(A, B).requiresGrad());
  EXPECT_FALSE(add(B, B).requiresGrad());
}

TEST(TensorTest, SimpleBackward) {
  // f = sum(a * b); df/da = b, df/db = a.
  Tensor A = Tensor::parameter(1, 3, {1, 2, 3});
  Tensor B = Tensor::parameter(1, 3, {4, 5, 6});
  Tensor F = sumAll(hadamard(A, B));
  EXPECT_DOUBLE_EQ(F.item(), 4 + 10 + 18);
  F.backward();
  EXPECT_DOUBLE_EQ(A.grad()[0], 4.0);
  EXPECT_DOUBLE_EQ(A.grad()[2], 6.0);
  EXPECT_DOUBLE_EQ(B.grad()[1], 2.0);
}

TEST(TensorTest, GradAccumulatesAcrossUses) {
  // f = sum(a + a): df/da = 2 per element.
  Tensor A = Tensor::parameter(1, 2, {1, 1});
  Tensor F = sumAll(add(A, A));
  F.backward();
  EXPECT_DOUBLE_EQ(A.grad()[0], 2.0);
}

TEST(TensorTest, DiamondGraphBackward) {
  // f = sum((a+a) * a) = 2*a^2 summed; df/da = 4a.
  Tensor A = Tensor::parameter(1, 2, {3, -2});
  Tensor F = sumAll(hadamard(add(A, A), A));
  F.backward();
  EXPECT_DOUBLE_EQ(A.grad()[0], 12.0);
  EXPECT_DOUBLE_EQ(A.grad()[1], -8.0);
}

TEST(TensorTest, ZeroGradClears) {
  Tensor A = Tensor::parameter(1, 1, {2.0});
  Tensor F = sumAll(hadamard(A, A));
  F.backward();
  EXPECT_NE(A.grad()[0], 0.0);
  zeroGradients({A});
  EXPECT_DOUBLE_EQ(A.grad()[0], 0.0);
}

TEST(TensorTest, DeepChainBackwardIterative) {
  // A 2000-deep chain must not overflow the stack (iterative DFS).
  Tensor A = Tensor::parameter(1, 1, {1.0});
  Tensor X = A;
  for (int I = 0; I < 2000; ++I)
    X = scale(X, 1.001);
  X.backward();
  EXPECT_NEAR(A.grad()[0], std::pow(1.001, 2000), 1e-6 * A.grad()[0]);
}
