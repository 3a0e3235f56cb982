//===- DistributionsTest.cpp - Tests for masked categoricals ----------------===//
//
// The row helpers rollouts act through (nn/Inference.h) and the
// differentiable entropy the PPO update regularizes with.
//
//===----------------------------------------------------------------------===//

#include "nn/Distributions.h"
#include "nn/Inference.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// Log-softmax of one row under an optional mask.
std::vector<double> logProbs(const std::vector<double> &Logits,
                             const std::vector<double> &Mask = {}) {
  std::vector<double> Out(Logits.size());
  logSoftmaxRow(Logits.data(), Mask.empty() ? nullptr : Mask.data(),
                static_cast<unsigned>(Logits.size()), Out.data());
  return Out;
}

std::vector<double> probabilities(const std::vector<double> &LogProbs) {
  std::vector<double> P;
  for (double L : LogProbs)
    P.push_back(std::exp(L));
  return P;
}

double entropy(const std::vector<double> &Logits,
               const std::vector<double> &Mask = {}) {
  unsigned N = static_cast<unsigned>(Logits.size());
  BatchedMaskedCategorical Dist(
      Tensor::fromData(1, N, Logits),
      Mask.empty() ? Tensor() : Tensor::fromData(1, N, Mask));
  return Dist.entropyRows().item();
}

} // namespace

TEST(CategoricalTest, ProbabilitiesSumToOne) {
  double Sum = 0.0;
  for (double P : probabilities(logProbs({0.1, 2.0, -1.0, 0.5})))
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(CategoricalTest, MaskZeroesProbabilities) {
  std::vector<double> P =
      probabilities(logProbs({5.0, 1.0, 1.0, 1.0}, {0, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(P[0], 0.0);
  EXPECT_NEAR(P[1] + P[2] + P[3], 1.0, 1e-9);
  EXPECT_GT(P[1], 0.0);
}

TEST(CategoricalTest, SamplingNeverPicksMasked) {
  std::vector<double> LogP = logProbs({10.0, 0.0, 0.0}, {0, 1, 1});
  Rng R(5);
  for (int I = 0; I < 200; ++I)
    EXPECT_NE(sampleRow(LogP.data(), 3, R), 0u);
}

TEST(CategoricalTest, SamplingFollowsProbabilities) {
  std::vector<double> LogP = logProbs({std::log(3.0), 0.0});
  Rng R(11);
  int Counts[2] = {0, 0};
  for (int I = 0; I < 8000; ++I)
    ++Counts[sampleRow(LogP.data(), 2, R)];
  EXPECT_NEAR(static_cast<double>(Counts[0]) / Counts[1], 3.0, 0.35);
}

TEST(CategoricalTest, ArgmaxRespectsMask) {
  std::vector<double> LogP = logProbs({10.0, 1.0, 2.0}, {0, 1, 1});
  EXPECT_EQ(argmaxRow(LogP.data(), 3), 2u);
}

TEST(CategoricalTest, LogProbMatchesProbabilities) {
  Tensor Logits = Tensor::fromData(1, 3, {1.0, 2.0, 3.0});
  BatchedMaskedCategorical Dist(Logits);
  std::vector<double> P = probabilities(logProbs({1.0, 2.0, 3.0}));
  for (int I = 0; I < 3; ++I)
    EXPECT_NEAR(Dist.logProbRows({I}).item(), std::log(P[I]), 1e-9);
}

TEST(CategoricalTest, EntropyUniformIsLogN) {
  EXPECT_NEAR(entropy(std::vector<double>(8, 0.0)), std::log(8.0), 1e-9);
}

TEST(CategoricalTest, EntropyMaskedUniformIsLogValidCount) {
  EXPECT_NEAR(entropy(std::vector<double>(8, 0.0), {1, 1, 1, 0, 0, 0, 0, 1}),
              std::log(4.0), 1e-9);
}

TEST(CategoricalTest, PeakyDistributionLowEntropy) {
  EXPECT_LT(entropy({20.0, 0.0, 0.0, 0.0}), 0.01);
}
