//===- OptimizerTest.cpp - Tests for Adam / SGD and training dynamics -------===//

#include "nn/Gemm.h"
#include "nn/Ops.h"
#include "nn/Optimizer.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>

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

namespace {

/// Parameter shapes covering every sub-vector tail (1, 3 and 5 columns)
/// and the network's row widths (48, 72), with enough rows that the
/// large ones span several chunks.
const std::vector<std::pair<unsigned, unsigned>> ExactnessShapes = {
    {9000, 1}, {40, 3}, {33, 5}, {1100, 48}, {150, 72}};

std::vector<Tensor> makeParams(uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Params;
  for (auto [Rows, Cols] : ExactnessShapes) {
    std::vector<double> Values(static_cast<size_t>(Rows) * Cols);
    for (double &V : Values)
      V = R.nextBernoulli(0.05) ? -0.0 : R.nextGaussian();
    Params.push_back(Tensor::parameter(Rows, Cols, std::move(Values)));
  }
  return Params;
}

/// Fills the gradients for update \p Step. Rows fall in five classes by
/// index: never touched (gradient and moments stay +0.0), touched only
/// in the first two steps (zero gradient over live moments later), all
/// -0.0 or +0.0 with no nonzero entry, and two classes of Gaussian
/// gradients with exact zeros and -0.0 sprinkled in.
void fillGradients(const std::vector<Tensor> &Params, unsigned Step,
                   uint64_t Seed) {
  Rng R(Rng::deriveSeed(Seed, Step));
  for (const Tensor &P : Params) {
    DBuffer &G = P.node()->Grad;
    for (unsigned Row = 0; Row < P.rows(); ++Row)
      for (unsigned Col = 0; Col < P.cols(); ++Col) {
        double &E = G[static_cast<size_t>(Row) * P.cols() + Col];
        switch (Row % 5) {
        case 0:
          E = 0.0;
          break;
        case 1:
          E = Step < 2 ? R.nextGaussian() : 0.0;
          break;
        case 2:
          E = R.nextBernoulli(0.5) ? -0.0 : 0.0;
          break;
        default:
          E = R.nextBernoulli(0.2)   ? 0.0
              : R.nextBernoulli(0.1) ? -0.0
                                     : R.nextGaussian() * 1e-3;
          break;
        }
      }
  }
}

/// Starting moments: +0.0, except for a -0.0 entry at the start of
/// every third never-touched row (\p Which picks which third). Such a
/// row is not all zero: stepping it turns the -0.0 into +0.0, so a row
/// test on values instead of bits would show.
std::vector<std::vector<double>> startMoments(const std::vector<Tensor> &Params,
                                              unsigned Which) {
  std::vector<std::vector<double>> Moments;
  for (const Tensor &P : Params) {
    Moments.emplace_back(P.size(), 0.0);
    for (unsigned Row = 0; Row < P.rows(); Row += 5)
      if ((Row / 5) % 3 == Which)
        Moments.back()[static_cast<size_t>(Row) * P.cols()] = -0.0;
  }
  return Moments;
}

/// Adam::step's element loop as it was before chunking and SIMD,
/// verbatim: the bitwise reference.
struct ReferenceAdam {
  double LearningRate, Beta1, Beta2, Epsilon;
  unsigned StepCount = 0;
  std::vector<std::vector<double>> FirstMoment, SecondMoment;

  void step(const std::vector<Tensor> &Params) {
    ++StepCount;
    double Bias1 = 1.0 - std::pow(Beta1, StepCount);
    double Bias2 = 1.0 - std::pow(Beta2, StepCount);
    for (size_t I = 0; I < Params.size(); ++I) {
      TensorNode &Node = *Params[I].node();
      std::vector<double> &M = FirstMoment[I];
      std::vector<double> &V = SecondMoment[I];
      for (size_t J = 0; J < Node.Data.size(); ++J) {
        double G = Node.Grad[J];
        M[J] = Beta1 * M[J] + (1.0 - Beta1) * G;
        V[J] = Beta2 * V[J] + (1.0 - Beta2) * G * G;
        double MHat = M[J] / Bias1;
        double VHat = V[J] / Bias2;
        Node.Data[J] -= LearningRate * MHat / (std::sqrt(VHat) + Epsilon);
      }
    }
  }
};

template <typename A, typename B> bool sameBits(const A &X, const B &Y) {
  return X.size() == Y.size() &&
         std::memcmp(X.data(), Y.data(), X.size() * sizeof(double)) == 0;
}

/// Installs a pool of \p Threads as the update pool for the scope.
struct ScopedUpdatePool {
  explicit ScopedUpdatePool(unsigned Threads) : Pool(Threads) {
    setGemmPool(&Pool);
  }
  ~ScopedUpdatePool() { setGemmPool(nullptr); }
  ThreadPool Pool;
};

} // namespace

TEST(OptimizerTest, AdamStepMatchesScalarReferenceBitwise) {
  // Epsilon 0 turns a zero row's step into 0/0 = NaN, so skipping zero
  // rows would no longer be exact: the optimizer must notice and sweep
  // them, NaNs and all.
  for (double Epsilon : {1e-8, 0.0})
    for (unsigned Threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "Epsilon " << Epsilon << ", " << Threads << " threads");
      ScopedUpdatePool Scope(Threads);
      std::vector<Tensor> Params = makeParams(7);
      std::vector<Tensor> RefParams = makeParams(7);
      Adam Opt(Params, 3e-4, 0.9, 0.999, Epsilon);
      ReferenceAdam Ref{3e-4, 0.9, 0.999, Epsilon, 0,
                        startMoments(Params, 1), startMoments(Params, 2)};
      ASSERT_TRUE(Opt.setState({0, Ref.FirstMoment, Ref.SecondMoment}));
      for (unsigned Step = 0; Step < 6; ++Step) {
        fillGradients(Params, Step, 11);
        fillGradients(RefParams, Step, 11);
        Opt.step();
        Ref.step(RefParams);
        for (size_t I = 0; I < Params.size(); ++I)
          ASSERT_TRUE(sameBits(Params[I].data(), RefParams[I].data()))
              << "parameter " << I << " after step " << Step;
      }
      for (size_t I = 0; I < Params.size(); ++I) {
        EXPECT_TRUE(sameBits(Opt.firstMoments()[I], Ref.FirstMoment[I]))
            << "first moment " << I;
        EXPECT_TRUE(sameBits(Opt.secondMoments()[I], Ref.SecondMoment[I]))
            << "second moment " << I;
      }
    }
}

namespace {

/// A gradient row of the clip cases below.
enum class RowKind { Live, Zero, NaN, Inf, Base, Tie };

/// One tensor of a clip case: its width and its rows' kinds.
struct ClipTensor {
  unsigned Cols;
  std::vector<RowKind> Rows;
};

/// Parameters whose gradients follow \p Shapes: a Live row holds
/// Gaussians with exact and negative zeros sprinkled in, a Zero row a
/// mix of +0.0 and -0.0, and a NaN or Inf row one such entry among
/// Gaussians. A Base row holds 8192 and zeros, and a Tie row zeros and
/// 1 + 2^-28 in its last column: once the sum is 2^26 plus an integer,
/// adding that square rounded lands exactly halfway between two doubles
/// and rounds to even, while a fused multiply-add rounds it up.
std::vector<Tensor> clipParams(const std::vector<ClipTensor> &Shapes,
                               uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Params;
  for (const ClipTensor &S : Shapes) {
    const unsigned Rows = static_cast<unsigned>(S.Rows.size());
    std::vector<double> Values(static_cast<size_t>(Rows) * S.Cols, 1.0);
    Params.push_back(Tensor::parameter(Rows, S.Cols, std::move(Values)));
    DBuffer &G = Params.back().node()->Grad;
    for (unsigned Row = 0; Row < Rows; ++Row)
      for (unsigned Col = 0; Col < S.Cols; ++Col) {
        double &E = G[static_cast<size_t>(Row) * S.Cols + Col];
        E = R.nextBernoulli(0.2)   ? 0.0
            : R.nextBernoulli(0.1) ? -0.0
                                   : R.nextGaussian();
        switch (S.Rows[Row]) {
        case RowKind::Live:
          break;
        case RowKind::Zero:
          E = R.nextBernoulli(0.5) ? -0.0 : 0.0;
          break;
        case RowKind::NaN:
          if (Col == S.Cols / 2)
            E = std::nan("");
          break;
        case RowKind::Inf:
          if (Col == 0)
            E = HUGE_VAL;
          break;
        case RowKind::Base:
          E = Col == 0 ? 8192.0 : 0.0;
          break;
        case RowKind::Tie:
          E = Col + 1 == S.Cols ? 1.0 + std::ldexp(1.0, -28) : 0.0;
          break;
        }
      }
  }
  return Params;
}

/// Tensors whose zero rows sit where the norm's row skip could split a
/// sum: zero rows inside 6- and 9-column tensors, which are summed
/// whole, first and last rows, a tensor with no live row, single live
/// rows of 8 entries between zero rows, and single-row tensors. The
/// 6- and 9-column tensors come first, after a Base row, and hold Tie
/// rows whose last entries a sum split at their zero rows would add by
/// fused multiply-adds, so such a split changes the norm's bits.
std::vector<ClipTensor> clipEdgeShapes(RowKind Special) {
  using K = RowKind;
  return {{8, {K::Base}},
          {6, {K::Tie, K::Zero, K::Tie, K::Zero, K::Zero, K::Tie}},
          {9, {K::Zero, K::Tie, K::Zero, K::Zero, K::Tie}},
          {16, {K::Zero, K::Live, K::Live, Special, K::Live, K::Zero}},
          {8, {K::Zero, K::Zero, K::Zero, K::Zero, K::Zero}},
          {8, {K::Live, K::Zero, K::Live, K::Zero, K::Zero, K::Live, K::Zero,
               K::Live}},
          {48, {K::Live, K::Zero, K::Zero, K::Live, K::Live, K::Zero}},
          {8, {K::Live}},
          {8, {K::Zero}},
          {24, {K::Live}},
          {5, {K::Zero}},
          {3, {K::Live}}};
}

} // namespace

TEST(OptimizerTest, GradClipMatchesSerialReferenceBitwise) {
  // The pseudo-random rows, then the row-skip edge cases: finite, with a
  // NaN in one row and +inf in another (no clip), and with +inf alone
  // (scale 0, which turns the +inf into NaN). A negative bound flips
  // every sign, +0.0 entries included, so a scale pass that left zero
  // rows alone would show; a zero bound zeroes every live entry.
  struct ClipCase {
    const char *Name;
    std::function<std::vector<Tensor>()> Make;
  };
  const std::vector<ClipCase> Cases = {
      {"random rows",
       [] {
         std::vector<Tensor> Params = makeParams(3);
         fillGradients(Params, 0, 5);
         return Params;
       }},
      {"edge rows",
       [] { return clipParams(clipEdgeShapes(RowKind::Live), 5); }},
      {"NaN and +inf",
       [] {
         std::vector<ClipTensor> Shapes = clipEdgeShapes(RowKind::NaN);
         Shapes[6].Rows[1] = RowKind::Inf;
         return clipParams(Shapes, 6);
       }},
      {"+inf", [] { return clipParams(clipEdgeShapes(RowKind::Inf), 7); }}};
  for (const ClipCase &Case : Cases)
    for (double MaxNorm : {0.25, -0.25, 0.0})
      for (unsigned Threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << Case.Name << ", MaxNorm "
                                        << MaxNorm << ", " << Threads
                                        << " threads");
        ScopedUpdatePool Scope(Threads);
        std::vector<Tensor> Params = Case.Make();
        // clipGradNorm before row skipping, verbatim.
        double SumSq = 0.0;
        for (const Tensor &P : Params)
          for (double G : P.grad())
            SumSq += G * G;
        double ExpectedNorm = std::sqrt(SumSq);
        std::vector<DBuffer> Expected;
        for (const Tensor &P : Params)
          Expected.push_back(P.grad());
        if (ExpectedNorm > MaxNorm && ExpectedNorm > 0.0) {
          double Scale = MaxNorm / ExpectedNorm;
          for (DBuffer &G : Expected)
            for (double &E : G)
              E *= Scale;
        }

        double Norm = clipGradNorm(Params, MaxNorm);
        EXPECT_EQ(std::memcmp(&Norm, &ExpectedNorm, sizeof(double)), 0)
            << Norm << " vs " << ExpectedNorm;
        for (size_t I = 0; I < Params.size(); ++I)
          EXPECT_TRUE(sameBits(Params[I].grad(), Expected[I]))
              << "param " << I;
      }
}

TEST(OptimizerTest, ZeroGradLeavesEveryEntryPositiveZero) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << Threads << " threads");
    ScopedUpdatePool Scope(Threads);
    std::vector<Tensor> Params = makeParams(9);
    Adam Opt(Params);
    for (unsigned Step = 0; Step < 3; ++Step) {
      fillGradients(Params, Step, 13);
      Opt.zeroGrad();
      for (const Tensor &P : Params)
        for (double G : P.grad())
          ASSERT_EQ(std::bit_cast<uint64_t>(G), 0u);
    }
  }
}
