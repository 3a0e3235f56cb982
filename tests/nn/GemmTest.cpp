//===- GemmTest.cpp - Blocked matmul vs. naive reference --------------------===//
//
// The blocked kernels must be bit-compatible in shape handling with a
// naive triple loop on every shape, in particular shapes that are not
// multiples of the blocking parameters (MC/KC/NC/MR tails), and match
// references built from the scalar micro-kernels at 0 ULP.
//
//===----------------------------------------------------------------------===//

#include "nn/Backward.h"
#include "nn/Gemm.h"
#include "nn/GemmKernel.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

template <typename T = double> std::vector<T> randomData(Rng &R, unsigned N) {
  std::vector<T> V(N);
  for (T &X : V)
    X = static_cast<T>(R.nextDouble(-1.0, 1.0));
  return V;
}

/// Naive C += A . B reference.
void naiveNN(unsigned M, unsigned N, unsigned K, const std::vector<double> &A,
             const std::vector<double> &B, std::vector<double> &C) {
  for (unsigned I = 0; I < M; ++I)
    for (unsigned Kk = 0; Kk < K; ++Kk)
      for (unsigned J = 0; J < N; ++J)
        C[I * N + J] += A[I * K + Kk] * B[Kk * N + J];
}

struct Shape {
  unsigned M, K, N;
};

// Tails in every dimension: primes, ones, and sizes straddling the
// MR = 4 / MC = 64 / KC = 256 / NC = 512 block boundaries.
const Shape Shapes[] = {{1, 1, 1},    {1, 7, 3},    {4, 4, 4},
                        {5, 9, 7},    {3, 257, 13}, {65, 5, 17},
                        {2, 300, 520}, {67, 259, 33}, {128, 64, 96}};

} // namespace

TEST(GemmTest, BlockedNNMatchesNaive) {
  Rng R(42);
  for (const Shape &S : Shapes) {
    std::vector<double> A = randomData(R, S.M * S.K);
    std::vector<double> B = randomData(R, S.K * S.N);
    std::vector<double> Ref(S.M * S.N, 0.0), Out(S.M * S.N, 0.0);
    naiveNN(S.M, S.N, S.K, A, B, Ref);
    gemmAccNN(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N, Out.data(), S.N);
    for (unsigned I = 0; I < S.M * S.N; ++I)
      EXPECT_NEAR(Out[I], Ref[I], 1e-12 * (1.0 + std::fabs(Ref[I])))
          << "M=" << S.M << " K=" << S.K << " N=" << S.N << " idx=" << I;
  }
}

TEST(GemmTest, BlockedNTMatchesNaive) {
  Rng R(43);
  for (const Shape &S : Shapes) {
    // C(MxN) += A(MxK) . B^T with B stored NxK.
    std::vector<double> A = randomData(R, S.M * S.K);
    std::vector<double> B = randomData(R, S.N * S.K);
    std::vector<double> Ref(S.M * S.N, 0.0), Out(S.M * S.N, 0.0);
    for (unsigned I = 0; I < S.M; ++I)
      for (unsigned J = 0; J < S.N; ++J)
        for (unsigned Kk = 0; Kk < S.K; ++Kk)
          Ref[I * S.N + J] += A[I * S.K + Kk] * B[J * S.K + Kk];
    gemmAccNT(S.M, S.N, S.K, A.data(), S.K, B.data(), S.K, Out.data(), S.N);
    for (unsigned I = 0; I < S.M * S.N; ++I)
      EXPECT_NEAR(Out[I], Ref[I], 1e-12 * (1.0 + std::fabs(Ref[I])));
  }
}

TEST(GemmTest, BlockedTNMatchesNaive) {
  Rng R(44);
  for (const Shape &S : Shapes) {
    // C(MxN) += A^T . B with A stored KxM.
    std::vector<double> A = randomData(R, S.K * S.M);
    std::vector<double> B = randomData(R, S.K * S.N);
    std::vector<double> Ref(S.M * S.N, 0.0), Out(S.M * S.N, 0.0);
    for (unsigned Kk = 0; Kk < S.K; ++Kk)
      for (unsigned I = 0; I < S.M; ++I)
        for (unsigned J = 0; J < S.N; ++J)
          Ref[I * S.N + J] += A[Kk * S.M + I] * B[Kk * S.N + J];
    gemmAccTN(S.M, S.N, S.K, A.data(), S.M, B.data(), S.N, Out.data(), S.N);
    for (unsigned I = 0; I < S.M * S.N; ++I)
      EXPECT_NEAR(Out[I], Ref[I], 1e-12 * (1.0 + std::fabs(Ref[I])));
  }
}

TEST(GemmTest, AccumulatesIntoExistingValues) {
  std::vector<double> A = {1.0, 2.0};  // 1x2
  std::vector<double> B = {3.0, 4.0};  // 2x1
  std::vector<double> C = {10.0};      // pre-filled
  gemmAccNN(1, 1, 2, A.data(), 2, B.data(), 1, C.data(), 1);
  EXPECT_DOUBLE_EQ(C[0], 10.0 + 3.0 + 8.0);
}

namespace {

/// The dense-layer backward (nn/Backward.h) on raw buffers: dX, dW and
/// dB of a loss whose gradient at Y = X . W + b is \p DY.
struct LinearGradients {
  std::vector<double> DX, DW, DB;
};

LinearGradients linearGradients(unsigned M, unsigned K, unsigned N,
                                const std::vector<double> &X,
                                const std::vector<double> &W,
                                const std::vector<double> &B,
                                const std::vector<double> &DY) {
  Rng Init(1);
  Linear L(K, N, Init);
  std::copy(W.begin(), W.end(), L.weight().node()->Data.begin());
  std::copy(B.begin(), B.end(), L.bias().node()->Data.begin());
  std::vector<double> DX(M * K);
  linearBackward(M, X.data(), DY.data(), L, DX.data());
  return {DX, {L.weight().grad().begin(), L.weight().grad().end()},
          {L.bias().grad().begin(), L.bias().grad().end()}};
}

} // namespace

TEST(GemmTest, LinearBackwardMatchesManualGradients) {
  // d/dX sum(X.W + b) = ones . W^T, d/dW = X^T . ones, d/db = M; random
  // odd shapes so the kernel tails are exercised through the backward.
  Rng R(45);
  for (const Shape &S : {Shape{3, 5, 7}, Shape{1, 130, 9}, Shape{66, 3, 5}}) {
    std::vector<double> X = randomData(R, S.M * S.K);
    std::vector<double> W = randomData(R, S.K * S.N);
    std::vector<double> B = randomData(R, S.N);
    LinearGradients G = linearGradients(S.M, S.K, S.N, X, W, B,
                                        std::vector<double>(S.M * S.N, 1.0));
    for (unsigned I = 0; I < S.M; ++I)
      for (unsigned Kk = 0; Kk < S.K; ++Kk) {
        double Expect = 0.0;
        for (unsigned J = 0; J < S.N; ++J)
          Expect += W[Kk * S.N + J];
        EXPECT_NEAR(G.DX[I * S.K + Kk], Expect, 1e-10);
      }
    for (unsigned Kk = 0; Kk < S.K; ++Kk)
      for (unsigned J = 0; J < S.N; ++J) {
        double Expect = 0.0;
        for (unsigned I = 0; I < S.M; ++I)
          Expect += X[I * S.K + Kk];
        EXPECT_NEAR(G.DW[Kk * S.N + J], Expect, 1e-10);
      }
    for (unsigned J = 0; J < S.N; ++J)
      EXPECT_DOUBLE_EQ(G.DB[J], static_cast<double>(S.M));
  }
}

TEST(GemmTest, LinearBackwardHandlesZeroEntries) {
  // The TN kernel skips zero rows of X; zeros in X must not disturb any
  // gradient entry.
  LinearGradients G =
      linearGradients(2, 2, 2, {0.0, 1.0, 2.0, 0.0}, {3.0, 4.0, 5.0, 6.0},
                      {0.0, 0.0}, {1.0, 1.0, 1.0, 1.0});
  // dX[i][k] = sum_j W[k][j].
  EXPECT_DOUBLE_EQ(G.DX[0], 7.0);
  EXPECT_DOUBLE_EQ(G.DX[1], 11.0);
  EXPECT_DOUBLE_EQ(G.DX[2], 7.0);
  EXPECT_DOUBLE_EQ(G.DX[3], 11.0);
  // dW[k][j] = sum_i X[i][k].
  EXPECT_DOUBLE_EQ(G.DW[0], 2.0);
  EXPECT_DOUBLE_EQ(G.DW[1], 2.0);
  EXPECT_DOUBLE_EQ(G.DW[2], 1.0);
  EXPECT_DOUBLE_EQ(G.DW[3], 1.0);
}

TEST(GemmTest, LinearForwardBackwardMatchesNaive) {
  // Y = X . W + b and the gradients of sum(Y * Y) against plain loops.
  Rng R(46);
  unsigned M = 5, K = 37, N = 11;
  std::vector<double> X = randomData(R, M * K);
  std::vector<double> W = randomData(R, K * N);
  std::vector<double> B = randomData(R, N);
  Mat<double> Xm(M, K);
  std::copy(X.begin(), X.end(), Xm.Data.begin());
  Mat<double> Y =
      linearForward(Xm, LinearWeights<double>{W.data(), B.data(), K, N});

  std::vector<double> Ref(M * N), DY(M * N);
  for (unsigned I = 0; I < M; ++I)
    for (unsigned J = 0; J < N; ++J) {
      double V = B[J];
      for (unsigned Kk = 0; Kk < K; ++Kk)
        V += X[I * K + Kk] * W[Kk * N + J];
      Ref[I * N + J] = V;
      DY[I * N + J] = 2.0 * Y.at(I, J);
    }
  for (unsigned I = 0; I < M * N; ++I)
    EXPECT_NEAR(Y.Data[I], Ref[I], 1e-12);

  LinearGradients G = linearGradients(M, K, N, X, W, B, DY);
  for (unsigned I = 0; I < M; ++I)
    for (unsigned Kk = 0; Kk < K; ++Kk) {
      double Expect = 0.0;
      for (unsigned J = 0; J < N; ++J)
        Expect += DY[I * N + J] * W[Kk * N + J];
      EXPECT_NEAR(G.DX[I * K + Kk], Expect, 1e-10);
    }
  for (unsigned Kk = 0; Kk < K; ++Kk)
    for (unsigned J = 0; J < N; ++J) {
      double Expect = 0.0;
      for (unsigned I = 0; I < M; ++I)
        Expect += X[I * K + Kk] * DY[I * N + J];
      EXPECT_NEAR(G.DW[Kk * N + J], Expect, 1e-10);
    }
  for (unsigned J = 0; J < N; ++J) {
    double Expect = 0.0;
    for (unsigned I = 0; I < M; ++I)
      Expect += DY[I * N + J];
    EXPECT_NEAR(G.DB[J], Expect, 1e-10);
  }
}

//===----------------------------------------------------------------------===//
// Float NN accuracy.
//===----------------------------------------------------------------------===//

namespace {

// Edge shapes per dimension: ones, primes, and non-multiples of the
// MR = 4 register tile and the SIMD vector length (8 floats / 4
// doubles per 32-byte vector).
const Shape EdgeShapes[] = {{1, 1, 1},     {1, 31, 1},   {1, 1, 257},
                            {4, 8, 16},    {5, 9, 7},    {13, 31, 17},
                            {2, 3, 514},   {3, 257, 13}, {67, 259, 33},
                            {130, 100, 300}};

/// Float results accumulate up to K products of values in [-1, 1]; the
/// bound is the usual K * eps * |.| forward-error envelope with slack.
double floatTol(unsigned K, double Ref) {
  return 1e-4 * (1.0 + static_cast<double>(K) * 1e-2) *
         (1.0 + std::fabs(Ref));
}

} // namespace

TEST(GemmTest, FloatNNMatchesNaiveWithinRelError) {
  Rng R(52);
  for (const Shape &S : EdgeShapes) {
    std::vector<float> A = randomData<float>(R, S.M * S.K);
    std::vector<float> B = randomData<float>(R, S.K * S.N);
    std::vector<float> Out(S.M * S.N, 0.0f);
    std::vector<double> Ref(S.M * S.N, 0.0);
    for (unsigned I = 0; I < S.M; ++I)
      for (unsigned Kk = 0; Kk < S.K; ++Kk)
        for (unsigned J = 0; J < S.N; ++J)
          Ref[I * S.N + J] +=
              static_cast<double>(A[I * S.K + Kk]) * B[Kk * S.N + J];
    gemmAccNN(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N, Out.data(), S.N);
    for (unsigned I = 0; I < S.M * S.N; ++I)
      EXPECT_NEAR(static_cast<double>(Out[I]), Ref[I], floatTol(S.K, Ref[I]))
          << "M=" << S.M << " K=" << S.K << " N=" << S.N << " idx=" << I;
  }
}

TEST(GemmTest, DoubleEdgeShapesMatchNaive) {
  Rng R(55);
  for (const Shape &S : EdgeShapes) {
    std::vector<double> A = randomData(R, S.M * S.K);
    std::vector<double> B = randomData(R, S.K * S.N);
    std::vector<double> Ref(S.M * S.N, 0.0), Out(S.M * S.N, 0.0);
    naiveNN(S.M, S.N, S.K, A, B, Ref);
    gemmAccNN(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N, Out.data(), S.N);
    for (unsigned I = 0; I < S.M * S.N; ++I)
      EXPECT_NEAR(Out[I], Ref[I], 1e-12 * (1.0 + std::fabs(Ref[I])))
          << "M=" << S.M << " K=" << S.K << " N=" << S.N << " idx=" << I;
  }
}

//===----------------------------------------------------------------------===//
// 0-ULP checks against references built from the scalar micro-kernels.
//===----------------------------------------------------------------------===//

namespace {

/// Packing-specific edge shapes on top of EdgeShapes: M=1 skinny calls
/// with wide/deep panels (the pack arena still has to handle a single
/// register-tile row), exact block multiples, and one-past-block sizes.
const Shape PackShapes[] = {{1, 259, 516}, {1, 512, 64},  {4, 256, 512},
                            {5, 257, 513}, {64, 256, 512}, {12, 1024, 48}};

std::vector<Shape> edgeAndPackShapes() {
  std::vector<Shape> All(std::begin(EdgeShapes), std::end(EdgeShapes));
  All.insert(All.end(), std::begin(PackShapes), std::end(PackShapes));
  return All;
}

/// C += A.B as detail::microNNScalar over MR-row tiles and the whole K
/// and N: each element's ascending-k chain, which every NN driver must
/// reproduce whatever its blocking or packing.
template <typename T>
void referenceNN(const Shape &S, const T *A, const T *B, T *C) {
  for (unsigned I = 0; I < S.M; I += detail::MR)
    detail::microNNScalar<T>(std::min(detail::MR, S.M - I), 0, S.N, 0, S.K,
                             A, S.K, B, S.N, C, S.N, I);
}

/// C += A.B^T (B stored NxK) as one detail::microNTDot chain per element
/// and KC block, added to C block by block: the sequence the packed NT
/// kernel's SIMD lanes must compute.
void referenceNT(const Shape &S, const double *A, const double *B,
                 double *C) {
  for (unsigned Kk = 0; Kk < S.K; Kk += detail::KC) {
    const unsigned KB = std::min(detail::KC, S.K - Kk);
    for (unsigned I = 0; I < S.M; ++I)
      for (unsigned J = 0; J < S.N; ++J)
        C[I * S.N + J] +=
            detail::microNTDot(A + I * S.K + Kk, B + J * S.K + Kk, 1u, KB);
  }
}

/// NN on every edge and pack shape at 0 ULP: the public entry (whichever
/// driver its shape test picks) and the streaming driver against the
/// reference, and the packed driver against the streaming one.
/// Pre-filled C checks the accumulate contract, not just the product.
template <typename T> void expectNNBitwiseEqualsReference(unsigned Seed) {
  Rng R(Seed);
  std::vector<T> Scratch(detail::PackScratchElems);
  for (const Shape &S : edgeAndPackShapes()) {
    std::vector<T> A = randomData<T>(R, S.M * S.K);
    std::vector<T> B = randomData<T>(R, S.K * S.N);
    const std::vector<T> Init(S.M * S.N, static_cast<T>(0.125));
    std::vector<T> Ref = Init, Public = Init, Streamed = Init, Packed = Init;
    referenceNN(S, A.data(), B.data(), Ref.data());
    gemmAccNN(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N, Public.data(), S.N);
    detail::gemmNNSerial<T>(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N,
                            Streamed.data(), S.N);
    detail::gemmNNPackedSerial<T>(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N,
                                  Packed.data(), S.N,
                                  Scratch.data() + detail::PackScratchAOffset,
                                  Scratch.data());
    const size_t Bytes = Init.size() * sizeof(T);
    EXPECT_EQ(0, std::memcmp(Ref.data(), Public.data(), Bytes))
        << "public M=" << S.M << " K=" << S.K << " N=" << S.N;
    EXPECT_EQ(0, std::memcmp(Ref.data(), Streamed.data(), Bytes))
        << "streaming M=" << S.M << " K=" << S.K << " N=" << S.N;
    EXPECT_EQ(0, std::memcmp(Streamed.data(), Packed.data(), Bytes))
        << "packed M=" << S.M << " K=" << S.K << " N=" << S.N;
  }
}

} // namespace

TEST(GemmTest, NNBitwiseEqualsScalarReferenceDouble) {
  expectNNBitwiseEqualsReference<double>(56);
}

TEST(GemmTest, NNBitwiseEqualsScalarReferenceFloat) {
  expectNNBitwiseEqualsReference<float>(57);
}

TEST(GemmTest, NTBitwiseEqualsDotReference) {
  Rng R(62);
  for (const Shape &S : edgeAndPackShapes()) {
    std::vector<double> A = randomData(R, S.M * S.K);
    std::vector<double> B = randomData(R, S.N * S.K);
    std::vector<double> Ref(S.M * S.N, 0.125), Out = Ref;
    referenceNT(S, A.data(), B.data(), Ref.data());
    gemmAccNT(S.M, S.N, S.K, A.data(), S.K, B.data(), S.K, Out.data(), S.N);
    EXPECT_EQ(0,
              std::memcmp(Ref.data(), Out.data(), Ref.size() * sizeof(double)))
        << "M=" << S.M << " K=" << S.K << " N=" << S.N;
  }
}

TEST(GemmTest, TNZeroSkipKeepsNegativeZero) {
  // The TN kernel skips all-zero A groups and zero A values. The skip is
  // exact, and it keeps a -0.0 in C that an unskipped 0-add would flip
  // to +0.0.
  const unsigned M = 6, N = 8, K = 9; // remainder k's after the MR groups
  std::vector<double> A(K * M, 0.0), B(K * N);
  A[2 * M + 1] = 0.75; // one nonzero feature in an otherwise zero column
  Rng R(66);
  for (double &X : B)
    X = R.nextDouble(-1.0, 1.0);
  std::vector<double> C(M * N, -0.0);
  gemmAccTN(M, N, K, A.data(), M, B.data(), N, C.data(), N);
  for (unsigned I = 0; I < M; ++I)
    for (unsigned J = 0; J < N; ++J) {
      if (I == 1) {
        EXPECT_DOUBLE_EQ(C[I * N + J], 0.75 * B[2 * N + J]);
        continue;
      }
      // Untouched rows keep their -0.0 bit pattern.
      EXPECT_EQ(C[I * N + J], 0.0) << "I=" << I << " J=" << J;
      EXPECT_TRUE(std::signbit(C[I * N + J])) << "I=" << I << " J=" << J;
    }
}

namespace {

enum class Layout { NN, NT, TN };

const char *const LayoutNames[] = {"NN", "NT", "TN"};

/// Runs L's public entry point on dense row-major operands: A is MxK
/// (TN: stored KxM), B is KxN (NT: stored NxK), C is MxN.
void gemmAcc(Layout L, unsigned M, unsigned N, unsigned K, const double *A,
             const double *B, double *C) {
  switch (L) {
  case Layout::NN:
    gemmAccNN(M, N, K, A, K, B, N, C, N);
    return;
  case Layout::NT:
    gemmAccNT(M, N, K, A, K, B, K, C, N);
    return;
  case Layout::TN:
    gemmAccTN(M, N, K, A, M, B, N, C, N);
    return;
  }
}

} // namespace

TEST(GemmTest, ParallelBitwiseIdenticalAcrossPoolSizes) {
  // Row partitioning over the installed pool is a fixed block -> thread
  // assignment, so results must be bitwise identical for every pool
  // size (the determinism contract). Besides one large shape per
  // layout, the cases are the products PPO training runs at the laptop
  // nets' width, and a paper-size NN that takes the packed path. Every
  // case exceeds MinParallelWork, so pools of 2 and 4 split its rows.
  struct Case {
    Layout L;
    unsigned M, N, K;
  };
  const Case Cases[] = {{Layout::NN, 96, 160, 300}, {Layout::NT, 96, 160, 300},
                        {Layout::TN, 96, 160, 300}, {Layout::NN, 32, 48, 48},
                        {Layout::NT, 32, 48, 48},   {Layout::NT, 32, 48, 72},
                        {Layout::TN, 48, 48, 32},   {Layout::NN, 32, 512, 512}};
  Rng R(67);
  for (const Case &C : Cases) {
    std::vector<double> A = randomData(R, C.M * C.K);
    std::vector<double> B = randomData(R, C.K * C.N);
    std::vector<double> Serial(C.M * C.N, 0.25);
    gemmAcc(C.L, C.M, C.N, C.K, A.data(), B.data(), Serial.data());
    for (unsigned Threads : {2u, 4u}) {
      ThreadPool Pool(Threads);
      setGemmPool(&Pool);
      std::vector<double> Par(C.M * C.N, 0.25);
      gemmAcc(C.L, C.M, C.N, C.K, A.data(), B.data(), Par.data());
      setGemmPool(nullptr);
      EXPECT_EQ(0, std::memcmp(Serial.data(), Par.data(),
                               Par.size() * sizeof(double)))
          << LayoutNames[static_cast<int>(C.L)] << " M=" << C.M
          << " N=" << C.N << " K=" << C.K << " pool size " << Threads;
    }
  }
}

TEST(GemmTest, PackArenaIsReusedAndAccounted) {
  // NT always packs, and NN packs at this shape (a 1 MB B panel).
  const unsigned M = 64, N = 512, K = 256;
  std::vector<double> A(M * K, 0.5), B(K * N, 0.25), C(M * N, 0.0);
  auto Before = CacheStatsRegistry::instance().categoryStats("gemm.pack_arena");
  gemmAccNN(M, N, K, A.data(), K, B.data(), N, C.data(), N);
  const size_t Cap = gemmPackScratchCapacity();
  EXPECT_GT(Cap, 0u);
  gemmAccNN(M, N, K, A.data(), K, B.data(), N, C.data(), N);
  gemmAccNT(M, N, K, A.data(), K, B.data(), K, C.data(), N);
  auto After = CacheStatsRegistry::instance().categoryStats("gemm.pack_arena");
  // Steady state: later packed calls on this thread reuse the block
  // (hits), never grow it (no new misses beyond the first call's).
  EXPECT_GE(After.Hits, Before.Hits + 2);
  EXPECT_LE(After.Misses, Before.Misses + 1);
  EXPECT_EQ(gemmPackScratchCapacity(), Cap);
}
