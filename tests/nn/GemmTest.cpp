//===- GemmTest.cpp - Blocked matmul vs. naive reference --------------------===//
//
// The blocked kernels must be bit-compatible in shape handling with a
// naive triple loop on every shape, in particular shapes that are not
// multiples of the blocking parameters (MC/KC/NC/MR tails).
//
//===----------------------------------------------------------------------===//

#include "nn/Gemm.h"
#include "nn/Ops.h"
#include "nn/Tensor.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

std::vector<double> randomData(Rng &R, unsigned N) {
  std::vector<double> V(N);
  for (double &X : V)
    X = R.nextDouble(-1.0, 1.0);
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

TEST(GemmTest, MatmulOpBackwardMatchesManualGradients) {
  // d/dA sum(A.B) = ones . B^T, d/dB = A^T . ones; random odd shapes so
  // the kernel tails are exercised through the autograd path too.
  Rng R(45);
  for (const Shape &S : {Shape{3, 5, 7}, Shape{1, 130, 9}, Shape{66, 3, 5}}) {
    Tensor A = Tensor::parameter(S.M, S.K, randomData(R, S.M * S.K));
    Tensor B = Tensor::parameter(S.K, S.N, randomData(R, S.K * S.N));
    Tensor Loss = sumAll(matmul(A, B));
    Loss.backward();

    for (unsigned I = 0; I < S.M; ++I)
      for (unsigned Kk = 0; Kk < S.K; ++Kk) {
        double Expect = 0.0;
        for (unsigned J = 0; J < S.N; ++J)
          Expect += B.at(Kk, J);
        EXPECT_NEAR(A.grad()[I * S.K + Kk], Expect, 1e-10);
      }
    for (unsigned Kk = 0; Kk < S.K; ++Kk)
      for (unsigned J = 0; J < S.N; ++J) {
        double Expect = 0.0;
        for (unsigned I = 0; I < S.M; ++I)
          Expect += A.at(I, Kk);
        EXPECT_NEAR(B.grad()[Kk * S.N + J], Expect, 1e-10);
      }
  }
}

TEST(GemmTest, MatmulBackwardHandlesZeroEntries) {
  // The seed's Aik == 0 short-circuit skipped gradient rows; zeros in A
  // must not disturb any gradient entry.
  Tensor A = Tensor::parameter(2, 2, {0.0, 1.0, 2.0, 0.0});
  Tensor B = Tensor::parameter(2, 2, {3.0, 4.0, 5.0, 6.0});
  Tensor Loss = sumAll(matmul(A, B));
  Loss.backward();
  // dA[i][k] = sum_j B[k][j].
  EXPECT_DOUBLE_EQ(A.grad()[0], 7.0);
  EXPECT_DOUBLE_EQ(A.grad()[1], 11.0);
  EXPECT_DOUBLE_EQ(A.grad()[2], 7.0);
  EXPECT_DOUBLE_EQ(A.grad()[3], 11.0);
  // dB[k][j] = sum_i A[i][k].
  EXPECT_DOUBLE_EQ(B.grad()[0], 2.0);
  EXPECT_DOUBLE_EQ(B.grad()[1], 2.0);
  EXPECT_DOUBLE_EQ(B.grad()[2], 1.0);
  EXPECT_DOUBLE_EQ(B.grad()[3], 1.0);
}

TEST(GemmTest, FusedLinearMatchesMatmulAddBias) {
  Rng R(46);
  unsigned M = 5, K = 37, N = 11;
  std::vector<double> Xd = randomData(R, M * K);
  std::vector<double> Wd = randomData(R, K * N);
  std::vector<double> Bd = randomData(R, N);

  Tensor X1 = Tensor::parameter(M, K, Xd);
  Tensor W1 = Tensor::parameter(K, N, Wd);
  Tensor B1 = Tensor::parameter(1, N, Bd);
  Tensor Fused = linear(X1, W1, B1);
  Tensor LossFused = sumAll(hadamard(Fused, Fused));
  LossFused.backward();

  Tensor X2 = Tensor::parameter(M, K, Xd);
  Tensor W2 = Tensor::parameter(K, N, Wd);
  Tensor B2 = Tensor::parameter(1, N, Bd);
  Tensor Ref = addBias(matmul(X2, W2), B2);
  Tensor LossRef = sumAll(hadamard(Ref, Ref));
  LossRef.backward();

  for (unsigned I = 0; I < M * N; ++I)
    EXPECT_NEAR(Fused.data()[I], Ref.data()[I], 1e-12);
  for (unsigned I = 0; I < M * K; ++I)
    EXPECT_NEAR(X1.grad()[I], X2.grad()[I], 1e-10);
  for (unsigned I = 0; I < K * N; ++I)
    EXPECT_NEAR(W1.grad()[I], W2.grad()[I], 1e-10);
  for (unsigned I = 0; I < N; ++I)
    EXPECT_NEAR(B1.grad()[I], B2.grad()[I], 1e-10);
}

//===----------------------------------------------------------------------===//
// Dtype-parameterized kernels: float accuracy and scalar/SIMD parity.
//===----------------------------------------------------------------------===//

namespace {

std::vector<float> randomDataF(Rng &R, unsigned N) {
  std::vector<float> V(N);
  for (float &X : V)
    X = static_cast<float>(R.nextDouble(-1.0, 1.0));
  return V;
}

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

/// Restores the dispatch mode on scope exit so a failing expectation
/// cannot leak a forced kernel into the other tests.
struct KernelScope {
  GemmKernel Saved = getGemmKernel();
  ~KernelScope() { setGemmKernel(Saved); }
};

} // namespace

TEST(GemmTest, FloatNNMatchesNaiveWithinRelError) {
  Rng R(52);
  for (const Shape &S : EdgeShapes) {
    std::vector<float> A = randomDataF(R, S.M * S.K);
    std::vector<float> B = randomDataF(R, S.K * S.N);
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

TEST(GemmTest, FloatNTMatchesNaiveWithinRelError) {
  Rng R(53);
  for (const Shape &S : EdgeShapes) {
    std::vector<float> A = randomDataF(R, S.M * S.K);
    std::vector<float> B = randomDataF(R, S.N * S.K);
    std::vector<float> Out(S.M * S.N, 0.0f);
    std::vector<double> Ref(S.M * S.N, 0.0);
    for (unsigned I = 0; I < S.M; ++I)
      for (unsigned J = 0; J < S.N; ++J)
        for (unsigned Kk = 0; Kk < S.K; ++Kk)
          Ref[I * S.N + J] +=
              static_cast<double>(A[I * S.K + Kk]) * B[J * S.K + Kk];
    gemmAccNT(S.M, S.N, S.K, A.data(), S.K, B.data(), S.K, Out.data(), S.N);
    for (unsigned I = 0; I < S.M * S.N; ++I)
      EXPECT_NEAR(static_cast<double>(Out[I]), Ref[I], floatTol(S.K, Ref[I]))
          << "M=" << S.M << " K=" << S.K << " N=" << S.N << " idx=" << I;
  }
}

TEST(GemmTest, FloatTNMatchesNaiveWithinRelError) {
  Rng R(54);
  for (const Shape &S : EdgeShapes) {
    std::vector<float> A = randomDataF(R, S.K * S.M);
    std::vector<float> B = randomDataF(R, S.K * S.N);
    std::vector<float> Out(S.M * S.N, 0.0f);
    std::vector<double> Ref(S.M * S.N, 0.0);
    for (unsigned Kk = 0; Kk < S.K; ++Kk)
      for (unsigned I = 0; I < S.M; ++I)
        for (unsigned J = 0; J < S.N; ++J)
          Ref[I * S.N + J] +=
              static_cast<double>(A[Kk * S.M + I]) * B[Kk * S.N + J];
    gemmAccTN(S.M, S.N, S.K, A.data(), S.M, B.data(), S.N, Out.data(), S.N);
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

namespace {

/// The dispatched (SIMD) kernels against the scalar fallback at 0 ULP,
/// for all three layouts: NN, then NT (B stored NxK) and TN (A stored
/// KxM) on the same buffers.
template <typename T> void expectDispatchedBitwiseEqual(unsigned Seed) {
  KernelScope Restore;
  Rng R(Seed);
  for (const Shape &S : EdgeShapes) {
    std::vector<T> A(S.M * S.K), B(S.K * S.N);
    for (T &X : A)
      X = static_cast<T>(R.nextDouble(-1.0, 1.0));
    for (T &X : B)
      X = static_cast<T>(R.nextDouble(-1.0, 1.0));
    auto RunAll = [&](GemmKernel Kind, std::vector<T> &Nn, std::vector<T> &Nt,
                      std::vector<T> &Tn) {
      setGemmKernel(Kind);
      gemmAccNN(S.M, S.N, S.K, A.data(), S.K, B.data(), S.N, Nn.data(), S.N);
      gemmAccNT(S.M, S.N, S.K, A.data(), S.K, B.data(), S.K, Nt.data(), S.N);
      gemmAccTN(S.M, S.N, S.K, A.data(), S.M, B.data(), S.N, Tn.data(), S.N);
    };
    // Pre-filled C checks that both kernels share the accumulate
    // contract, not just the product.
    const std::vector<T> Init(S.M * S.N, static_cast<T>(0.125));
    std::vector<T> NnS = Init, NtS = Init, TnS = Init;
    std::vector<T> NnV = Init, NtV = Init, TnV = Init;
    RunAll(GemmKernel::Scalar, NnS, NtS, TnS);
    RunAll(GemmKernel::Simd, NnV, NtV, TnV);
    const size_t Bytes = Init.size() * sizeof(T);
    EXPECT_EQ(0, std::memcmp(NnS.data(), NnV.data(), Bytes))
        << "NN M=" << S.M << " K=" << S.K << " N=" << S.N;
    EXPECT_EQ(0, std::memcmp(NtS.data(), NtV.data(), Bytes))
        << "NT M=" << S.M << " K=" << S.K << " N=" << S.N;
    EXPECT_EQ(0, std::memcmp(TnS.data(), TnV.data(), Bytes))
        << "TN M=" << S.M << " K=" << S.K << " N=" << S.N;
  }
}

} // namespace

TEST(GemmTest, DispatchedNNBitwiseEqualsScalarDouble) {
  if (!gemmSimdAvailable())
    GTEST_SKIP() << "no SIMD kernel in this build";
  expectDispatchedBitwiseEqual<double>(56);
}

TEST(GemmTest, DispatchedNNBitwiseEqualsScalarFloat) {
  if (!gemmSimdAvailable())
    GTEST_SKIP() << "no SIMD kernel in this build";
  expectDispatchedBitwiseEqual<float>(57);
}

//===----------------------------------------------------------------------===//
// Packed macro-kernel path: 0-ULP against the streaming kernels.
//===----------------------------------------------------------------------===//

namespace {

/// Restores the packing mode on scope exit (same rationale as
/// KernelScope).
struct PackingScope {
  GemmPacking Saved = getGemmPacking();
  ~PackingScope() { setGemmPacking(Saved); }
};

/// Packing-specific edge shapes on top of EdgeShapes: M=1 skinny calls
/// with wide/deep panels (the pack arena still has to handle a single
/// register-tile row), exact block multiples, and one-past-block sizes.
const Shape PackShapes[] = {{1, 259, 516}, {1, 512, 64},  {4, 256, 512},
                            {5, 257, 513}, {64, 256, 512}, {12, 1024, 48}};

/// Runs kernel Op (NN/NT/TN dispatcher below) with packing forced Off
/// then On and memcmps the two C buffers; repeated under Scalar and
/// (when available) Simd kernel dispatch. 0 ULP is the contract --
/// packing is pure layout -- and this is the empirical guard that no
/// packed loop got a different fp-contraction mix than its streaming
/// twin.
template <typename T, typename Kernel>
void expectPackedBitwiseEqual(const char *Name, unsigned Seed, Kernel Op,
                              bool SwapsAK) {
  KernelScope RestoreKernel;
  PackingScope RestorePacking;
  Rng R(Seed);
  std::vector<Shape> All(std::begin(EdgeShapes), std::end(EdgeShapes));
  All.insert(All.end(), std::begin(PackShapes), std::end(PackShapes));
  for (const Shape &S : All) {
    const unsigned ARows = SwapsAK ? S.K : S.M, ACols = SwapsAK ? S.M : S.K;
    std::vector<T> A(ARows * ACols), B(S.K * S.N);
    for (T &X : A)
      X = static_cast<T>(R.nextDouble(-1.0, 1.0));
    for (T &X : B)
      X = static_cast<T>(R.nextDouble(-1.0, 1.0));
    for (GemmKernel Kind : {GemmKernel::Scalar, GemmKernel::Simd}) {
      if (Kind == GemmKernel::Simd && !gemmSimdAvailable())
        continue;
      setGemmKernel(Kind);
      std::vector<T> Cu(S.M * S.N, static_cast<T>(0.125)),
          Cp(S.M * S.N, static_cast<T>(0.125));
      setGemmPacking(GemmPacking::Off);
      Op(S, A.data(), B.data(), Cu.data());
      setGemmPacking(GemmPacking::On);
      Op(S, A.data(), B.data(), Cp.data());
      EXPECT_EQ(0, std::memcmp(Cu.data(), Cp.data(), Cu.size() * sizeof(T)))
          << Name << " M=" << S.M << " K=" << S.K << " N=" << S.N
          << " kernel=" << (Kind == GemmKernel::Simd ? "simd" : "scalar");
    }
  }
}

template <typename T> struct GemmOps {
  static void nn(const Shape &S, const T *A, const T *B, T *C) {
    gemmAccNN(S.M, S.N, S.K, A, S.K, B, S.N, C, S.N);
  }
  // NT stores B as NxK.
  static void nt(const Shape &S, const T *A, const T *B, T *C) {
    gemmAccNT(S.M, S.N, S.K, A, S.K, B, S.K, C, S.N);
  }
  // TN stores A as KxM.
  static void tn(const Shape &S, const T *A, const T *B, T *C) {
    gemmAccTN(S.M, S.N, S.K, A, S.M, B, S.N, C, S.N);
  }
};

} // namespace

TEST(GemmTest, PackedNNBitwiseEqualsUnpackedDouble) {
  expectPackedBitwiseEqual<double>("NN", 60, GemmOps<double>::nn, false);
}

TEST(GemmTest, PackedNNBitwiseEqualsUnpackedFloat) {
  expectPackedBitwiseEqual<float>("NN", 61, GemmOps<float>::nn, false);
}

TEST(GemmTest, PackedNTBitwiseEqualsUnpackedDouble) {
  expectPackedBitwiseEqual<double>("NT", 62, GemmOps<double>::nt, false);
}

TEST(GemmTest, PackedNTBitwiseEqualsUnpackedFloat) {
  expectPackedBitwiseEqual<float>("NT", 63, GemmOps<float>::nt, false);
}

TEST(GemmTest, PackedTNBitwiseEqualsUnpackedDouble) {
  expectPackedBitwiseEqual<double>("TN", 64, GemmOps<double>::tn, true);
}

TEST(GemmTest, PackedTNBitwiseEqualsUnpackedFloat) {
  expectPackedBitwiseEqual<float>("TN", 65, GemmOps<float>::tn, true);
}

TEST(GemmTest, PackedTNPreservesZeroSkipSemantics) {
  // The TN zero-skip must survive packing bitwise, including the case
  // where skipping keeps a -0.0 in C that an unskipped 0-add would
  // flip to +0.0.
  PackingScope Restore;
  const unsigned M = 6, N = 8, K = 9; // remainder k's after the MR groups
  std::vector<double> A(K * M, 0.0), B(K * N);
  A[2 * M + 1] = 0.75; // one nonzero feature in an otherwise zero column
  Rng R(66);
  for (double &X : B)
    X = R.nextDouble(-1.0, 1.0);
  std::vector<double> Cu(M * N, -0.0), Cp(M * N, -0.0);
  setGemmPacking(GemmPacking::Off);
  gemmAccTN(M, N, K, A.data(), M, B.data(), N, Cu.data(), N);
  setGemmPacking(GemmPacking::On);
  gemmAccTN(M, N, K, A.data(), M, B.data(), N, Cp.data(), N);
  EXPECT_EQ(0, std::memcmp(Cu.data(), Cp.data(), Cu.size() * sizeof(double)));
  // Untouched rows keep their -0.0 bit pattern in both paths.
  EXPECT_TRUE(std::signbit(Cu[0]));
  EXPECT_TRUE(std::signbit(Cp[0]));
}

TEST(GemmTest, PackedParallelBitwiseIdenticalAcrossPoolSizes) {
  // The packed macro-kernel partitions rows across the installed pool
  // with a fixed block -> thread assignment; results must be bitwise
  // identical for every pool size (the determinism contract).
  PackingScope RestorePacking;
  setGemmPacking(GemmPacking::On);
  const unsigned M = 96, N = 160, K = 300; // above MinParallelWork
  Rng R(67);
  std::vector<double> Ann(M * K), Bnn(K * N), Ant(M * K), Bnt(N * K),
      Atn(K * M), Btn(K * N);
  for (auto *V : {&Ann, &Bnn, &Ant, &Bnt, &Atn, &Btn})
    for (double &X : *V)
      X = R.nextDouble(-1.0, 1.0);
  auto runAll = [&](std::vector<double> &C) {
    gemmAccNN(M, N, K, Ann.data(), K, Bnn.data(), N, C.data(), N);
    gemmAccNT(M, N, K, Ant.data(), K, Bnt.data(), K, C.data(), N);
    gemmAccTN(M, N, K, Atn.data(), M, Btn.data(), N, C.data(), N);
  };
  std::vector<double> Serial(M * N, 0.25);
  runAll(Serial);
  for (unsigned Threads : {2u, 4u}) {
    ThreadPool Pool(Threads);
    setGemmPool(&Pool);
    std::vector<double> Par(M * N, 0.25);
    runAll(Par);
    setGemmPool(nullptr);
    EXPECT_EQ(0,
              std::memcmp(Serial.data(), Par.data(), Par.size() * sizeof(double)))
        << "pool size " << Threads;
  }
}

TEST(GemmTest, PackArenaIsReusedAndAccounted) {
  PackingScope Restore;
  setGemmPacking(GemmPacking::On);
  const unsigned M = 64, N = 96, K = 128;
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

TEST(GemmTest, SimdLanesReportedForBothDtypes) {
  if (!gemmSimdAvailable()) {
    EXPECT_EQ(gemmSimdLanes(sizeof(double)), 1u);
    EXPECT_EQ(gemmSimdLanes(sizeof(float)), 1u);
    return;
  }
  // 32-byte vectors: 4 doubles / 8 floats per lane group.
  EXPECT_EQ(gemmSimdLanes(sizeof(double)), 4u);
  EXPECT_EQ(gemmSimdLanes(sizeof(float)), 8u);
}
