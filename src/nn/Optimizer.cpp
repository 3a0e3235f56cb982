//===- Optimizer.cpp ------------------------------------------------------===//

#include "nn/Optimizer.h"

#include "nn/Gemm.h"
#include "nn/GemmKernel.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__AVX__)
#include <immintrin.h>
#endif

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// Most elements in one work chunk; a chunk holds whole rows, at least
/// one.
constexpr size_t ChunkElements = 8192;

/// Whole rows [Begin, End) (element offsets, row-aligned) of the
/// parameter Params[Param], whose node is \p Node.
struct RowChunk {
  TensorNode *Node;
  size_t Param;
  size_t Begin, End;
};

/// The fixed chunking of \p Params, a function of their shapes only.
/// Parameters without an allocated gradient get no chunk.
std::vector<RowChunk> rowChunks(const std::vector<Tensor> &Params) {
  std::vector<RowChunk> Chunks;
  for (size_t I = 0; I < Params.size(); ++I) {
    TensorNode *Node = Params[I].node().get();
    size_t N = Node->Grad.size();
    if (N == 0)
      continue;
    size_t Step = std::max<size_t>(1, ChunkElements / Node->Cols) * Node->Cols;
    for (size_t Begin = 0; Begin < N; Begin += Step)
      Chunks.push_back({Node, I, Begin, std::min(N, Begin + Step)});
  }
  return Chunks;
}

/// Runs \p Fn on every chunk, across the installed update pool when
/// there is one.
template <typename FnT>
void forEachChunk(const std::vector<RowChunk> &Chunks, const FnT &Fn) {
  if (ThreadPool *Pool = getGemmPool())
    Pool->parallelFor(Chunks.size(), [&](size_t C) { Fn(Chunks[C]); });
  else
    for (const RowChunk &C : Chunks)
      Fn(C);
}

/// OR of the 64-bit patterns of X[0, N): zero iff every entry is +0.0.
uint64_t orBits(const double *X, size_t N) {
  uint64_t Acc = 0;
  for (size_t J = 0; J < N; ++J)
    Acc |= std::bit_cast<uint64_t>(X[J]);
  return Acc;
}

bool isPositiveZero(double X) { return std::bit_cast<uint64_t>(X) == 0; }

/// Whether every entry of X[0, N) is +0.0 or -0.0.
bool allSignedZero(const double *X, size_t N) { return orBits(X, N) << 1 == 0; }

/// SumSq plus the squares of X[0, N), added in order: the norm's one
/// summation loop. It is kept out of line so every call runs the same
/// code, whose SIMD body adds rounded squares and whose sub-4 tail adds
/// fused multiply-adds (see Optimizer.h).
[[gnu::noinline]] double addSquares(double SumSq, const double *X, size_t N) {
  for (size_t J = 0; J < N; ++J)
    SumSq += X[J] * X[J];
  return SumSq;
}

/// The squared norm's share of one tensor. A tensor whose row length is
/// a multiple of 8 is summed row by row, skipping rows that are all
/// ±0.0; any other tensor is summed whole.
double addTensorSquares(double SumSq, const Tensor &P) {
  const double *G = P.grad().data();
  const size_t N = P.grad().size(), Cols = P.cols();
  if (Cols % 8 != 0)
    return addSquares(SumSq, G, N);
  for (size_t R = 0; R < N; R += Cols)
    if (!allSignedZero(G + R, Cols))
      SumSq = addSquares(SumSq, G + R, Cols);
  return SumSq;
}

/// One Adam step's coefficients.
struct AdamStep {
  double LearningRate, Beta1, Beta2, Epsilon, Bias1, Bias2;
};

/// One element's update: the reference expression, which the SIMD body
/// of adamRange repeats lane for lane.
inline void adamElement(double &D, double &M, double &V, double G,
                        const AdamStep &S) {
  M = S.Beta1 * M + (1.0 - S.Beta1) * G;
  V = S.Beta2 * V + (1.0 - S.Beta2) * G * G;
  double MHat = M / S.Bias1;
  double VHat = V / S.Bias2;
  D -= S.LearningRate * MHat / (std::sqrt(VHat) + S.Epsilon);
}

/// Updates the N elements at D/M/V/G. Whole vectors run a SIMD body
/// built on GemmKernel.h's vector type with the target's vector square
/// root; each lane computes adamElement's expression with the same
/// operands in the same order, so the compiler rounds and contracts it
/// the same way. The tail, and every element on targets without a
/// vector square root, runs adamElement.
inline void adamRange(double *__restrict D, double *__restrict M,
                      double *__restrict V, const double *__restrict G,
                      size_t N, const AdamStep &S) {
  size_t J = 0;
#if defined(__AVX__)
  using Vec = detail::SimdTraits<double>::Vec;
  constexpr size_t L = detail::SimdTraits<double>::Lanes;
  static_assert(sizeof(Vec) == sizeof(__m256d), "one vector per sqrt");
  const Vec Beta1 = S.Beta1 - Vec{}, Beta2 = S.Beta2 - Vec{}; // broadcast
  const Vec OneMinusBeta1 = (1.0 - S.Beta1) - Vec{};
  const Vec OneMinusBeta2 = (1.0 - S.Beta2) - Vec{};
  const Vec Bias1 = S.Bias1 - Vec{}, Bias2 = S.Bias2 - Vec{};
  const Vec Lr = S.LearningRate - Vec{}, Epsilon = S.Epsilon - Vec{};
  for (; J + L <= N; J += L) {
    const Vec Gv = *reinterpret_cast<const Vec *>(G + J);
    Vec &Mv = *reinterpret_cast<Vec *>(M + J);
    Vec &Vv = *reinterpret_cast<Vec *>(V + J);
    Mv = Beta1 * Mv + OneMinusBeta1 * Gv;
    Vv = Beta2 * Vv + OneMinusBeta2 * Gv * Gv;
    Vec MHat = Mv / Bias1;
    Vec VHat = Vv / Bias2;
    *reinterpret_cast<Vec *>(D + J) -=
        Lr * MHat / (Vec(_mm256_sqrt_pd(VHat)) + Epsilon);
  }
#endif
  for (; J < N; ++J)
    adamElement(D[J], M[J], V[J], G[J], S);
}

} // namespace

void nn::zeroGradients(const std::vector<Tensor> &Params) {
  forEachChunk(rowChunks(Params), [](const RowChunk &C) {
    double *G = C.Node->Grad.data();
    const size_t Cols = C.Node->Cols;
    for (size_t R = C.Begin; R < C.End; R += Cols)
      if (orBits(G + R, Cols) != 0)
        std::fill(G + R, G + R + Cols, 0.0);
  });
}

double nn::clipGradNorm(const std::vector<Tensor> &Params, double MaxNorm) {
  double SumSq = 0.0;
  for (const Tensor &P : Params)
    SumSq = addTensorSquares(SumSq, P);
  double Norm = std::sqrt(SumSq);
  if (Norm > MaxNorm && Norm > 0.0) {
    double Scale = MaxNorm / Norm;
    // Skipping all-zero rows is exact iff scaling maps +0.0 and -0.0 to
    // themselves; a negative bound flips their signs.
    const bool SkipZeroRows =
        isPositiveZero(0.0 * Scale) &&
        std::bit_cast<uint64_t>(-0.0 * Scale) == std::bit_cast<uint64_t>(-0.0);
    forEachChunk(rowChunks(Params), [&](const RowChunk &C) {
      double *G = C.Node->Grad.data();
      const size_t Cols = C.Node->Cols;
      for (size_t R = C.Begin; R < C.End; R += Cols) {
        if (SkipZeroRows && allSignedZero(G + R, Cols))
          continue;
        for (size_t J = R; J < R + Cols; ++J)
          G[J] *= Scale;
      }
    });
  }
  return Norm;
}

Adam::Adam(std::vector<Tensor> Params, double LearningRate, double Beta1,
           double Beta2, double Epsilon)
    : Params(std::move(Params)), LearningRate(LearningRate), Beta1(Beta1),
      Beta2(Beta2), Epsilon(Epsilon) {
  for (const Tensor &P : this->Params) {
    FirstMoment.emplace_back(P.size(), 0.0);
    SecondMoment.emplace_back(P.size(), 0.0);
  }
}

void Adam::step() {
  ++StepCount;
  const AdamStep S{LearningRate,
                   Beta1,
                   Beta2,
                   Epsilon,
                   1.0 - std::pow(Beta1, StepCount),
                   1.0 - std::pow(Beta2, StepCount)};
  // Skipping all-zero rows is exact iff the step maps a zeroed element
  // to itself; a -0.0 parameter shows any nonzero or -0.0 delta.
  double ZeroD = -0.0, ZeroM = 0.0, ZeroV = 0.0;
  adamElement(ZeroD, ZeroM, ZeroV, 0.0, S);
  const bool SkipZeroRows = std::signbit(ZeroD) && ZeroD == 0.0 &&
                            isPositiveZero(ZeroM) && isPositiveZero(ZeroV);
  forEachChunk(rowChunks(Params), [&](const RowChunk &C) {
    double *D = C.Node->Data.data();
    const double *G = C.Node->Grad.data();
    double *M = FirstMoment[C.Param].data();
    double *V = SecondMoment[C.Param].data();
    const size_t Cols = C.Node->Cols;
    for (size_t R = C.Begin; R < C.End; R += Cols) {
      if (SkipZeroRows && orBits(G + R, Cols) == 0 &&
          orBits(M + R, Cols) == 0 && orBits(V + R, Cols) == 0)
        continue;
      adamRange(D + R, M + R, V + R, G + R, Cols, S);
    }
  });
}

void Adam::zeroGrad() { zeroGradients(Params); }

Sgd::Sgd(std::vector<Tensor> Params, double LearningRate)
    : Params(std::move(Params)), LearningRate(LearningRate) {}

void Sgd::step() {
  for (const Tensor &P : Params) {
    TensorNode &Node = *P.node();
    for (size_t J = 0; J < Node.Data.size(); ++J)
      Node.Data[J] -= LearningRate * Node.Grad[J];
  }
}

void Sgd::zeroGrad() { zeroGradients(Params); }
