//===- Inference.h - The network forward, templated on dtype -----*- C++-*-===//
///
/// \file
/// The networks' one forward pass, written once for T in {double, float}:
/// plain row-major matrices on 64-byte-aligned buffers, weights read
/// through pointers, no graph nodes. Every call owns its buffers, so
/// collector threads and server workers run it concurrently.
///
/// Rollouts, greedy serving and the baselines run it as is. The PPO
/// update runs the same double instantiation with a tape: lstmForward
/// and mlpForward then also record the activations the explicit
/// backward of nn/Backward.h reads. A dense layer's only saved
/// activation is its input, which its caller holds, so linearForward
/// records nothing. So the log-probabilities and values a rollout stores
/// are bitwise what the update recomputes before any parameter changes.
///
/// The LSTM's input rows arrive as the featurizer writes them, as
/// nonzero (column, value) entries (support/SparseRows.h): each gate
/// touches only a row's nonzeros and never scans its dense width.
///
/// The float instantiation runs the float GEMM kernels and tracks the
/// double one to float relative error (tests/rl/InferenceF32Test).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_INFERENCE_H
#define MLIRRL_NN_INFERENCE_H

#include "nn/Gemm.h"
#include "nn/Tensor.h"
#include "support/AlignedAlloc.h"
#include "support/Rng.h"
#include "support/SparseRows.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace mlirrl {
namespace nn {

/// Large negative logit standing in for -inf under masking; exp
/// underflows to zero and gradients stay finite.
inline constexpr double MaskedLogit = -1e30;

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, BufferAlignment>>;

/// The scalar activations.
template <typename T> T sigmoidValue(T X) {
  return T(1) / (T(1) + std::exp(-X));
}
template <typename T> T reluValue(T X) { return X > T(0) ? X : T(0); }

/// A dense row-major matrix. Plain storage, no graph.
template <typename T> struct Mat {
  unsigned Rows = 0;
  unsigned Cols = 0;
  AlignedVector<T> Data;

  Mat() = default;
  Mat(unsigned Rows, unsigned Cols)
      : Rows(Rows), Cols(Cols), Data(static_cast<size_t>(Rows) * Cols, T(0)) {}

  T *row(unsigned R) { return Data.data() + static_cast<size_t>(R) * Cols; }
  const T *row(unsigned R) const {
    return Data.data() + static_cast<size_t>(R) * Cols;
  }
  T at(unsigned R, unsigned C) const { return row(R)[C]; }
};

/// A dense layer's weights, read in place: W is In x Out row-major, B
/// one row of Out.
template <typename T> struct LinearWeights {
  const T *W = nullptr;
  const T *B = nullptr;
  unsigned In = 0;
  unsigned Out = 0;
};

/// Float copies of a parameter list, one aligned buffer per tensor: the
/// packed snapshot F32 inference reads its weights from.
struct PackedF32 {
  explicit PackedF32(const std::vector<Tensor> &Params) {
    for (const Tensor &P : Params)
      Buffers.emplace_back(P.data().begin(), P.data().end());
  }

  /// One pointer per buffer, the form the forward passes take weights in.
  std::vector<const float *> values() const {
    std::vector<const float *> Values;
    for (const AlignedVector<float> &B : Buffers)
      Values.push_back(B.data());
    return Values;
  }

  std::vector<AlignedVector<float>> Buffers;
};

/// Each parameter tensor's values, read in place.
inline std::vector<const double *> valuesOf(const std::vector<Tensor> &Params) {
  std::vector<const double *> Values;
  Values.reserve(Params.size());
  for (const Tensor &P : Params)
    Values.push_back(P.data().data());
  return Values;
}

/// C(MxN) += A(MxK) . B(KxN). Sparse activation rows (features that are
/// mostly zeros under masking and padding, ReLU outputs, the all-zero
/// first LSTM hidden state), single or batched, take a zero-skipping
/// axpy path; skipping exact zeros contributes nothing and keeps every
/// output element's accumulation over k in ascending order, so the
/// batched sparse path, the single-row path and the blocked dense kernel
/// all agree bitwise.
template <typename T>
void forwardProduct(unsigned M, unsigned N, unsigned K, const T *A, const T *B,
                    T *C) {
  auto ZeroSkippingRow = [&](unsigned I) {
    const T *__restrict Ai = A + static_cast<size_t>(I) * K;
    T *__restrict Ci = C + static_cast<size_t>(I) * N;
    for (unsigned Kk = 0; Kk < K; ++Kk) {
      const T Av = Ai[Kk];
      if (Av == T(0))
        continue;
      const T *__restrict Bk = B + static_cast<size_t>(Kk) * N;
      for (unsigned J = 0; J < N; ++J)
        Ci[J] += Av * Bk[J];
    }
  };
  if (M == 1) {
    ZeroSkippingRow(0);
    return;
  }
  // Batched: pick the path per the measured density. The scan is ~N
  // times cheaper than the multiply it gates.
  size_t Nnz = 0;
  size_t Total = static_cast<size_t>(M) * K;
  for (size_t I = 0; I < Total; ++I)
    Nnz += A[I] != T(0);
  if (Nnz * 2 < Total) {
    for (unsigned I = 0; I < M; ++I)
      ZeroSkippingRow(I);
    return;
  }
  gemmAccNN(M, N, K, A, K, B, N, C, N);
}

/// Y(M x Out) = X(M x In) . W + bias, written into \p Y.
template <typename T>
void linearInto(unsigned M, const T *X, const LinearWeights<T> &L, T *Y) {
  for (unsigned R = 0; R < M; ++R)
    std::copy(L.B, L.B + L.Out, Y + static_cast<size_t>(R) * L.Out);
  forwardProduct(M, L.Out, L.In, X, L.W, Y);
}

/// Y = [X, H] . W + bias with X as sparse rows and H the
/// dense X.Rows x (In - X.Cols) rest, written into \p Y: an LSTM gate
/// over [x, h] without materializing the concatenation. The nonzero X
/// columns accumulate k ascending, then the H rows of W, so the result
/// is bitwise the dense product.
template <typename T>
void linearSplitSparseInto(const SparseRows &X, const T *H,
                           const LinearWeights<T> &L, T *Y) {
  assert(X.Cols <= L.In && "split linear shape mismatch");
  for (unsigned R = 0; R < X.Rows; ++R) {
    T *Yr = Y + static_cast<size_t>(R) * L.Out;
    std::copy(L.B, L.B + L.Out, Yr);
    for (const SparseEntry &E : X.RowEntries[R]) {
      const T V = static_cast<T>(E.Value);
      const T *Wk = L.W + static_cast<size_t>(E.Col) * L.Out;
      for (unsigned J = 0; J < L.Out; ++J)
        Yr[J] += V * Wk[J];
    }
  }
  forwardProduct(X.Rows, L.Out, L.In - X.Cols, H,
                 L.W + static_cast<size_t>(X.Cols) * L.Out, Y);
}

/// Y = X . W + bias.
template <typename T>
Mat<T> linearForward(const Mat<T> &X, const LinearWeights<T> &L) {
  assert(X.Cols == L.In && "linear shape mismatch");
  Mat<T> Y(X.Rows, L.Out);
  linearInto(X.Rows, X.Data.data(), L, Y.Data.data());
  return Y;
}

/// An LSTM cell's gate layers, in LstmCell::parameters() order.
template <typename T> struct LstmWeights {
  LinearWeights<T> Input, Forget, Cell, Output;
};

/// What lstmForward records of one step for the backward: the step's
/// input rows, the state it started from, its gate activations and the
/// tanh of the cell state it produced.
template <typename T> struct LstmStep {
  const SparseRows *X = nullptr;
  Mat<T> H, C;
  Mat<T> I, F, G, O;
  Mat<T> TanhC;
};

/// Runs the LSTM over \p Sequence from a zero state and returns the
/// final hidden state. Rows never interact, so row r of a batched run is
/// bitwise-identical to a width-1 run of that sequence. \p Tape, when
/// given, receives one entry per step; the rows it points to must
/// outlive it.
template <typename T>
Mat<T> lstmForward(const std::vector<const SparseRows *> &Sequence,
                   const LstmWeights<T> &Gates,
                   std::vector<LstmStep<T>> *Tape = nullptr) {
  assert(!Sequence.empty() && "empty LSTM sequence");
  Mat<T> H(Sequence.front()->Rows, Gates.Input.Out);
  Mat<T> C(H.Rows, H.Cols);
  const size_t Size = C.Data.size();
  for (const SparseRows *X : Sequence) {
    auto Gate = [&](const LinearWeights<T> &L) {
      assert(X->Rows == H.Rows && X->Cols + H.Cols == L.In &&
             "LSTM gate shape mismatch");
      Mat<T> Y(H.Rows, L.Out);
      linearSplitSparseInto(*X, H.Data.data(), L, Y.Data.data());
      return Y;
    };
    Mat<T> I = Gate(Gates.Input), F = Gate(Gates.Forget);
    Mat<T> G = Gate(Gates.Cell), O = Gate(Gates.Output);
    for (size_t K = 0; K < Size; ++K) {
      I.Data[K] = sigmoidValue(I.Data[K]);
      F.Data[K] = sigmoidValue(F.Data[K]);
      G.Data[K] = std::tanh(G.Data[K]);
      O.Data[K] = sigmoidValue(O.Data[K]);
    }
    // F*C and I*G are rounded in a pass of their own before the sum:
    // within one loop the compiler contracts FC + IG into an FMA, and
    // the backward (nn/Backward.h) rounds them the same way.
    Mat<T> NextC(H.Rows, H.Cols), IG(H.Rows, H.Cols);
    for (size_t K = 0; K < Size; ++K) {
      NextC.Data[K] = F.Data[K] * C.Data[K];
      IG.Data[K] = I.Data[K] * G.Data[K];
    }
    Mat<T> NextH(H.Rows, H.Cols), TanhC(H.Rows, H.Cols);
    for (size_t K = 0; K < Size; ++K) {
      NextC.Data[K] = NextC.Data[K] + IG.Data[K];
      TanhC.Data[K] = std::tanh(NextC.Data[K]);
      NextH.Data[K] = O.Data[K] * TanhC.Data[K];
    }
    if (Tape)
      Tape->push_back({X, std::move(H), std::move(C), std::move(I),
                       std::move(F), std::move(G), std::move(O),
                       std::move(TanhC)});
    H = std::move(NextH);
    C = std::move(NextC);
  }
  return H;
}

/// The ReLU backbone (Fig. 4a): ReLU after every layer. \p Tape, when
/// given, receives every layer's input and then the output.
template <typename T>
Mat<T> mlpForward(Mat<T> X, const std::vector<LinearWeights<T>> &Layers,
                  std::vector<Mat<T>> *Tape = nullptr) {
  for (const LinearWeights<T> &L : Layers) {
    Mat<T> Y = linearForward(X, L);
    for (T &V : Y.Data)
      V = reluValue(V);
    if (Tape)
      Tape->push_back(std::move(X));
    X = std::move(Y);
  }
  if (Tape)
    Tape->push_back(X);
  return X;
}

/// Masked log-softmax of one logits row into \p Out: masked entries
/// (Mask[j] == 0) count as MaskedLogit. \p Mask may be null for no mask.
template <typename T>
void logSoftmaxRow(const T *Logits, const double *Mask, unsigned N, T *Out) {
  auto MaskedAt = [&](unsigned J) {
    return Mask && Mask[J] == 0.0 ? static_cast<T>(MaskedLogit) : Logits[J];
  };
  T Max = static_cast<T>(MaskedLogit);
  for (unsigned J = 0; J < N; ++J)
    Max = std::max(Max, MaskedAt(J));
  T Sum = 0;
  for (unsigned J = 0; J < N; ++J)
    Sum += std::exp(MaskedAt(J) - Max);
  const T LogSum = Max + std::log(Sum);
  for (unsigned J = 0; J < N; ++J)
    Out[J] = MaskedAt(J) - LogSum;
}

/// The most probable index of a log-softmax row, first index on ties.
/// Compares the probabilities exp(LogProbs[j]) sampling draws with, not
/// the log-probabilities: two log-probs an ulp apart can round to one
/// probability, and the tie then goes to the first.
template <typename T> unsigned argmaxRow(const T *LogProbs, unsigned N) {
  unsigned Best = 0;
  double BestValue = -1.0;
  for (unsigned J = 0; J < N; ++J) {
    double P = std::exp(static_cast<double>(LogProbs[J]));
    if (P > BestValue) {
      BestValue = P;
      Best = J;
    }
  }
  return Best;
}

/// Draws an index of a log-softmax row from \p Rng, weighted by the
/// probabilities exp(LogProbs[j]).
template <typename T>
unsigned sampleRow(const T *LogProbs, unsigned N, Rng &Rng) {
  std::vector<double> Probs(N);
  for (unsigned J = 0; J < N; ++J)
    Probs[J] = std::exp(static_cast<double>(LogProbs[J]));
  return static_cast<unsigned>(Rng.sampleWeighted(Probs));
}

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_INFERENCE_H
