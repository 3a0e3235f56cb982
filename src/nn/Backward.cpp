//===- Backward.cpp -------------------------------------------------------===//

#include "nn/Backward.h"

#include "nn/Gemm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

double *gradOf(const Tensor &T) { return T.node()->Grad.data(); }

/// The backward of Y = [X, H] . W + b (linearSplitSparseInto) into
/// \p Gate's gradients: dW over the nonzero feature rows -- rows
/// ascending, so each element sums its samples in the dense order --
/// then dH (skipped when \p DH is null), the H rows of dW and db.
void splitLinearBackward(const SparseRows &X, const Mat<double> &H,
                         const double *DY, const Linear &Gate, double *DH) {
  const unsigned N = Gate.outFeatures();
  for (unsigned I = 0; I < X.Rows; ++I) {
    const double *Gi = DY + static_cast<size_t>(I) * N;
    for (const SparseRows::Entry &E : X.RowEntries[I]) {
      double *Wk = gradOf(Gate.weight()) + static_cast<size_t>(E.Col) * N;
      for (unsigned J = 0; J < N; ++J)
        Wk[J] += E.Value * Gi[J];
    }
  }
  const size_t HRows = static_cast<size_t>(X.Cols) * N;
  if (DH)
    gemmAccNT(X.Rows, H.Cols, N, DY, N, Gate.weight().data().data() + HRows,
              N, DH, H.Cols);
  gemmAccTN(H.Cols, N, X.Rows, H.Data.data(), H.Cols, DY, N,
            gradOf(Gate.weight()) + HRows, N);
  double *DB = gradOf(Gate.bias());
  for (unsigned I = 0; I < X.Rows; ++I)
    for (unsigned J = 0; J < N; ++J)
      DB[J] += DY[static_cast<size_t>(I) * N + J];
}

/// dLogits[j] += dLogP[j] - p_j * sum(dLogP) for every unmasked j.
void logSoftmaxRowBackward(const double *LogP, const double *DLogP,
                           const double *Mask, unsigned N, double *DLogits) {
  double Sum = 0.0;
  for (unsigned J = 0; J < N; ++J)
    Sum += DLogP[J];
  for (unsigned J = 0; J < N; ++J) {
    if (Mask && Mask[J] == 0.0)
      continue;
    const double P = std::exp(LogP[J]);
    DLogits[J] += DLogP[J] - P * Sum;
  }
}

const double *maskRow(const std::vector<const double *> &Masks, unsigned R) {
  return Masks.empty() ? nullptr : Masks[R];
}

} // namespace

void nn::linearBackward(unsigned M, const double *X, const double *DY,
                        const Linear &L, double *DX) {
  const unsigned K = L.inFeatures(), N = L.outFeatures();
  if (DX)
    gemmAccNT(M, K, N, DY, N, L.weight().data().data(), N, DX, K);
  gemmAccTN(K, N, M, X, K, DY, N, gradOf(L.weight()), N);
  double *DB = gradOf(L.bias());
  for (unsigned I = 0; I < M; ++I)
    for (unsigned J = 0; J < N; ++J)
      DB[J] += DY[static_cast<size_t>(I) * N + J];
}

Mat<double> nn::mlpBackward(const std::vector<Mat<double>> &Tape,
                            Mat<double> DOut, const Mlp &Backbone) {
  const std::vector<Linear> &Layers = Backbone.layers();
  assert(Tape.size() == Layers.size() + 1 && "backbone tape mismatch");
  for (size_t L = Layers.size(); L-- > 0;) {
    // ReLU passes the gradient where the layer's output is positive.
    const Mat<double> &Out = Tape[L + 1];
    Mat<double> DZ(Out.Rows, Out.Cols);
    for (size_t K = 0; K < DZ.Data.size(); ++K)
      DZ.Data[K] += DOut.Data[K] * (Out.Data[K] > 0.0 ? 1.0 : 0.0);
    const Mat<double> &In = Tape[L];
    DOut = Mat<double>(In.Rows, In.Cols);
    linearBackward(In.Rows, In.Data.data(), DZ.Data.data(), Layers[L],
                   DOut.Data.data());
  }
  return DOut;
}

void nn::lstmBackward(const std::vector<LstmStep<double>> &Tape,
                      Mat<double> DH, const LstmCell &Cell) {
  const std::array<const Linear *, 4> Gates = Cell.gates();
  const unsigned B = DH.Rows, Hidden = DH.Cols;
  const size_t Size = DH.Data.size();
  Mat<double> DC(B, Hidden); // of the cell state the step produced
  for (size_t T = Tape.size(); T-- > 0;) {
    const LstmStep<double> &S = Tape[T];
    // The first step starts from the zero state, which takes no
    // gradient. The others fill the previous step's dH (four gates) and
    // dC (before its own tanh term).
    const bool First = T == 0;
    Mat<double> DPrevH(B, Hidden), DPrevC(B, Hidden);
    // A gate's activation backward (Derivative of its output Y), then
    // its layer's.
    auto Gate = [&](const Mat<double> &DAct, const Mat<double> &Y,
                    auto Derivative, const Linear *Layer) {
      Mat<double> DPre(B, Hidden);
      for (size_t K = 0; K < Size; ++K)
        DPre.Data[K] += DAct.Data[K] * Derivative(Y.Data[K]);
      splitLinearBackward(*S.X, S.H, DPre.Data.data(), *Layer,
                          First ? nullptr : DPrevH.Data.data());
    };
    auto Sigmoid = [](double Y) { return Y * (1.0 - Y); };
    auto Tanh = [](double Y) { return 1.0 - Y * Y; };

    // H = O * tanh(C).
    Mat<double> DO(B, Hidden), DTanhC(B, Hidden);
    for (size_t K = 0; K < Size; ++K) {
      DO.Data[K] += DH.Data[K] * S.TanhC.Data[K];
      DTanhC.Data[K] += DH.Data[K] * S.O.Data[K];
    }
    for (size_t K = 0; K < Size; ++K)
      DC.Data[K] += DTanhC.Data[K] * Tanh(S.TanhC.Data[K]);
    // C = F * C_prev + I * G: both products take dC whole.
    Mat<double> DI(B, Hidden), DG(B, Hidden);
    for (size_t K = 0; K < Size; ++K) {
      DI.Data[K] += DC.Data[K] * S.G.Data[K];
      DG.Data[K] += DC.Data[K] * S.I.Data[K];
    }
    Gate(DG, S.G, Tanh, Gates[2]);
    Gate(DI, S.I, Sigmoid, Gates[0]);
    Mat<double> DF(B, Hidden);
    for (size_t K = 0; K < Size; ++K) {
      DF.Data[K] += DC.Data[K] * S.C.Data[K];
      if (!First)
        DPrevC.Data[K] += DC.Data[K] * S.F.Data[K];
    }
    Gate(DF, S.F, Sigmoid, Gates[1]);
    Gate(DO, S.O, Sigmoid, Gates[3]);
    DH = std::move(DPrevH);
    DC = std::move(DPrevC);
  }
}

Mat<double> nn::logSoftmaxRows(const Mat<double> &Logits,
                               const std::vector<const double *> &Masks) {
  Mat<double> LogP(Logits.Rows, Logits.Cols);
  for (unsigned R = 0; R < Logits.Rows; ++R)
    logSoftmaxRow(Logits.row(R), maskRow(Masks, R), Logits.Cols, LogP.row(R));
  return LogP;
}

std::vector<double> nn::entropyRows(const Mat<double> &LogP) {
  // -p log p is rounded per entry, before the row sums.
  Mat<double> Terms(LogP.Rows, LogP.Cols);
  for (size_t K = 0; K < Terms.Data.size(); ++K)
    Terms.Data[K] = (std::exp(LogP.Data[K]) * LogP.Data[K]) * -1.0;
  std::vector<double> Entropy(LogP.Rows, 0.0);
  for (unsigned R = 0; R < LogP.Rows; ++R)
    for (unsigned J = 0; J < LogP.Cols; ++J)
      Entropy[R] += Terms.row(R)[J];
  return Entropy;
}

void nn::pickBackward(const Mat<double> &LogP,
                      const std::vector<const double *> &Masks,
                      const std::vector<int> &Picks, const double *DPick,
                      Mat<double> &DLogits) {
  std::vector<double> DLogPRow(LogP.Cols);
  for (unsigned R = 0; R < LogP.Rows; ++R) {
    if (Picks[R] < 0)
      continue;
    std::fill(DLogPRow.begin(), DLogPRow.end(), 0.0);
    DLogPRow.at(static_cast<unsigned>(Picks[R])) += DPick[R];
    logSoftmaxRowBackward(LogP.row(R), DLogPRow.data(), maskRow(Masks, R),
                          LogP.Cols, DLogits.row(R));
  }
}

void nn::entropyBackward(const Mat<double> &LogP,
                         const std::vector<const double *> &Masks,
                         const std::vector<double> &DEntropy,
                         Mat<double> &DLogits) {
  const unsigned N = LogP.Cols;
  std::vector<double> DP(N), DLogPRow(N);
  for (unsigned R = 0; R < LogP.Rows; ++R) {
    if (DEntropy[R] == 0.0)
      continue;
    // The row sum and the negation hand every p log p term -dH; then
    // p * log p and p = exp(log p) run as passes of their own.
    const double G = 0.0 - DEntropy[R];
    const double *L = LogP.row(R);
    std::fill(DP.begin(), DP.end(), 0.0);
    std::fill(DLogPRow.begin(), DLogPRow.end(), 0.0);
    for (unsigned J = 0; J < N; ++J) {
      DP[J] += G * L[J];
      DLogPRow[J] += G * std::exp(L[J]);
    }
    for (unsigned J = 0; J < N; ++J)
      DLogPRow[J] += DP[J] * std::exp(L[J]);
    logSoftmaxRowBackward(L, DLogPRow.data(), maskRow(Masks, R), N,
                          DLogits.row(R));
  }
}
