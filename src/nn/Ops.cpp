//===- Ops.cpp ------------------------------------------------------------===//

#include "nn/Ops.h"

#include "nn/Gemm.h"
#include "nn/Inference.h"
#include "support/Error.h"

#include <cassert>
#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

/// Shared backward for matmul-shaped nodes: dA += dC . B^T and
/// dB += A^T . dC on the blocked kernels.
static void matmulBackward(TensorNode &Self, unsigned M, unsigned K,
                           unsigned N) {
  TensorNode &An = *Self.Inputs[0];
  TensorNode &Bn = *Self.Inputs[1];
  if (An.RequiresGrad)
    gemmAccNT(M, K, N, Self.Grad.data(), N, Bn.Data.data(), N,
              An.Grad.data(), K);
  if (Bn.RequiresGrad)
    gemmAccTN(K, N, M, An.Data.data(), K, Self.Grad.data(), N,
              Bn.Grad.data(), N);
}

Tensor nn::matmul(const Tensor &A, const Tensor &B) {
  assert(A.cols() == B.rows() && "matmul inner dims mismatch");
  unsigned M = A.rows(), K = A.cols(), N = B.cols();
  Tensor C = makeNode(M, N, {A, B}, "matmul");
  TensorNode &Node = *C.node();
  forwardProduct(M, N, K, A.data().data(), B.data().data(),
                 Node.Data.data());
  Node.Backward = [M, K, N](TensorNode &Self) {
    matmulBackward(Self, M, K, N);
  };
  return C;
}

Tensor nn::linear(const Tensor &A, const Tensor &W, const Tensor &Bias) {
  assert(A.cols() == W.rows() && "linear inner dims mismatch");
  assert(Bias.rows() == 1 && Bias.cols() == W.cols() &&
         "bias must be a 1xN row");
  unsigned M = A.rows(), K = A.cols(), N = W.cols();
  Tensor C = makeNode(M, N, {A, W, Bias}, "linear");
  TensorNode &Node = *C.node();
  linearInto(M, A.data().data(),
             LinearWeights<double>{W.data().data(), Bias.data().data(), K, N},
             Node.Data.data());
  Node.Backward = [M, K, N](TensorNode &Self) {
    matmulBackward(Self, M, K, N);
    TensorNode &BiasN = *Self.Inputs[2];
    if (!BiasN.RequiresGrad)
      return;
    for (unsigned I = 0; I < M; ++I) {
      const double *Gi = Self.Grad.data() + static_cast<size_t>(I) * N;
      for (unsigned J = 0; J < N; ++J)
        BiasN.Grad[J] += Gi[J];
    }
  };
  return C;
}

SparseRows SparseRows::fromRows(
    const std::vector<const std::vector<double> *> &Sources) {
  SparseRows X;
  X.Rows = static_cast<unsigned>(Sources.size());
  X.Cols = Sources.empty()
               ? 0
               : static_cast<unsigned>(Sources.front()->size());
  X.RowEntries.resize(X.Rows);
  for (unsigned I = 0; I < X.Rows; ++I) {
    const std::vector<double> &Row = *Sources[I];
    assert(Row.size() == X.Cols && "ragged sparse batch");
    for (unsigned J = 0; J < X.Cols; ++J)
      if (Row[J] != 0.0)
        X.RowEntries[I].push_back({J, Row[J]});
  }
  return X;
}

Tensor nn::linearSplitSparse(const std::shared_ptr<const SparseRows> &X,
                             const Tensor &H, const Tensor &W,
                             const Tensor &Bias) {
  assert(X && X->Rows == H.rows() && "linearSplitSparse row-count mismatch");
  assert(X->Cols + H.cols() == W.rows() &&
         "linearSplitSparse inner dims mismatch");
  assert(Bias.rows() == 1 && Bias.cols() == W.cols() &&
         "bias must be a 1xN row");
  unsigned M = X->Rows, F = X->Cols, G = H.cols(), N = W.cols();
  Tensor C = makeNode(M, N, {H, W, Bias}, "linearSplitSparse");
  TensorNode &Node = *C.node();
  linearSplitSparseInto(
      *X, H.data().data(),
      LinearWeights<double>{W.data().data(), Bias.data().data(), F + G, N},
      Node.Data.data());
  Node.Backward = [X, M, F, G, N](TensorNode &Self) {
    TensorNode &Hn = *Self.Inputs[0];
    TensorNode &Wn = *Self.Inputs[1];
    TensorNode &BiasN = *Self.Inputs[2];
    if (Hn.RequiresGrad)
      gemmAccNT(M, G, N, Self.Grad.data(), N,
                Wn.Data.data() + static_cast<size_t>(F) * N, N,
                Hn.Grad.data(), G);
    if (Wn.RequiresGrad) {
      // dW[k] += sum_i X[i][k] * dC[i]: rows ascending, so each element
      // accumulates its samples in the same order the dense transposed
      // product does -- but only nonzero feature rows are touched.
      for (unsigned I = 0; I < M; ++I) {
        const double *Gi = Self.Grad.data() + static_cast<size_t>(I) * N;
        for (const SparseRows::Entry &E : X->RowEntries[I]) {
          double *Wk = Wn.Grad.data() + static_cast<size_t>(E.Col) * N;
          for (unsigned J = 0; J < N; ++J)
            Wk[J] += E.Value * Gi[J];
        }
      }
      gemmAccTN(G, N, M, Hn.Data.data(), G, Self.Grad.data(), N,
                Wn.Grad.data() + static_cast<size_t>(F) * N, N);
    }
    if (BiasN.RequiresGrad)
      for (unsigned I = 0; I < M; ++I) {
        const double *Gi = Self.Grad.data() + static_cast<size_t>(I) * N;
        for (unsigned J = 0; J < N; ++J)
          BiasN.Grad[J] += Gi[J];
      }
  };
  return C;
}

/// Shared helper for elementwise binary ops.
template <typename Fwd, typename Bwd>
static Tensor elementwiseBinary(const Tensor &A, const Tensor &B,
                                const char *Name, Fwd Forward, Bwd Backward) {
  assert(A.rows() == B.rows() && A.cols() == B.cols() &&
         "elementwise shape mismatch");
  Tensor C = makeNode(A.rows(), A.cols(), {A, B}, Name);
  TensorNode &Node = *C.node();
  for (size_t I = 0; I < Node.Data.size(); ++I)
    Node.Data[I] = Forward(A.data()[I], B.data()[I]);
  Node.Backward = [Backward](TensorNode &Self) {
    TensorNode &An = *Self.Inputs[0];
    TensorNode &Bn = *Self.Inputs[1];
    for (size_t I = 0; I < Self.Data.size(); ++I) {
      auto [Da, Db] = Backward(An.Data[I], Bn.Data[I]);
      if (An.RequiresGrad)
        An.Grad[I] += Self.Grad[I] * Da;
      if (Bn.RequiresGrad)
        Bn.Grad[I] += Self.Grad[I] * Db;
    }
  };
  return C;
}

/// Shared helper for elementwise unary ops. Backward receives (x, y).
template <typename Fwd, typename Bwd>
static Tensor elementwiseUnary(const Tensor &A, const char *Name, Fwd Forward,
                               Bwd Backward) {
  Tensor C = makeNode(A.rows(), A.cols(), {A}, Name);
  TensorNode &Node = *C.node();
  for (size_t I = 0; I < Node.Data.size(); ++I)
    Node.Data[I] = Forward(A.data()[I]);
  Node.Backward = [Backward](TensorNode &Self) {
    TensorNode &An = *Self.Inputs[0];
    if (!An.RequiresGrad)
      return;
    for (size_t I = 0; I < Self.Data.size(); ++I)
      An.Grad[I] += Self.Grad[I] * Backward(An.Data[I], Self.Data[I]);
  };
  return C;
}

Tensor nn::add(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "add", [](double X, double Y) { return X + Y; },
      [](double, double) { return std::pair<double, double>{1.0, 1.0}; });
}

Tensor nn::sub(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "sub", [](double X, double Y) { return X - Y; },
      [](double, double) { return std::pair<double, double>{1.0, -1.0}; });
}

Tensor nn::hadamard(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "hadamard", [](double X, double Y) { return X * Y; },
      [](double X, double Y) { return std::pair<double, double>{Y, X}; });
}

Tensor nn::addBias(const Tensor &A, const Tensor &Bias) {
  assert(Bias.rows() == 1 && Bias.cols() == A.cols() &&
         "bias must be a 1xN row");
  Tensor C = makeNode(A.rows(), A.cols(), {A, Bias}, "addBias");
  TensorNode &Node = *C.node();
  for (unsigned I = 0; I < A.rows(); ++I)
    for (unsigned J = 0; J < A.cols(); ++J)
      Node.at(I, J) = A.at(I, J) + Bias.at(0, J);
  Node.Backward = [](TensorNode &Self) {
    TensorNode &An = *Self.Inputs[0];
    TensorNode &Bn = *Self.Inputs[1];
    for (unsigned I = 0; I < Self.Rows; ++I)
      for (unsigned J = 0; J < Self.Cols; ++J) {
        double G = Self.gradAt(I, J);
        if (An.RequiresGrad)
          An.gradAt(I, J) += G;
        if (Bn.RequiresGrad)
          Bn.gradAt(0, J) += G;
      }
  };
  return C;
}

Tensor nn::scale(const Tensor &A, double Factor) {
  return elementwiseUnary(
      A, "scale", [Factor](double X) { return X * Factor; },
      [Factor](double, double) { return Factor; });
}

Tensor nn::relu(const Tensor &A) {
  return elementwiseUnary(
      A, "relu", [](double X) { return reluValue(X); },
      [](double X, double) { return X > 0.0 ? 1.0 : 0.0; });
}

Tensor nn::tanhOp(const Tensor &A) {
  return elementwiseUnary(
      A, "tanh", [](double X) { return std::tanh(X); },
      [](double, double Y) { return 1.0 - Y * Y; });
}

Tensor nn::sigmoidOp(const Tensor &A) {
  return elementwiseUnary(
      A, "sigmoid", [](double X) { return sigmoidValue(X); },
      [](double, double Y) { return Y * (1.0 - Y); });
}

Tensor nn::expOp(const Tensor &A) {
  return elementwiseUnary(
      A, "exp", [](double X) { return std::exp(X); },
      [](double, double Y) { return Y; });
}

Tensor nn::clamp(const Tensor &A, double Lo, double Hi) {
  return elementwiseUnary(
      A, "clamp",
      [Lo, Hi](double X) { return X < Lo ? Lo : (X > Hi ? Hi : X); },
      [Lo, Hi](double X, double) { return (X >= Lo && X <= Hi) ? 1.0 : 0.0; });
}

Tensor nn::minOp(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "min", [](double X, double Y) { return X < Y ? X : Y; },
      [](double X, double Y) {
        return X < Y ? std::pair<double, double>{1.0, 0.0}
                     : std::pair<double, double>{0.0, 1.0};
      });
}

Tensor nn::logSoftmaxRows(const Tensor &Logits, const Tensor &Mask) {
  std::vector<Tensor> Inputs = {Logits};
  if (Mask.valid()) {
    assert(Mask.rows() == Logits.rows() && Mask.cols() == Logits.cols() &&
           "mask shape mismatch");
    Inputs.push_back(Mask);
  }
  unsigned R = Logits.rows(), C = Logits.cols();
  Tensor Out = makeNode(R, C, Inputs, "logSoftmax");
  TensorNode &Node = *Out.node();
  const double *MaskData = Mask.valid() ? Mask.data().data() : nullptr;
  for (unsigned I = 0; I < R; ++I) {
    const size_t Offset = static_cast<size_t>(I) * C;
    logSoftmaxRow(Logits.data().data() + Offset,
                  MaskData ? MaskData + Offset : nullptr, C,
                  Node.Data.data() + Offset);
  }

  bool HasMask = MaskData != nullptr;
  Node.Backward = [HasMask](TensorNode &Self) {
    TensorNode &In = *Self.Inputs[0];
    if (!In.RequiresGrad)
      return;
    const TensorNode *M = HasMask ? Self.Inputs[1].get() : nullptr;
    // d logits = dY - softmax * sum(dY) per row; masked entries get zero.
    for (unsigned I = 0; I < Self.Rows; ++I) {
      double GradSum = 0.0;
      for (unsigned J = 0; J < Self.Cols; ++J)
        GradSum += Self.gradAt(I, J);
      for (unsigned J = 0; J < Self.Cols; ++J) {
        if (M && M->at(I, J) == 0.0)
          continue;
        double P = std::exp(Self.at(I, J));
        In.gradAt(I, J) += Self.gradAt(I, J) - P * GradSum;
      }
    }
  };
  return Out;
}

Tensor nn::sumAll(const Tensor &A) {
  Tensor Out = makeNode(1, 1, {A}, "sum");
  double Sum = 0.0;
  for (double V : A.data())
    Sum += V;
  Out.node()->Data[0] = Sum;
  Out.node()->Backward = [](TensorNode &Self) {
    TensorNode &In = *Self.Inputs[0];
    if (!In.RequiresGrad)
      return;
    for (double &G : In.Grad)
      G += Self.Grad[0];
  };
  return Out;
}

Tensor nn::meanAll(const Tensor &A) {
  return scale(sumAll(A), 1.0 / static_cast<double>(A.size()));
}

Tensor nn::meanOf(const std::vector<Tensor> &Scalars) {
  assert(!Scalars.empty() && "meanOf requires at least one term");
  Tensor Out = makeNode(1, 1, Scalars, "meanOf");
  double Sum = 0.0;
  for (const Tensor &S : Scalars) {
    assert(S.size() == 1 && "meanOf takes scalars");
    Sum += S.item();
  }
  double InvN = 1.0 / static_cast<double>(Scalars.size());
  Out.node()->Data[0] = Sum * InvN;
  Out.node()->Backward = [InvN](TensorNode &Self) {
    for (auto &In : Self.Inputs)
      if (In->RequiresGrad)
        In->Grad[0] += Self.Grad[0] * InvN;
  };
  return Out;
}

Tensor nn::sliceCols(const Tensor &A, unsigned Start, unsigned Len) {
  assert(Start + Len <= A.cols() && "slice out of range");
  unsigned R = A.rows();
  Tensor Out = makeNode(R, Len, {A}, "slice");
  TensorNode &Node = *Out.node();
  for (unsigned I = 0; I < R; ++I)
    for (unsigned J = 0; J < Len; ++J)
      Node.at(I, J) = A.at(I, Start + J);
  Node.Backward = [Start, Len](TensorNode &Self) {
    TensorNode &In = *Self.Inputs[0];
    if (!In.RequiresGrad)
      return;
    for (unsigned I = 0; I < Self.Rows; ++I)
      for (unsigned J = 0; J < Len; ++J)
        In.gradAt(I, Start + J) += Self.gradAt(I, J);
  };
  return Out;
}

Tensor nn::pickPerRow(const Tensor &A, const std::vector<int> &Cols) {
  assert(Cols.size() == A.rows() && "one column index per row");
  unsigned R = A.rows();
  Tensor Out = makeNode(R, 1, {A}, "pickPerRow");
  TensorNode &Node = *Out.node();
  for (unsigned I = 0; I < R; ++I) {
    assert(Cols[I] < static_cast<int>(A.cols()) && "pick column out of range");
    Node.at(I, 0) = Cols[I] < 0 ? 0.0 : A.at(I, static_cast<unsigned>(Cols[I]));
  }
  Node.Backward = [Cols](TensorNode &Self) {
    TensorNode &In = *Self.Inputs[0];
    if (!In.RequiresGrad)
      return;
    for (unsigned I = 0; I < Self.Rows; ++I)
      if (Cols[I] >= 0)
        In.gradAt(I, static_cast<unsigned>(Cols[I])) += Self.gradAt(I, 0);
  };
  return Out;
}

Tensor nn::rowSums(const Tensor &A) {
  unsigned R = A.rows(), C = A.cols();
  Tensor Out = makeNode(R, 1, {A}, "rowSums");
  TensorNode &Node = *Out.node();
  for (unsigned I = 0; I < R; ++I) {
    double Sum = 0.0;
    for (unsigned J = 0; J < C; ++J)
      Sum += A.at(I, J);
    Node.at(I, 0) = Sum;
  }
  Node.Backward = [](TensorNode &Self) {
    TensorNode &In = *Self.Inputs[0];
    if (!In.RequiresGrad)
      return;
    for (unsigned I = 0; I < Self.Rows; ++I)
      for (unsigned J = 0; J < In.Cols; ++J)
        In.gradAt(I, J) += Self.gradAt(I, 0);
  };
  return Out;
}

Tensor nn::entropyRowsOfLogits(const Tensor &Logits, const Tensor &Mask) {
  // Per-row H = -sum_j p log p; masked entries have p == 0 and
  // p*logp == 0 (exp(-1e30) underflows), so the row sum is exact.
  Tensor LogP = logSoftmaxRows(Logits, Mask);
  Tensor P = expOp(LogP);
  return rowSums(scale(hadamard(P, LogP), -1.0));
}
