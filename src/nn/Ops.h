//===- Ops.h - Differentiable tensor operations ------------------*- C++-*-===//
///
/// \file
/// The differentiable operations the PPO update's forward pass and loss
/// are built from. All operate on 2-D tensors; every op returns a new
/// graph node with a backward closure. Rollouts never run backward and
/// use the graph-free forward of nn/Inference.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_OPS_H
#define MLIRRL_NN_OPS_H

#include "nn/Tensor.h"

namespace mlirrl {
namespace nn {

/// C[MxN] = A[MxK] x B[KxN]. Forward and both backward products run on
/// the blocked kernels of Gemm.h.
Tensor matmul(const Tensor &A, const Tensor &B);

/// Fused dense layer: C[MxN] = A[MxK] x W[KxN] + Bias[1xN] broadcast over
/// rows, as a single graph node (one less temporary than
/// addBias(matmul(...))). Backward accumulates dA, dW and the column-sum
/// bias gradient.
Tensor linear(const Tensor &A, const Tensor &W, const Tensor &Bias);

/// A batch of mostly-zero feature rows in compressed form: only the
/// nonzero (column, value) pairs, ascending per row. Observation
/// feature vectors are ~97% zeros (masking and padding), so compressing
/// once per batch replaces the per-gate scans over the dense width.
struct SparseRows {
  struct Entry {
    unsigned Col = 0;
    double Value = 0.0;
  };
  unsigned Rows = 0;
  unsigned Cols = 0;
  std::vector<std::vector<Entry>> RowEntries;

  /// Compresses one row per source vector (all the same length).
  static SparseRows
  fromRows(const std::vector<const std::vector<double> *> &Sources);
};

/// Fused concatenated dense layer with the X operand in compressed
/// sparse form: C = [X, H] x W + Bias ([BxF] and [BxG] against W
/// [(F+G)xN]) without materializing the concatenation. All four gates
/// of an LSTM step share one compression of the batch. Forward
/// accumulates k ascending across the nonzero X rows then the H rows of
/// W, so it is bitwise the dense product. X is treated as a constant;
/// backward produces dH, dW (only the nonzero feature rows) and dBias.
Tensor linearSplitSparse(const std::shared_ptr<const SparseRows> &X,
                         const Tensor &H, const Tensor &W,
                         const Tensor &Bias);

/// Elementwise addition of same-shaped tensors.
Tensor add(const Tensor &A, const Tensor &B);

/// Adds a 1xN bias row to every row of A[MxN].
Tensor addBias(const Tensor &A, const Tensor &Bias);

/// Elementwise subtraction.
Tensor sub(const Tensor &A, const Tensor &B);

/// Elementwise (Hadamard) product.
Tensor hadamard(const Tensor &A, const Tensor &B);

/// Multiplication by a compile-time constant.
Tensor scale(const Tensor &A, double Factor);

/// Elementwise nonlinearities.
Tensor relu(const Tensor &A);
Tensor tanhOp(const Tensor &A);
Tensor sigmoidOp(const Tensor &A);
Tensor expOp(const Tensor &A);

/// Elementwise clamp; gradient is zero outside [Lo, Hi].
Tensor clamp(const Tensor &A, double Lo, double Hi);

/// Elementwise minimum with subgradient following the selected branch.
Tensor minOp(const Tensor &A, const Tensor &B);

/// Row-wise log-softmax with an optional 0/1 mask (same shape); masked
/// entries contribute -inf logits and receive zero gradient. Pass an
/// invalid Tensor for no mask.
Tensor logSoftmaxRows(const Tensor &Logits, const Tensor &Mask = Tensor());

/// Batched pick: Out[r][0] = A[r][Cols[r]]. A column of -1 contributes
/// 0.0 and receives no gradient (rows whose policy head is inactive in
/// a mixed minibatch).
Tensor pickPerRow(const Tensor &A, const std::vector<int> &Cols);

/// Per-row sum: Out[r][0] = sum_j A[r][j].
Tensor rowSums(const Tensor &A);

/// Sum / mean over all entries, returning a scalar.
Tensor sumAll(const Tensor &A);
Tensor meanAll(const Tensor &A);

/// Mean of a list of scalars (losses across a minibatch).
Tensor meanOf(const std::vector<Tensor> &Scalars);

/// Extracts columns [Start, Start+Len) of every row of [BxN] (used to
/// carve per-loop-level blocks out of the N*M tile heads).
Tensor sliceCols(const Tensor &A, unsigned Start, unsigned Len);

/// Per-row entropy of masked logits as a [Bx1] column (the batched PPO
/// update's entropy regularizer).
Tensor entropyRowsOfLogits(const Tensor &Logits,
                           const Tensor &Mask = Tensor());

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_OPS_H
