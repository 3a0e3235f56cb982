//===- Ops.h - Differentiable tensor operations ------------------*- C++-*-===//
///
/// \file
/// The elementwise and reduction graph ops the PPO loss is built from.
/// Each returns a new graph node with a backward closure. The networks
/// are not built from these: ActorCritic::evaluateBatch runs the forward
/// of nn/Inference.h and hands the loss a few graph nodes whose backward
/// runs the explicit backward of nn/Backward.h.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_OPS_H
#define MLIRRL_NN_OPS_H

#include "nn/Tensor.h"

namespace mlirrl {
namespace nn {

/// Elementwise addition of same-shaped tensors.
Tensor add(const Tensor &A, const Tensor &B);

/// Elementwise subtraction.
Tensor sub(const Tensor &A, const Tensor &B);

/// Elementwise (Hadamard) product.
Tensor hadamard(const Tensor &A, const Tensor &B);

/// Multiplication by a compile-time constant.
Tensor scale(const Tensor &A, double Factor);

/// Elementwise exponential.
Tensor expOp(const Tensor &A);

/// Elementwise clamp; gradient is zero outside [Lo, Hi].
Tensor clamp(const Tensor &A, double Lo, double Hi);

/// Elementwise minimum with subgradient following the selected branch.
Tensor minOp(const Tensor &A, const Tensor &B);

/// Sum / mean over all entries, returning a scalar.
Tensor sumAll(const Tensor &A);
Tensor meanAll(const Tensor &A);

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_OPS_H
