//===- Distributions.h - Categorical action distributions --------*- C++-*-===//
///
/// \file
/// Masked categorical distributions over logits — the building block of
/// the multi-discrete action space (Sec. IV-A1): the policy first samples
/// a transformation from a 6-way categorical, then parameters from
/// per-head categoricals, all under action masks (Sec. IV-A2).
///
/// This is the differentiable side, for the PPO update. Rollouts sample
/// and argmax over plain logits rows with the helpers of nn/Inference.h.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_DISTRIBUTIONS_H
#define MLIRRL_NN_DISTRIBUTIONS_H

#include "nn/Ops.h"

#include <vector>

namespace mlirrl {
namespace nn {

/// A batch of B independent masked categorical distributions over the
/// rows of a [BxN] logits tensor. Log-softmax is row-wise and the shared
/// GEMM producing the logits accumulates each row independently, so a
/// row's values do not depend on the batch it sits in.
///
/// Rows whose head is inactive in a mixed batch may carry an all-zero
/// mask; such rows must simply never be picked.
class BatchedMaskedCategorical {
public:
  /// \p Logits is BxN; \p Mask (BxN of 0/1) may be invalid for no mask.
  BatchedMaskedCategorical(Tensor Logits, Tensor Mask = Tensor());

  /// Differentiable per-row log-probabilities [Bx1]; Cols[r] == -1
  /// contributes 0.0 with no gradient (inactive rows).
  Tensor logProbRows(const std::vector<int> &Cols) const;

  /// Differentiable per-row entropies [Bx1].
  Tensor entropyRows() const;

private:
  Tensor Logits;
  Tensor Mask;
  Tensor LogProbs; // cached logSoftmax node
};

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_DISTRIBUTIONS_H
