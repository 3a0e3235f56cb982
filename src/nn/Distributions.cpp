//===- Distributions.cpp --------------------------------------------------===//

#include "nn/Distributions.h"

using namespace mlirrl;
using namespace mlirrl::nn;

BatchedMaskedCategorical::BatchedMaskedCategorical(Tensor Logits, Tensor Mask)
    : Logits(std::move(Logits)), Mask(std::move(Mask)) {
  LogProbs = logSoftmaxRows(this->Logits, this->Mask);
}

Tensor BatchedMaskedCategorical::logProbRows(const std::vector<int> &Cols) const {
  return pickPerRow(LogProbs, Cols);
}

Tensor BatchedMaskedCategorical::entropyRows() const {
  return entropyRowsOfLogits(Logits, Mask);
}
