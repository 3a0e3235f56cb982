//===- Lstm.cpp -----------------------------------------------------------===//

#include "nn/Lstm.h"

#include <cassert>

using namespace mlirrl;
using namespace mlirrl::nn;

LstmCell::LstmCell(unsigned In, unsigned Hidden, Rng &Rng)
    : Hidden(Hidden), InputGate(In + Hidden, Hidden, Rng),
      ForgetGate(In + Hidden, Hidden, Rng), CellGate(In + Hidden, Hidden, Rng),
      OutputGate(In + Hidden, Hidden, Rng) {}

Tensor LstmCell::runSequenceSparse(
    const std::vector<std::shared_ptr<const SparseRows>> &Sequence) const {
  assert(!Sequence.empty() && "empty LSTM sequence");
  Tensor H = Tensor::zeros(Sequence.front()->Rows, Hidden);
  Tensor C = Tensor::zeros(Sequence.front()->Rows, Hidden);
  for (const std::shared_ptr<const SparseRows> &X : Sequence) {
    Tensor I = sigmoidOp(linearSplitSparse(X, H, InputGate.weight(),
                                           InputGate.bias()));
    Tensor F = sigmoidOp(linearSplitSparse(X, H, ForgetGate.weight(),
                                           ForgetGate.bias()));
    Tensor G = tanhOp(linearSplitSparse(X, H, CellGate.weight(),
                                        CellGate.bias()));
    Tensor O = sigmoidOp(linearSplitSparse(X, H, OutputGate.weight(),
                                           OutputGate.bias()));
    C = add(hadamard(F, C), hadamard(I, G));
    H = hadamard(O, tanhOp(C));
  }
  return H;
}

std::vector<Tensor> LstmCell::parameters() const {
  std::vector<Tensor> Params;
  for (const Linear *Gate : {&InputGate, &ForgetGate, &CellGate, &OutputGate})
    for (const Tensor &P : Gate->parameters())
      Params.push_back(P);
  return Params;
}
