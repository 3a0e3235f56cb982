//===- Lstm.cpp -----------------------------------------------------------===//

#include "nn/Lstm.h"

using namespace mlirrl;
using namespace mlirrl::nn;

LstmCell::LstmCell(unsigned In, unsigned Hidden, Rng &Rng)
    : Hidden(Hidden), InputGate(In + Hidden, Hidden, Rng),
      ForgetGate(In + Hidden, Hidden, Rng), CellGate(In + Hidden, Hidden, Rng),
      OutputGate(In + Hidden, Hidden, Rng) {}

std::vector<Tensor> LstmCell::parameters() const {
  std::vector<Tensor> Params;
  for (const Linear *Gate : gates())
    for (const Tensor &P : Gate->parameters())
      Params.push_back(P);
  return Params;
}
