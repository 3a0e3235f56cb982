//===- Layers.cpp ---------------------------------------------------------===//

#include "nn/Layers.h"

#include <cassert>
#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

Linear::Linear(unsigned In, unsigned Out, Rng &Rng) {
  double Bound = std::sqrt(6.0 / (In + Out));
  std::vector<double> Weights(static_cast<size_t>(In) * Out);
  for (double &W : Weights)
    W = Rng.nextDouble(-Bound, Bound);
  W = Tensor::parameter(In, Out, std::move(Weights));
  B = Tensor::parameter(1, Out, std::vector<double>(Out, 0.0));
}

Mlp::Mlp(unsigned In, unsigned Hidden, unsigned Depth, Rng &Rng) {
  assert(Depth > 0 && "MLP needs at least one layer");
  unsigned Prev = In;
  for (unsigned I = 0; I < Depth; ++I) {
    Layers.emplace_back(Prev, Hidden, Rng);
    Prev = Hidden;
  }
}

std::vector<Tensor> Mlp::parameters() const {
  std::vector<Tensor> Params;
  for (const Linear &L : Layers)
    for (const Tensor &P : L.parameters())
      Params.push_back(P);
  return Params;
}
