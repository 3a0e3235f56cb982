//===- Layers.h - Trainable layers -------------------------------*- C++-*-===//
///
/// \file
/// Trainable layers of the actor-critic networks: Linear (dense) layers
/// and the MLP backbone of Fig. 4a (three Dense(512) + ReLU stages).
/// These own the parameters and their shapes; parameters() exposes them
/// to the optimizer. The forward and backward passes over them are
/// nn/Inference.h's and nn/Backward.h's.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_LAYERS_H
#define MLIRRL_NN_LAYERS_H

#include "nn/Tensor.h"
#include "support/Rng.h"

#include <vector>

namespace mlirrl {
namespace nn {

/// y = x W + b with Xavier-uniform initialization.
class Linear {
public:
  Linear() = default;
  Linear(unsigned In, unsigned Out, Rng &Rng);

  std::vector<Tensor> parameters() const { return {W, B}; }

  const Tensor &weight() const { return W; }
  const Tensor &bias() const { return B; }

  unsigned inFeatures() const { return W.rows(); }
  unsigned outFeatures() const { return W.cols(); }

private:
  Tensor W; // In x Out
  Tensor B; // 1 x Out
};

/// The backbone of the policy and value networks (Fig. 4a): a stack of
/// Linear + ReLU layers.
class Mlp {
public:
  Mlp() = default;
  /// Builds Depth layers of Hidden units over an In-dimensional input.
  Mlp(unsigned In, unsigned Hidden, unsigned Depth, Rng &Rng);

  std::vector<Tensor> parameters() const;

  /// The layer stack (read-only; the forward and backward read its
  /// shapes).
  const std::vector<Linear> &layers() const { return Layers; }

private:
  std::vector<Linear> Layers;
};

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_LAYERS_H
