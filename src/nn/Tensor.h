//===- Tensor.h - Autograd tensors -------------------------------*- C++-*-===//
///
/// \file
/// A small reverse-mode automatic-differentiation engine over 2-D
/// matrices. Tensors are cheap shared handles to graph nodes; backward()
/// runs reverse topological accumulation from a scalar loss. Parameters
/// are leaf tensors whose gradients the optimizer reads.
///
/// The graph carries the PPO loss only: the B x 1 log-probabilities,
/// entropies and values ActorCritic::evaluateBatch returns, the ops of
/// nn/Ops.h over them, and the scalar loss. The evaluation's nodes run
/// the networks' explicit backward (nn/Backward.h) from their backward
/// closures, so a minibatch's graph holds a couple of dozen nodes.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_TENSOR_H
#define MLIRRL_NN_TENSOR_H

#include "support/AlignedAlloc.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mlirrl {
namespace nn {

class Tensor;

/// Tensor buffer storage: 64-byte-aligned so SIMD kernels see aligned
/// bases.
using DBuffer = std::vector<double, AlignedAllocator<double, BufferAlignment>>;

/// The graph node behind a Tensor handle.
struct TensorNode {
  unsigned Rows = 0;
  unsigned Cols = 0;
  DBuffer Data;
  DBuffer Grad;
  bool RequiresGrad = false;

  /// Parents in the compute graph (kept alive through backward).
  std::vector<std::shared_ptr<TensorNode>> Inputs;
  /// Accumulates this node's Grad into its inputs' Grads.
  std::function<void(TensorNode &)> Backward;
  /// Operation name, for debugging.
  const char *Op = "leaf";

  double at(unsigned R, unsigned C) const { return Data[R * Cols + C]; }
};

/// A shared handle to a graph node.
class Tensor {
public:
  Tensor() = default;

  /// Creates a constant (non-differentiable) tensor of zeros.
  static Tensor zeros(unsigned Rows, unsigned Cols);

  /// Creates a tensor from row-major values.
  static Tensor fromData(unsigned Rows, unsigned Cols,
                         std::vector<double> Values);

  /// Creates a 1x1 scalar tensor.
  static Tensor scalar(double Value);

  /// Creates a trainable parameter (RequiresGrad = true).
  static Tensor parameter(unsigned Rows, unsigned Cols,
                          std::vector<double> Values);

  bool valid() const { return Node != nullptr; }
  unsigned rows() const { return Node->Rows; }
  unsigned cols() const { return Node->Cols; }
  unsigned size() const { return rows() * cols(); }

  double at(unsigned R, unsigned C) const { return Node->at(R, C); }
  double item() const;

  const DBuffer &data() const { return Node->Data; }
  const DBuffer &grad() const { return Node->Grad; }

  bool requiresGrad() const { return Node->RequiresGrad; }

  std::shared_ptr<TensorNode> node() const { return Node; }

  /// Runs reverse-mode accumulation from this scalar node (must be 1x1).
  void backward() const;

private:
  friend Tensor makeNode(unsigned Rows, unsigned Cols,
                         std::vector<Tensor> Inputs, const char *Op);
  explicit Tensor(std::shared_ptr<TensorNode> Node) : Node(std::move(Node)) {}

  std::shared_ptr<TensorNode> Node;
};

/// Creates an op node whose RequiresGrad is inherited from its inputs.
/// The caller fills Data and Backward.
Tensor makeNode(unsigned Rows, unsigned Cols, std::vector<Tensor> Inputs,
                const char *Op);

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_TENSOR_H
