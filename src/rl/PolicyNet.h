//===- PolicyNet.h - The actor network (Fig. 3 / Fig. 4) ---------*- C++-*-===//
///
/// \file
/// The policy network of Sec. V-A: a producer-consumer LSTM embedding
/// (the two representation vectors are fed sequentially, the final hidden
/// state is the embedding), a backbone of Dense+ReLU layers, and output
/// heads: transformation selection (6-way softmax), three tiled
/// transformation heads (N x M, row-wise softmax), and an interchange
/// head (3N-6 enumerated candidates or N level pointers). In the flat
/// ablation a single flat head replaces all of them.
///
/// Each network has one forward (nn/Inference.h) and one explicit
/// backward (nn/Backward.h) over the tape a recorded forward leaves.
/// The LSTM reads the observations' feature rows in the form the
/// featurizer writes them, nonzero entries only; a batch's rows are
/// gathered, never converted.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_POLICYNET_H
#define MLIRRL_RL_POLICYNET_H

#include "env/Environment.h"
#include "nn/Inference.h"
#include "nn/Lstm.h"

namespace mlirrl {

/// Network width configuration. Paper defaults: LSTM(512) and three
/// Dense(512) backbone layers; benches use narrower nets for
/// laptop-scale runs (the architecture is unchanged).
struct NetConfig {
  unsigned LstmHidden = 512;
  unsigned BackboneHidden = 512;
  unsigned BackboneDepth = 3;
};

/// What a network forward records for its backward: the LSTM steps,
/// then the backbone's layer inputs and its output (the features).
template <typename T> struct TrunkTape {
  std::vector<nn::LstmStep<T>> Lstm;
  std::vector<nn::Mat<T>> Backbone;
};

/// The actor.
class PolicyNet {
public:
  PolicyNet(const EnvConfig &Env, unsigned FeatureSize, NetConfig Net,
            Rng &Rng);

  /// Head logits, one row per observation of a batch. Every head is one
  /// linear layer over the shared backbone features, so a B-observation
  /// batch costs one GEMM per layer instead of B GEMVs. Rows are
  /// independent: row r is bitwise the logits of a batch of observation
  /// r alone.
  template <typename T> struct Logits {
    nn::Mat<T> Transform;          // B x 6
    std::vector<nn::Mat<T>> Tile;  // 3 heads, each B x (N*M)
    nn::Mat<T> Interchange;        // B x interchangeHeadSize
    nn::Mat<T> Flat;               // flat mode only
  };

  /// The forward pass over the batch's gathered producer and consumer
  /// rows. \p Params holds one pointer per tensor of parameters(), in
  /// order: the tensors' own values or a packed float copy. \p Tape,
  /// when given, records what backward() reads.
  template <typename T>
  Logits<T> forwardLogits(const SparseRows &Producer,
                          const SparseRows &Consumer,
                          const std::vector<const T *> &Params,
                          TrunkTape<T> *Tape = nullptr) const;

  /// Accumulates into the parameters' gradients the backward of a
  /// recorded forwardLogits (on the parameters' own values), given the
  /// gradient of every head's logits. A head whose gradient is empty
  /// (0 rows) took no part in the loss.
  void backward(const TrunkTape<double> &Tape,
                const Logits<double> &DLogits) const;

  /// The tile head index for a tiled transformation kind (0..2).
  static unsigned tileHeadIndex(TransformKind Kind);

  std::vector<nn::Tensor> parameters() const;

  const EnvConfig &getEnvConfig() const { return Env; }

  /// Gathers one feature row field across the batch into the rows the
  /// LSTM gates read, copying each row's entries so the result owns
  /// them (a recorded forward's tape points into it).
  SparseRows gatherRows(const std::vector<const Observation *> &Batch,
                        const SparseRow Observation::*Field) const;

private:
  EnvConfig Env;
  ActionSpaceInfo Space;
  nn::LstmCell Lstm;
  nn::Mlp Backbone;
  nn::Linear TransformHead;
  std::vector<nn::Linear> TileHeads;
  nn::Linear InterchangeHead;
  nn::Linear FlatHead;
  bool FlatMode;
};

/// The critic: identical embedding + backbone, scalar value head
/// (Sec. V-B).
class ValueNet {
public:
  ValueNet(const EnvConfig &Env, unsigned FeatureSize, NetConfig Net,
           Rng &Rng);

  /// Value estimates [B x 1] from the batch's gathered producer and
  /// consumer rows. \p Tape, when given, records what backward() reads.
  nn::Mat<double> forwardValues(const SparseRows &Producer,
                                const SparseRows &Consumer,
                                TrunkTape<double> *Tape = nullptr) const;

  /// Accumulates into the parameters' gradients the backward of a
  /// recorded forwardValues, given the values' gradients (one per row).
  void backward(const TrunkTape<double> &Tape, const double *DValues) const;

  std::vector<nn::Tensor> parameters() const;

private:
  nn::LstmCell Lstm;
  nn::Mlp Backbone;
  nn::Linear Head;
};

} // namespace mlirrl

#endif // MLIRRL_RL_POLICYNET_H
