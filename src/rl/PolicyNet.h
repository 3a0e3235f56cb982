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

/// The actor.
class PolicyNet {
public:
  PolicyNet(const EnvConfig &Env, unsigned FeatureSize, NetConfig Net,
            Rng &Rng);

  /// All head logits for a batch of observations, one row per
  /// observation (graph-alive tensors). Every head is one fused linear
  /// over the shared backbone features, so a B-observation batch costs
  /// one GEMM per layer instead of B GEMVs. Rows are independent: row r
  /// is bitwise-identical to forward({&Obs_r}) (the blocked GEMM
  /// accumulates each output element in the same K order for every
  /// batch size).
  struct Heads {
    nn::Tensor TransformLogits;               // B x 6
    std::vector<nn::Tensor> TileLogits;       // 3 heads, each B x (N*M)
    nn::Tensor InterchangeLogits;             // B x interchangeHeadSize
    nn::Tensor FlatLogits;                    // flat mode only
  };

  Heads forward(const std::vector<const Observation *> &Batch) const;

  /// Single-observation convenience: a batch of one.
  Heads forward(const Observation &Obs) const { return forward({&Obs}); }

  /// Head logits of the graph-free forward pass (the rollouts' policy).
  template <typename T> struct Logits {
    nn::Mat<T> Transform;
    std::vector<nn::Mat<T>> Tile;
    nn::Mat<T> Interchange;
    nn::Mat<T> Flat;
  };

  /// forward() without a graph, on the batch's compressed producer and
  /// consumer rows. \p Params holds one pointer per tensor of
  /// parameters(), in order: the tensors' own values (the double
  /// instantiation is then bitwise forward()) or a packed float copy.
  template <typename T>
  Logits<T> forwardLogits(const nn::SparseRows &Producer,
                          const nn::SparseRows &Consumer,
                          const std::vector<const T *> &Params) const;

  /// The tile head index for a tiled transformation kind (0..2).
  static unsigned tileHeadIndex(TransformKind Kind);

  /// Carves the per-level logits block [B x M] out of a tile head.
  nn::Tensor tileRow(const Heads &H, unsigned HeadIdx, unsigned Level) const;

  std::vector<nn::Tensor> parameters() const;

  const EnvConfig &getEnvConfig() const { return Env; }

  /// Compresses one observation field across the batch into the sparse
  /// form the LSTM gates consume.
  static std::shared_ptr<const nn::SparseRows>
  compressRows(const std::vector<const Observation *> &Batch,
               const std::vector<double> Observation::*Field);

private:
  nn::Tensor embed(const std::vector<const Observation *> &Batch) const;

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

  /// Batched value estimates [B x 1], one row per observation.
  nn::Tensor forward(const std::vector<const Observation *> &Batch) const;
  nn::Tensor forward(const Observation &Obs) const { return forward({&Obs}); }

  /// forward() without a graph, bitwise: [B x 1] values from the batch's
  /// compressed producer and consumer rows.
  nn::Mat<double> forwardValues(const nn::SparseRows &Producer,
                                const nn::SparseRows &Consumer) const;

  std::vector<nn::Tensor> parameters() const;

private:
  nn::LstmCell Lstm;
  nn::Mlp Backbone;
  nn::Linear Head;
};

} // namespace mlirrl

#endif // MLIRRL_RL_POLICYNET_H
