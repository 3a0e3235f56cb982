//===- PolicyNet.cpp ------------------------------------------------------===//

#include "rl/PolicyNet.h"

#include "support/Error.h"

#include <cassert>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// Hands out a parameter list's (weight, bias) pairs in parameters()
/// order, shaped by the layer that owns them.
template <typename T> class WeightCursor {
public:
  explicit WeightCursor(const std::vector<const T *> &Params)
      : Params(Params) {}

  LinearWeights<T> next(unsigned In, unsigned Out) {
    assert(Next + 2 <= Params.size() && "parameter list too short");
    LinearWeights<T> L{Params[Next], Params[Next + 1], In, Out};
    Next += 2;
    return L;
  }
  LinearWeights<T> next(const Linear &L) {
    return next(L.inFeatures(), L.outFeatures());
  }
  bool done() const { return Next == Params.size(); }

private:
  const std::vector<const T *> &Params;
  size_t Next = 0;
};

/// The trunk both networks share: the producer-consumer LSTM embedding
/// (Sec. V-A1), then the ReLU backbone.
template <typename T>
Mat<T> trunkForward(const LstmCell &Lstm, const Mlp &Backbone,
                    WeightCursor<T> &Weights, const SparseRows &Producer,
                    const SparseRows &Consumer) {
  // Gate widths come from the cell, not the data, so lstmForward's shape
  // assert checks the feature width against the weights.
  const unsigned Hidden = Lstm.hiddenSize();
  const unsigned In = Lstm.inputSize() + Hidden;
  // Braced initializers are evaluated in order: the gates' order in
  // LstmCell::parameters().
  LstmWeights<T> Gates{Weights.next(In, Hidden), Weights.next(In, Hidden),
                       Weights.next(In, Hidden), Weights.next(In, Hidden)};
  std::vector<LinearWeights<T>> Layers;
  for (const Linear &L : Backbone.layers())
    Layers.push_back(Weights.next(L));
  return mlpForward(lstmForward<T>({&Producer, &Consumer}, Gates), Layers);
}

} // namespace

PolicyNet::PolicyNet(const EnvConfig &Env, unsigned FeatureSize,
                     NetConfig Net, Rng &Rng)
    : Env(Env), Space(Env), Lstm(FeatureSize, Net.LstmHidden, Rng),
      Backbone(Net.LstmHidden, Net.BackboneHidden, Net.BackboneDepth, Rng),
      TransformHead(Net.BackboneHidden, NumTransformKinds, Rng),
      InterchangeHead(Net.BackboneHidden, Space.interchangeHeadSize(), Rng),
      FlatHead(Net.BackboneHidden,
               static_cast<unsigned>(buildFlatActionList(Env).size()), Rng),
      FlatMode(Env.ActionSpace == ActionSpaceMode::Flat) {
  for (unsigned I = 0; I < 3; ++I)
    TileHeads.emplace_back(Net.BackboneHidden,
                           Env.MaxLoops * Env.NumTileSizes, Rng);
}

/// Compresses one observation field across the batch (feature rows are
/// ~97% zeros; every LSTM gate then touches only the nonzeros).
std::shared_ptr<const SparseRows>
PolicyNet::compressRows(const std::vector<const Observation *> &Batch,
                        const std::vector<double> Observation::*Field) {
  std::vector<const std::vector<double> *> Sources;
  Sources.reserve(Batch.size());
  for (const Observation *Obs : Batch)
    Sources.push_back(&(Obs->*Field));
  return std::make_shared<const SparseRows>(SparseRows::fromRows(Sources));
}

Tensor PolicyNet::embed(const std::vector<const Observation *> &Batch) const {
  // Producer first, consumer second; the final hidden state is the
  // producer-consumer embedding (Sec. V-A1). The whole batch advances
  // through the LSTM in lockstep, one GEMM per gate per step.
  return Lstm.runSequenceSparse({compressRows(Batch, &Observation::Producer),
                                 compressRows(Batch, &Observation::Consumer)});
}

PolicyNet::Heads
PolicyNet::forward(const std::vector<const Observation *> &Batch) const {
  assert(!Batch.empty() && "empty observation batch");
  Tensor Features = Backbone.forward(embed(Batch));
  Heads H;
  if (FlatMode) {
    H.FlatLogits = FlatHead.forward(Features);
    return H;
  }
  H.TransformLogits = TransformHead.forward(Features);
  for (const Linear &Head : TileHeads)
    H.TileLogits.push_back(Head.forward(Features));
  H.InterchangeLogits = InterchangeHead.forward(Features);
  return H;
}

template <typename T>
PolicyNet::Logits<T>
PolicyNet::forwardLogits(const SparseRows &Producer, const SparseRows &Consumer,
                         const std::vector<const T *> &Params) const {
  WeightCursor<T> Weights(Params);
  Mat<T> Features =
      trunkForward(Lstm, Backbone, Weights, Producer, Consumer);
  Logits<T> Out;
  if (FlatMode) {
    Out.Flat = linearForward(Features, Weights.next(FlatHead));
  } else {
    Out.Transform = linearForward(Features, Weights.next(TransformHead));
    for (const Linear &Head : TileHeads)
      Out.Tile.push_back(linearForward(Features, Weights.next(Head)));
    Out.Interchange = linearForward(Features, Weights.next(InterchangeHead));
  }
  assert(Weights.done() && "parameter list does not match the network");
  return Out;
}

template PolicyNet::Logits<double>
PolicyNet::forwardLogits(const SparseRows &, const SparseRows &,
                         const std::vector<const double *> &) const;
template PolicyNet::Logits<float>
PolicyNet::forwardLogits(const SparseRows &, const SparseRows &,
                         const std::vector<const float *> &) const;

unsigned PolicyNet::tileHeadIndex(TransformKind Kind) {
  switch (Kind) {
  case TransformKind::Tiling:
    return 0;
  case TransformKind::TiledParallelization:
    return 1;
  case TransformKind::TiledFusion:
    return 2;
  default:
    MLIRRL_UNREACHABLE("not a tiled transformation");
  }
}

Tensor PolicyNet::tileRow(const Heads &H, unsigned HeadIdx,
                          unsigned Level) const {
  return sliceCols(H.TileLogits.at(HeadIdx), Level * Env.NumTileSizes,
                   Env.NumTileSizes);
}

std::vector<Tensor> PolicyNet::parameters() const {
  std::vector<Tensor> Params = Lstm.parameters();
  auto Append = [&Params](const std::vector<Tensor> &More) {
    Params.insert(Params.end(), More.begin(), More.end());
  };
  Append(Backbone.parameters());
  if (FlatMode) {
    Append(FlatHead.parameters());
    return Params;
  }
  Append(TransformHead.parameters());
  for (const Linear &Head : TileHeads)
    Append(Head.parameters());
  Append(InterchangeHead.parameters());
  return Params;
}

ValueNet::ValueNet(const EnvConfig &Env, unsigned FeatureSize, NetConfig Net,
                   Rng &Rng)
    : Lstm(FeatureSize, Net.LstmHidden, Rng),
      Backbone(Net.LstmHidden, Net.BackboneHidden, Net.BackboneDepth, Rng),
      Head(Net.BackboneHidden, 1, Rng) {
  (void)Env;
}

Tensor ValueNet::forward(const std::vector<const Observation *> &Batch) const {
  assert(!Batch.empty() && "empty observation batch");
  Tensor Embedding = Lstm.runSequenceSparse(
      {PolicyNet::compressRows(Batch, &Observation::Producer),
       PolicyNet::compressRows(Batch, &Observation::Consumer)});
  return Head.forward(Backbone.forward(Embedding));
}

Mat<double> ValueNet::forwardValues(const SparseRows &Producer,
                                    const SparseRows &Consumer) const {
  std::vector<const double *> Params = valuesOf(parameters());
  WeightCursor<double> Weights(Params);
  Mat<double> Features =
      trunkForward(Lstm, Backbone, Weights, Producer, Consumer);
  return linearForward(Features, Weights.next(Head));
}

std::vector<Tensor> ValueNet::parameters() const {
  std::vector<Tensor> Params = Lstm.parameters();
  std::vector<Tensor> B = Backbone.parameters();
  Params.insert(Params.end(), B.begin(), B.end());
  std::vector<Tensor> H = Head.parameters();
  Params.insert(Params.end(), H.begin(), H.end());
  return Params;
}
