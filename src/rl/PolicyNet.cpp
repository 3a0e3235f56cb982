//===- PolicyNet.cpp ------------------------------------------------------===//

#include "rl/PolicyNet.h"

#include "nn/Backward.h"
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
                    const SparseRows &Consumer, TrunkTape<T> *Tape) {
  // Gate widths come from the cell, not the data; gatherRows checks
  // every row's columns against the cell's input width.
  const unsigned Hidden = Lstm.hiddenSize();
  const unsigned In = Lstm.inputSize() + Hidden;
  // Braced initializers are evaluated in order: the gates' order in
  // LstmCell::parameters().
  LstmWeights<T> Gates{Weights.next(In, Hidden), Weights.next(In, Hidden),
                       Weights.next(In, Hidden), Weights.next(In, Hidden)};
  std::vector<LinearWeights<T>> Layers;
  for (const Linear &L : Backbone.layers())
    Layers.push_back(Weights.next(L));
  return mlpForward(lstmForward<T>({&Producer, &Consumer}, Gates,
                                   Tape ? &Tape->Lstm : nullptr),
                    Layers, Tape ? &Tape->Backbone : nullptr);
}

/// The backward of a network from its heads' logits gradients, given as
/// (head, gradient) pairs in parameters() order; a head with an empty
/// gradient took no part. The features' gradient sums the heads' in the
/// reverse order, then flows through the backbone and the LSTM.
void networkBackward(
    const LstmCell &Lstm, const Mlp &Backbone, const TrunkTape<double> &Tape,
    const std::vector<std::pair<const Linear *, const double *>> &Heads) {
  const Mat<double> &Features = Tape.Backbone.back();
  Mat<double> DFeatures(Features.Rows, Features.Cols);
  for (size_t H = Heads.size(); H-- > 0;)
    if (Heads[H].second)
      linearBackward(Features.Rows, Features.Data.data(), Heads[H].second,
                     *Heads[H].first, DFeatures.Data.data());
  lstmBackward(Tape.Lstm,
               mlpBackward(Tape.Backbone, std::move(DFeatures), Backbone),
               Lstm);
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

SparseRows
PolicyNet::gatherRows(const std::vector<const Observation *> &Batch,
                      const SparseRow Observation::*Field) const {
  SparseRows X;
  X.Rows = static_cast<unsigned>(Batch.size());
  X.Cols = Lstm.inputSize();
  X.RowEntries.reserve(Batch.size());
  for (const Observation *Obs : Batch) {
    const SparseRow &Row = Obs->*Field;
    assert((Row.empty() || Row.back().Col < X.Cols) &&
           "feature row wider than the LSTM input");
    X.RowEntries.push_back(Row);
  }
  return X;
}

template <typename T>
PolicyNet::Logits<T>
PolicyNet::forwardLogits(const SparseRows &Producer, const SparseRows &Consumer,
                         const std::vector<const T *> &Params,
                         TrunkTape<T> *Tape) const {
  WeightCursor<T> Weights(Params);
  Mat<T> Features =
      trunkForward(Lstm, Backbone, Weights, Producer, Consumer, Tape);
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
                         const std::vector<const double *> &,
                         TrunkTape<double> *) const;
template PolicyNet::Logits<float>
PolicyNet::forwardLogits(const SparseRows &, const SparseRows &,
                         const std::vector<const float *> &,
                         TrunkTape<float> *) const;

void PolicyNet::backward(const TrunkTape<double> &Tape,
                         const Logits<double> &DLogits) const {
  auto Head = [](const Linear &L, const Mat<double> &D) {
    return std::pair(&L, D.Rows ? D.Data.data() : nullptr);
  };
  std::vector<std::pair<const Linear *, const double *>> Heads;
  if (FlatMode) {
    Heads.push_back(Head(FlatHead, DLogits.Flat));
  } else {
    Heads.push_back(Head(TransformHead, DLogits.Transform));
    for (unsigned H = 0; H < TileHeads.size(); ++H)
      Heads.push_back(Head(TileHeads[H], DLogits.Tile[H]));
    Heads.push_back(Head(InterchangeHead, DLogits.Interchange));
  }
  networkBackward(Lstm, Backbone, Tape, Heads);
}

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

Mat<double> ValueNet::forwardValues(const SparseRows &Producer,
                                    const SparseRows &Consumer,
                                    TrunkTape<double> *Tape) const {
  std::vector<const double *> Params = valuesOf(parameters());
  WeightCursor<double> Weights(Params);
  Mat<double> Features =
      trunkForward(Lstm, Backbone, Weights, Producer, Consumer, Tape);
  return linearForward(Features, Weights.next(Head));
}

void ValueNet::backward(const TrunkTape<double> &Tape,
                        const double *DValues) const {
  networkBackward(Lstm, Backbone, Tape, {{&Head, DValues}});
}

std::vector<Tensor> ValueNet::parameters() const {
  std::vector<Tensor> Params = Lstm.parameters();
  std::vector<Tensor> B = Backbone.parameters();
  Params.insert(Params.end(), B.begin(), B.end());
  std::vector<Tensor> H = Head.parameters();
  Params.insert(Params.end(), H.begin(), H.end());
  return Params;
}
