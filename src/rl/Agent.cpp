//===- Agent.cpp ----------------------------------------------------------===//

#include "rl/Agent.h"

#include "nn/Distributions.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// Packs one mask field of every observation into a [BxN] tensor.
Tensor packMaskRows(const std::vector<const Observation *> &Batch,
                    const std::vector<double> Observation::*Field) {
  unsigned B = static_cast<unsigned>(Batch.size());
  unsigned N = static_cast<unsigned>((Batch.front()->*Field).size());
  std::vector<double> Packed;
  Packed.reserve(static_cast<size_t>(B) * N);
  for (const Observation *Obs : Batch) {
    const std::vector<double> &Row = Obs->*Field;
    assert(Row.size() == N && "ragged mask batch");
    Packed.insert(Packed.end(), Row.begin(), Row.end());
  }
  return Tensor::fromData(B, N, std::move(Packed));
}

/// The one action-space traversal, over plain head logits: forced
/// pointer continuations, then kind, then the active parameter head
/// level by level. Row r draws only from *Rngs[r], in the same order
/// act() draws for that observation, so element r of the result is
/// bitwise act(*Batch[r], *Rngs[r], Greedy) for any batch width.
template <typename T>
std::vector<ActorCritic::Sampled>
chooseActions(const EnvConfig &Env, const PolicyNet::Logits<T> &Logits,
              const std::vector<const Observation *> &Batch,
              const std::vector<Rng *> &Rngs, bool Greedy) {
  std::vector<ActorCritic::Sampled> Out(Batch.size());
  std::vector<T> LogProbs; // one head row's log-softmax
  for (size_t R = 0; R < Batch.size(); ++R) {
    const Observation &Obs = *Batch[R];
    AgentAction &Action = Out[R].Action;
    // Picks from one logits row under its mask (null: none) and adds the
    // choice's log-probability to the step's.
    auto Choose = [&](const T *Row, unsigned N,
                      const std::vector<double> *Mask) {
      assert((!Mask || Mask->size() == N) && "mask width mismatch");
      assert((!Mask || std::any_of(Mask->begin(), Mask->end(),
                                   [](double V) { return V != 0.0; })) &&
             "drawing from a fully-masked row");
      LogProbs.resize(N);
      logSoftmaxRow(Row, Mask ? Mask->data() : nullptr, N, LogProbs.data());
      unsigned Choice = Greedy ? argmaxRow(LogProbs.data(), N)
                               : sampleRow(LogProbs.data(), N, *Rngs[R]);
      Out[R].LogProb += LogProbs[Choice];
      return Choice;
    };

    if (Env.ActionSpace == ActionSpaceMode::Flat) {
      Action.FlatChoice =
          Choose(Logits.Flat.row(R), Logits.Flat.Cols, &Obs.FlatMask);
      continue;
    }
    Action.FlatChoice = static_cast<unsigned>(-1); // unsampled (as act())
    auto ChooseInterchange = [&] {
      return Choose(Logits.Interchange.row(R), Logits.Interchange.Cols,
                    &Obs.InterchangeMask);
    };
    if (Obs.InPointerSequence) {
      Action.Kind = TransformKind::Interchange;
      Action.PointerChoice = ChooseInterchange();
      continue;
    }

    Action.Kind = static_cast<TransformKind>(Choose(
        Logits.Transform.row(R), Logits.Transform.Cols, &Obs.TransformMask));
    switch (Action.Kind) {
    case TransformKind::Tiling:
    case TransformKind::TiledParallelization:
    case TransformKind::TiledFusion: {
      const Mat<T> &Head = Logits.Tile[PolicyNet::tileHeadIndex(Action.Kind)];
      Action.TileSizeIdx.assign(Env.MaxLoops, 0);
      unsigned Levels = std::min(Obs.NumLoops, Env.MaxLoops);
      for (unsigned L = 0; L < Levels; ++L)
        Action.TileSizeIdx[L] = Choose(Head.row(R) + L * Env.NumTileSizes,
                                       Env.NumTileSizes, nullptr);
      break;
    }
    case TransformKind::Interchange: {
      unsigned Choice = ChooseInterchange();
      if (Env.Interchange == InterchangeMode::LevelPointers)
        Action.PointerChoice = Choice;
      else
        Action.EnumeratedChoice = Choice;
      break;
    }
    case TransformKind::Vectorization:
    case TransformKind::NoTransformation:
      break;
    }
  }
  return Out;
}

/// Lazily constructed per-(head, level) batched tile distributions: a
/// distribution is only built when some row of the batch actually uses
/// that head and level.
class TileDistCache {
public:
  TileDistCache(const PolicyNet &Policy, const PolicyNet::Heads &Heads,
                unsigned MaxLoops)
      : Policy(Policy), Heads(Heads), Dists(3 * MaxLoops), MaxLoops(MaxLoops) {}

  BatchedMaskedCategorical &get(unsigned HeadIdx, unsigned Level) {
    std::optional<BatchedMaskedCategorical> &Slot =
        Dists[HeadIdx * MaxLoops + Level];
    if (!Slot)
      Slot.emplace(Policy.tileRow(Heads, HeadIdx, Level));
    return *Slot;
  }

private:
  const PolicyNet &Policy;
  const PolicyNet::Heads &Heads;
  std::vector<std::optional<BatchedMaskedCategorical>> Dists;
  unsigned MaxLoops;
};

} // namespace

ActorCritic::ActorCritic(const EnvConfig &Env, unsigned FeatureSize,
                         NetConfig Net, uint64_t Seed)
    : Env(Env), Policy([&] {
        Rng InitRng(Seed);
        return PolicyNet(Env, FeatureSize, Net, InitRng);
      }()),
      Value([&] {
        Rng InitRng(Seed ^ 0x9e3779b97f4a7c15ull);
        return ValueNet(Env, FeatureSize, Net, InitRng);
      }()) {}

ActorCritic::Sampled ActorCritic::act(const Observation &Obs, Rng &Rng,
                                      bool Greedy) const {
  // A batch of one: there is exactly one action-space traversal to keep
  // correct (actBatch / evaluateBatch), and the width-1 batch takes the
  // same kernel paths, so this is the batched path's own bitwise
  // contract applied to itself.
  return actBatch({&Obs}, {&Rng}, Greedy).front();
}

ActorCritic::Evaluation
ActorCritic::evaluate(const Observation &Obs,
                      const AgentAction &Action) const {
  BatchEvaluation Batch = evaluateBatch({&Obs}, {&Action});
  return Evaluation{Batch.LogProb, Batch.Entropy, Batch.Value};
}

std::vector<ActorCritic::Sampled>
ActorCritic::actBatch(const std::vector<const Observation *> &Batch,
                      const std::vector<Rng *> &Rngs, bool Greedy) const {
  assert(!Batch.empty() && Batch.size() == Rngs.size() &&
         "one RNG stream per observation");
  // Compressed once for the actor and the critic.
  std::shared_ptr<const SparseRows> Producer =
      PolicyNet::compressRows(Batch, &Observation::Producer);
  std::shared_ptr<const SparseRows> Consumer =
      PolicyNet::compressRows(Batch, &Observation::Consumer);
  // Greedy inference consumes no RNG draws and no critic values, so the
  // whole forward pass can run in float.
  if (Greedy && Inference == InferenceDtype::F32) {
    std::shared_ptr<const PackedF32> Packed = packedPolicy();
    return chooseActions(
        Env, Policy.forwardLogits(*Producer, *Consumer, Packed->values()),
        Batch, Rngs, Greedy);
  }
  std::vector<Sampled> Out = chooseActions(
      Env,
      Policy.forwardLogits(*Producer, *Consumer,
                           valuesOf(Policy.parameters())),
      Batch, Rngs, Greedy);
  // Rollouts store the critic's baseline; greedy (deployment) inference
  // only consumes the actions.
  if (!Greedy) {
    Mat<double> Values = Value.forwardValues(*Producer, *Consumer);
    for (size_t R = 0; R < Out.size(); ++R)
      Out[R].Value = Values.at(static_cast<unsigned>(R), 0);
  }
  return Out;
}

void ActorCritic::setInferenceDtype(InferenceDtype Dtype) {
  Inference = Dtype;
  invalidateInferenceCache();
}

void ActorCritic::invalidateInferenceCache() {
  // Bump the version before dropping the snapshot: a packedPolicy()
  // call that is mid-rebuild under PackLock right now will re-read the
  // version after it finishes packing, see the bump, and repack --
  // without the stamp it would publish (and cache) the pack it built
  // from the pre-mutation parameters.
  ParamVersion.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(PackLock);
  Packed.reset();
  PackedVersion = 0;
}

std::shared_ptr<const PackedF32> ActorCritic::packedPolicy() const {
  std::lock_guard<std::mutex> Lock(PackLock);
  for (;;) {
    uint64_t Version = ParamVersion.load(std::memory_order_acquire);
    if (Packed && PackedVersion == Version)
      return Packed;
    Packed = std::make_shared<const PackedF32>(Policy.parameters());
    PackedVersion = Version;
    // Loop to recheck: if an invalidation bumped the version while we
    // packed, the pack may predate the newest parameters -- rebuild.
  }
}

ActorCritic::BatchEvaluation
ActorCritic::evaluateBatch(const std::vector<const Observation *> &Obs,
                           const std::vector<const AgentAction *> &Actions) const {
  assert(!Obs.empty() && Obs.size() == Actions.size() &&
         "one action per observation");
  unsigned B = static_cast<unsigned>(Obs.size());
  PolicyNet::Heads Heads = Policy.forward(Obs);

  std::vector<Tensor> LogProbTerms; // each B x 1
  std::vector<Tensor> EntropyTerms; // each B x 1

  /// Entropy of a head only regularizes rows for which the head is
  /// active; an exact 0/1 row indicator zeroes the others (values and
  /// gradients both).
  auto MaskedEntropy = [B](const BatchedMaskedCategorical &Dist,
                           const std::vector<double> &Active) {
    return hadamard(Dist.entropyRows(),
                    Tensor::fromData(B, 1, Active));
  };

  if (Env.ActionSpace == ActionSpaceMode::Flat) {
    BatchedMaskedCategorical Dist(Heads.FlatLogits,
                                  packMaskRows(Obs, &Observation::FlatMask));
    std::vector<int> Cols(B);
    for (unsigned R = 0; R < B; ++R)
      Cols[R] = static_cast<int>(Actions[R]->FlatChoice);
    LogProbTerms.push_back(Dist.logProbRows(Cols));
    EntropyTerms.push_back(Dist.entropyRows());
  } else {
    // Transformation-selection head: every row except forced pointer
    // continuations.
    BatchedMaskedCategorical KindDist(
        Heads.TransformLogits, packMaskRows(Obs, &Observation::TransformMask));
    std::vector<int> KindCols(B);
    std::vector<double> KindActive(B);
    for (unsigned R = 0; R < B; ++R) {
      bool Active = !Obs[R]->InPointerSequence;
      KindActive[R] = Active ? 1.0 : 0.0;
      KindCols[R] = Active ? static_cast<int>(Actions[R]->Kind) : -1;
    }
    LogProbTerms.push_back(KindDist.logProbRows(KindCols));
    EntropyTerms.push_back(MaskedEntropy(KindDist, KindActive));

    // Tile heads, level by level; a (head, level) pair no row uses
    // costs nothing.
    TileDistCache TileDists(Policy, Heads, Env.MaxLoops);
    for (unsigned HeadIdx = 0; HeadIdx < 3; ++HeadIdx) {
      for (unsigned L = 0; L < Env.MaxLoops; ++L) {
        std::vector<int> Cols(B, -1);
        std::vector<double> Active(B, 0.0);
        bool Any = false;
        for (unsigned R = 0; R < B; ++R) {
          const AgentAction &A = *Actions[R];
          if (Obs[R]->InPointerSequence ||
              (A.Kind != TransformKind::Tiling &&
               A.Kind != TransformKind::TiledParallelization &&
               A.Kind != TransformKind::TiledFusion) ||
              PolicyNet::tileHeadIndex(A.Kind) != HeadIdx)
            continue;
          if (L >= std::min(Obs[R]->NumLoops, Env.MaxLoops))
            continue;
          Cols[R] = L < A.TileSizeIdx.size()
                        ? static_cast<int>(A.TileSizeIdx[L])
                        : 0;
          Active[R] = 1.0;
          Any = true;
        }
        if (!Any)
          continue;
        BatchedMaskedCategorical &Dist = TileDists.get(HeadIdx, L);
        LogProbTerms.push_back(Dist.logProbRows(Cols));
        EntropyTerms.push_back(MaskedEntropy(Dist, Active));
      }
    }

    // Interchange head: pointer continuations plus interchange actions.
    std::vector<int> InterCols(B, -1);
    std::vector<double> InterActive(B, 0.0);
    bool AnyInter = false;
    for (unsigned R = 0; R < B; ++R) {
      const AgentAction &A = *Actions[R];
      if (!Obs[R]->InPointerSequence &&
          A.Kind != TransformKind::Interchange)
        continue;
      bool Pointer = Obs[R]->InPointerSequence ||
                     Env.Interchange == InterchangeMode::LevelPointers;
      InterCols[R] = static_cast<int>(Pointer ? A.PointerChoice
                                              : A.EnumeratedChoice);
      InterActive[R] = 1.0;
      AnyInter = true;
    }
    if (AnyInter) {
      BatchedMaskedCategorical InterDist(
          Heads.InterchangeLogits,
          packMaskRows(Obs, &Observation::InterchangeMask));
      LogProbTerms.push_back(InterDist.logProbRows(InterCols));
      EntropyTerms.push_back(MaskedEntropy(InterDist, InterActive));
    }
  }

  BatchEvaluation Eval;
  Eval.LogProb = LogProbTerms.front();
  for (size_t I = 1; I < LogProbTerms.size(); ++I)
    Eval.LogProb = add(Eval.LogProb, LogProbTerms[I]);
  Eval.Entropy = EntropyTerms.front();
  for (size_t I = 1; I < EntropyTerms.size(); ++I)
    Eval.Entropy = add(Eval.Entropy, EntropyTerms[I]);
  Eval.Value = Value.forward(Obs);
  return Eval;
}

std::vector<Tensor> ActorCritic::parameters() const {
  std::vector<Tensor> Params = Policy.parameters();
  std::vector<Tensor> V = Value.parameters();
  Params.insert(Params.end(), V.begin(), V.end());
  return Params;
}
