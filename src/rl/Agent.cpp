//===- Agent.cpp ----------------------------------------------------------===//

#include "rl/Agent.h"

#include "nn/Backward.h"
#include "nn/Gemm.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

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

/// One masked categorical a minibatch's actions draw from: a block of
/// one head's logits, and per row the picked column (-1: the row does
/// not use the head). In the multi-discrete space a 0/1 row indicator
/// restricts the entropy regularizer to the rows that use the head.
struct HeadTerm {
  enum Kind { Transform, Tile, Interchange, Flat } Head = Transform;
  unsigned TileHead = 0;
  /// The block's columns within the head (0 wide: the whole head).
  unsigned Col0 = 0, Cols = 0;
  std::vector<const double *> Masks;
  std::vector<int> Picks;
  std::vector<double> Active;
  Mat<double> LogP, DLogits;

  template <typename L> auto &headOf(L &Logits) const {
    return Head == Transform     ? Logits.Transform
           : Head == Tile        ? Logits.Tile[TileHead]
           : Head == Interchange ? Logits.Interchange
                                 : Logits.Flat;
  }
};

/// What a minibatch evaluation's backward reads: the gathered feature
/// rows both tapes point into, both networks' tapes, the head
/// terms, the heads' logits gradients and the values' gradients, and
/// which networks the loss reached. The evaluation's graph nodes own
/// it, so it lives exactly as long as the minibatch's graph.
struct EvaluationTape {
  SparseRows Producer, Consumer;
  TrunkTape<double> Policy, Value;
  std::vector<HeadTerm> Terms;
  PolicyNet::Logits<double> DLogits;
  std::vector<double> DValues;
  bool PolicyReached = false, ValueReached = false;
};

/// Runs \p First and \p Second as two tasks on the installed update
/// pool, or one after the other without one. They must share no
/// mutable state; a GEMM inside either splits over the same pool, whose
/// nested parallelFor the calling thread drains.
template <typename FirstFn, typename SecondFn>
void sideBySide(const FirstFn &First, const SecondFn &Second) {
  if (ThreadPool *Pool = getGemmPool()) {
    Pool->parallelFor(2, [&](size_t Task) { Task == 0 ? First() : Second(); });
    return;
  }
  First();
  Second();
}

/// The terms of a minibatch's log-probabilities, in summation order:
/// the flat head alone, or the kind head, then every (tile head, level)
/// some row used, then the interchange head if some row used it.
std::vector<HeadTerm>
headTerms(const EnvConfig &Env, const std::vector<const Observation *> &Obs,
          const std::vector<const AgentAction *> &Actions) {
  const unsigned B = static_cast<unsigned>(Obs.size());
  auto Term = [&](HeadTerm::Kind Head,
                  const std::vector<double> Observation::*Mask) {
    HeadTerm T;
    T.Head = Head;
    if (Mask)
      for (const Observation *O : Obs)
        T.Masks.push_back((O->*Mask).data());
    T.Picks.assign(B, -1);
    if (Head != HeadTerm::Flat)
      T.Active.assign(B, 0.0);
    return T;
  };
  auto Use = [](HeadTerm &T, unsigned R, unsigned Pick) {
    T.Picks[R] = static_cast<int>(Pick);
    T.Active[R] = 1.0;
  };
  auto Used = [](const HeadTerm &T) {
    return std::find(T.Active.begin(), T.Active.end(), 1.0) != T.Active.end();
  };
  if (Env.ActionSpace == ActionSpaceMode::Flat) {
    HeadTerm Flat = Term(HeadTerm::Flat, &Observation::FlatMask);
    for (unsigned R = 0; R < B; ++R)
      Flat.Picks[R] = static_cast<int>(Actions[R]->FlatChoice);
    return {Flat};
  }

  // Transformation selection: every row except forced pointer
  // continuations.
  std::vector<HeadTerm> Terms = {
      Term(HeadTerm::Transform, &Observation::TransformMask)};
  for (unsigned R = 0; R < B; ++R)
    if (!Obs[R]->InPointerSequence)
      Use(Terms[0], R, static_cast<unsigned>(Actions[R]->Kind));

  // Tile heads, level by level.
  for (unsigned HeadIdx = 0; HeadIdx < 3; ++HeadIdx) {
    for (unsigned L = 0; L < Env.MaxLoops; ++L) {
      HeadTerm T = Term(HeadTerm::Tile, nullptr);
      T.TileHead = HeadIdx;
      T.Col0 = L * Env.NumTileSizes;
      T.Cols = Env.NumTileSizes;
      for (unsigned R = 0; R < B; ++R) {
        const AgentAction &A = *Actions[R];
        if (Obs[R]->InPointerSequence ||
            (A.Kind != TransformKind::Tiling &&
             A.Kind != TransformKind::TiledParallelization &&
             A.Kind != TransformKind::TiledFusion) ||
            PolicyNet::tileHeadIndex(A.Kind) != HeadIdx ||
            L >= std::min(Obs[R]->NumLoops, Env.MaxLoops))
          continue;
        Use(T, R, L < A.TileSizeIdx.size() ? A.TileSizeIdx[L] : 0);
      }
      if (Used(T))
        Terms.push_back(std::move(T));
    }
  }

  // Interchange: pointer continuations plus interchange actions.
  HeadTerm Inter = Term(HeadTerm::Interchange, &Observation::InterchangeMask);
  for (unsigned R = 0; R < B; ++R) {
    const AgentAction &A = *Actions[R];
    bool Pointer = Obs[R]->InPointerSequence ||
                   Env.Interchange == InterchangeMode::LevelPointers;
    if (Obs[R]->InPointerSequence || A.Kind == TransformKind::Interchange)
      Use(Inter, R, Pointer ? A.PointerChoice : A.EnumeratedChoice);
  }
  if (Used(Inter))
    Terms.push_back(std::move(Inter));
  return Terms;
}

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
  // correct (actBatch), and the width-1 batch takes the
  // same kernel paths, so this is the batched path's own bitwise
  // contract applied to itself.
  return actBatch({&Obs}, {&Rng}, Greedy).front();
}

std::vector<ActorCritic::Sampled>
ActorCritic::actBatch(const std::vector<const Observation *> &Batch,
                      const std::vector<Rng *> &Rngs, bool Greedy) const {
  assert(!Batch.empty() && Batch.size() == Rngs.size() &&
         "one RNG stream per observation");
  // Gathered once for the actor and the critic.
  const SparseRows Producer = Policy.gatherRows(Batch, &Observation::Producer);
  const SparseRows Consumer = Policy.gatherRows(Batch, &Observation::Consumer);
  // Greedy inference consumes no RNG draws and no critic values, so the
  // whole forward pass can run in float.
  if (Greedy && Inference == InferenceDtype::F32) {
    std::shared_ptr<const PackedF32> Packed = packedPolicy();
    return chooseActions(
        Env, Policy.forwardLogits(Producer, Consumer, Packed->values()),
        Batch, Rngs, Greedy);
  }
  std::vector<Sampled> Out = chooseActions(
      Env,
      Policy.forwardLogits(Producer, Consumer, valuesOf(Policy.parameters())),
      Batch, Rngs, Greedy);
  // Rollouts store the critic's baseline; greedy (deployment) inference
  // only consumes the actions.
  if (!Greedy) {
    Mat<double> Values = Value.forwardValues(Producer, Consumer);
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
  const unsigned B = static_cast<unsigned>(Obs.size());
  auto Tape = std::make_shared<EvaluationTape>();
  Tape->Producer = Policy.gatherRows(Obs, &Observation::Producer);
  Tape->Consumer = Policy.gatherRows(Obs, &Observation::Consumer);
  PolicyNet::Logits<double> Logits;
  Mat<double> Values;
  sideBySide(
      [&] {
        Logits = Policy.forwardLogits(Tape->Producer, Tape->Consumer,
                                      valuesOf(Policy.parameters()),
                                      &Tape->Policy);
      },
      [&] {
        Values =
            Value.forwardValues(Tape->Producer, Tape->Consumer, &Tape->Value);
      });

  // Every term's log-softmax; a row's log-probability and entropy sum
  // its terms in order (inactive rows add exact zeros).
  Tape->Terms = headTerms(Env, Obs, Actions);
  Tape->DLogits.Tile.resize(Logits.Tile.size());
  std::vector<double> LogProb(B), Entropy(B);
  for (size_t K = 0; K < Tape->Terms.size(); ++K) {
    HeadTerm &T = Tape->Terms[K];
    const Mat<double> &Head = T.headOf(Logits);
    if (T.Cols == 0)
      T.Cols = Head.Cols;
    Mat<double> Block(B, T.Cols);
    for (unsigned R = 0; R < B; ++R)
      std::copy_n(Head.row(R) + T.Col0, T.Cols, Block.row(R));
    T.LogP = logSoftmaxRows(Block, T.Masks);
    T.DLogits = Mat<double>(B, T.Cols);
    if (T.headOf(Tape->DLogits).Rows == 0)
      T.headOf(Tape->DLogits) = Mat<double>(B, Head.Cols);
    std::vector<double> RowEntropy = entropyRows(T.LogP);
    for (unsigned R = 0; R < B; ++R) {
      double Pick = T.Picks[R] < 0 ? 0.0 : T.LogP.row(R)[T.Picks[R]];
      double H = T.Active.empty() ? RowEntropy[R] : RowEntropy[R] * T.Active[R];
      LogProb[R] = K == 0 ? Pick : LogProb[R] + Pick;
      Entropy[R] = K == 0 ? H : Entropy[R] + H;
    }
  }

  // Four graph nodes, whatever the heads: the trunk over every
  // parameter, and its three per-row outputs. A row node's backward
  // fills its network's output gradients on the tape and marks the
  // network reached; the trunk's then runs the backward of each reached
  // network, both side by side when the loss reached both.
  Tensor Trunk = makeNode(1, 1, parameters(), "trunk");
  Trunk.node()->Backward = [this, Tape](TensorNode &) {
    auto PolicyBackward = [&] {
      for (const HeadTerm &T : Tape->Terms) {
        Mat<double> &Head = T.headOf(Tape->DLogits);
        for (unsigned R = 0; R < Head.Rows; ++R)
          for (unsigned J = 0; J < T.Cols; ++J)
            Head.row(R)[T.Col0 + J] += T.DLogits.row(R)[J];
      }
      Policy.backward(Tape->Policy, Tape->DLogits);
    };
    auto ValueBackward = [&] {
      Value.backward(Tape->Value, Tape->DValues.data());
    };
    if (Tape->PolicyReached && Tape->ValueReached)
      sideBySide(PolicyBackward, ValueBackward);
    else if (Tape->PolicyReached)
      PolicyBackward();
    else if (Tape->ValueReached)
      ValueBackward();
    // Another backward over this graph runs only what it reaches.
    Tape->PolicyReached = Tape->ValueReached = false;
  };
  auto RowNode = [&](const double *Rows, const char *Name) {
    Tensor Node = makeNode(B, 1, {Trunk}, Name);
    std::copy_n(Rows, B, Node.node()->Data.begin());
    return Node;
  };
  BatchEvaluation Eval;
  Eval.LogProb = RowNode(LogProb.data(), "logProb");
  Eval.LogProb.node()->Backward = [Tape](TensorNode &Self) {
    for (HeadTerm &T : Tape->Terms)
      pickBackward(T.LogP, T.Masks, T.Picks, Self.Grad.data(), T.DLogits);
    Tape->PolicyReached = true;
  };
  Eval.Entropy = RowNode(Entropy.data(), "entropy");
  Eval.Entropy.node()->Backward = [Tape](TensorNode &Self) {
    for (HeadTerm &T : Tape->Terms) {
      std::vector<double> DEntropy(Self.Grad.begin(), Self.Grad.end());
      for (size_t R = 0; R < T.Active.size(); ++R)
        if (T.Active[R] == 0.0)
          DEntropy[R] = 0.0;
      entropyBackward(T.LogP, T.Masks, DEntropy, T.DLogits);
    }
    Tape->PolicyReached = true;
  };
  Eval.Value = RowNode(Values.Data.data(), "value");
  Eval.Value.node()->Backward = [Tape](TensorNode &Self) {
    Tape->DValues.assign(Self.Grad.begin(), Self.Grad.end());
    Tape->ValueReached = true;
  };
  return Eval;
}

std::vector<Tensor> ActorCritic::parameters() const {
  std::vector<Tensor> Params = Policy.parameters();
  std::vector<Tensor> V = Value.parameters();
  Params.insert(Params.end(), V.begin(), V.end());
  return Params;
}
