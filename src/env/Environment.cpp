//===- Environment.cpp ----------------------------------------------------===//

#include "env/Environment.h"

#include "support/Error.h"
#include "support/Stats.h"
#include "transforms/Legality.h"
#include "transforms/PostTransformChecks.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mlirrl;

Environment::Environment(EnvConfig Config, Evaluator &Eval, Module Sample)
    : Config(Config), Feat(Config), Space(Config), Eval(Eval),
      Sample(std::move(Sample)), State(this->Sample) {
  assert(this->Sample.getNumOps() > 0 && "empty module");
  if (Config.ActionSpace == ActionSpaceMode::Flat)
    FlatActions = buildFlatActionList(Config);
  StaticFeat.resize(this->Sample.getNumOps());

  // The fresh state is the unscheduled module, so pricing it is the
  // baseline, bitwise (materializeBaseline is materializeModule under
  // the empty schedule). Incremental: every op price lands in the
  // state's slots, and the first reward re-prices only the op its
  // action dirtied. From-scratch: the whole-module oracle.
  BaselineSeconds = Config.Incremental ? Eval.timeState(State)
                                       : Eval.timeBaseline(this->Sample);
  PreviousSeconds = BaselineSeconds;
  // The baseline itself is measured once (Runs executions).
  MeasurementSeconds += BaselineSeconds;

  CurrentOp = static_cast<int>(this->Sample.getNumOps()) - 1;
  Machine.emplace(this->Sample.getOp(CurrentOp));
  computeObservation();
}

unsigned Environment::effectiveLoops() const {
  return std::min(Config.MaxLoops,
                  Sample.getOp(CurrentOp).getNumLoops());
}

const std::vector<unsigned> &Environment::currentFusedProducers() const {
  static const std::vector<unsigned> Empty;
  auto It = State.getSchedule().OpSchedules.find(
      static_cast<unsigned>(CurrentOp));
  return It == State.getSchedule().OpSchedules.end() ? Empty
                                                     : It->second.FusedProducers;
}

int Environment::findProducerCandidate() const {
  // The fused group: the consumer plus everything already fused into it.
  std::vector<unsigned> Group = currentFusedProducers();
  Group.push_back(static_cast<unsigned>(CurrentOp));

  auto InGroup = [&](unsigned Idx) {
    return std::find(Group.begin(), Group.end(), Idx) != Group.end();
  };

  const ModuleSchedule &Sched = State.getSchedule();
  int Best = -1;
  for (unsigned Member : Group) {
    for (const OpOperand &In : Sample.getOp(Member).getInputs()) {
      int Def = Sample.getDefiningOp(In.Value);
      if (Def < 0 || InGroup(static_cast<unsigned>(Def)) ||
          Sched.isFusedAway(static_cast<unsigned>(Def)))
        continue;
      // The producer must be exclusively consumed by the group
      // (otherwise it still needs a standalone materialization and
      // fusion would duplicate work).
      bool Exclusive = true;
      for (unsigned User : Sample.getConsumers(static_cast<unsigned>(Def)))
        Exclusive &= InGroup(User);
      if (!Exclusive)
        continue;
      if (!canFuseProducer(Sample, static_cast<unsigned>(CurrentOp),
                           static_cast<unsigned>(Def)) &&
          !canFuseProducer(Sample, Member, static_cast<unsigned>(Def)))
        continue;
      Best = std::max(Best, Def);
    }
  }
  return Best;
}

std::vector<int64_t>
Environment::tileSizesFromAction(const AgentAction &Action) const {
  const LinalgOp &Op = Sample.getOp(CurrentOp);
  unsigned N = Op.getNumLoops();
  std::vector<int64_t> Sizes(N, 0);
  for (unsigned L = 0; L < std::min<unsigned>(N, Config.MaxLoops); ++L) {
    unsigned Idx = L < Action.TileSizeIdx.size() ? Action.TileSizeIdx[L] : 0;
    if (Idx < Config.TileCandidates.size())
      Sizes[L] = Config.TileCandidates[Idx];
  }
  return Sizes;
}

double Environment::measuredModuleTime() {
  // Measure the module under the schedule assembled so far, including
  // the in-progress schedule of the current op (the state always holds
  // exactly that). Incremental: only dirty op nests are re-priced.
  // From-scratch: the whole-module oracle path, bitwise-identical.
  if (Config.Incremental)
    return Eval.timeState(State);
  return Eval.timeModule(Sample, State.getSchedule());
}

double Environment::rewardAfterEffectiveStep() {
  if (Config.Reward != RewardMode::Immediate)
    return 0.0;
  // Immediate reward: executing the program after every step to compute
  // the incremental log-speedup. The execution itself costs wall-clock
  // (the paper's argument against this mode).
  double Now = measuredModuleTime();
  MeasurementSeconds += Now;
  double Reward = std::log(PreviousSeconds / Now);
  PreviousSeconds = Now;
  return Reward;
}

bool Environment::applyTransform(const Transformation &T, int Producer) {
  // Trial-apply against a copy: the engine's routine rejections leave
  // the step a silent no-op exactly as before (trajectory-preserving),
  // and a check failure must not leave a half-applied machine behind.
  OpTransformState Trial = *Machine;
  if (!Trial.apply(T).Applied)
    return false;

  if (Config.PostTransformChecks) {
    // The candidate schedule: everything committed to the current op so
    // far plus this action. Checked from scratch, so divergence between
    // the machine and the transaction state is also caught here.
    OpSchedule Candidate;
    auto It = State.getSchedule().OpSchedules.find(
        static_cast<unsigned>(CurrentOp));
    if (It != State.getSchedule().OpSchedules.end())
      Candidate = It->second;
    Candidate.Transforms.push_back(T);
    if (Producer >= 0)
      Candidate.FusedProducers.push_back(static_cast<unsigned>(Producer));
    std::string Err;
    if (!checkCandidateAction(Sample, static_cast<unsigned>(CurrentOp),
                              Candidate, Err)) {
      recordRobustnessEvent(RobustnessEvent::PostTransformCheckFailed);
      CheckFailedThisStep = true;
      return false;
    }
  }

  *Machine = std::move(Trial);
  State.apply(static_cast<unsigned>(CurrentOp), T, Producer);
  return true;
}

Environment::StepOutcome Environment::step(const AgentAction &Action) {
  if (Done) {
    // A buggy driver (or a future inference server replaying stale
    // actions) must not take the process down: the episode is over, so
    // the step is inert.
    recordRobustnessEvent(RobustnessEvent::StepAfterDone);
    StepOutcome Inert;
    Inert.Done = true;
    return Inert;
  }

  StepOutcome Outcome;
  CheckFailedThisStep = false;
  const unsigned N = effectiveLoops();
  const LinalgOp &Op = Sample.getOp(CurrentOp);

  // ---- Level-pointer continuation ---------------------------------------
  if (InPointerSequence) {
    unsigned Choice = Action.PointerChoice;
    if (Choice < N && PartialPlacement[NextPointerPos] == -1 &&
        std::find(PartialPlacement.begin(), PartialPlacement.end(),
                  static_cast<int>(Choice)) == PartialPlacement.end()) {
      PartialPlacement[NextPointerPos] = static_cast<int>(Choice);
      ++NextPointerPos;
      History.recordInterchange(TauUsed, PartialPlacement);
    }
    if (NextPointerPos == N) {
      // Complete: build the permutation over the full loop count
      // (identity beyond the represented levels).
      unsigned FullN = Op.getNumLoops();
      std::vector<unsigned> Perm(FullN);
      for (unsigned I = 0; I < FullN; ++I)
        Perm[I] = I < N ? static_cast<unsigned>(PartialPlacement[I]) : I;
      applyTransform(Transformation::interchange(Perm));
      InPointerSequence = false;
      ++TauUsed;
      Outcome.Reward = rewardAfterEffectiveStep();
      if (TauUsed >= Config.MaxScheduleLength)
        finishCurrentOp();
    }
    if (CheckFailedThisStep)
      Outcome.Reward -= Config.CheckFailurePenalty;
    Outcome.Done = Done;
    computeObservation();
    return Outcome;
  }

  // ---- Flat-mode decoding ------------------------------------------------
  AgentAction Decoded = Action;
  bool MalformedAction = false;
  if (Config.ActionSpace == ActionSpaceMode::Flat) {
    if (Action.FlatChoice >= FlatActions.size()) {
      // A flat index outside the action list is a driver bug (the
      // policy's head can never produce one): waste the step instead of
      // throwing out of std::vector::at.
      MalformedAction = true;
      ++TauUsed;
      Outcome.Reward = rewardAfterEffectiveStep();
    } else {
      const FlatAction &Flat = FlatActions[Action.FlatChoice];
      Decoded.Kind = Flat.Kind;
      Decoded.TileSizeIdx.assign(Config.MaxLoops, Flat.TileSizeIdx);
      Decoded.EnumeratedChoice = Flat.SwapIdx;
    }
  }

  if (!MalformedAction)
    switch (Decoded.Kind) {
  case TransformKind::Tiling:
  case TransformKind::TiledParallelization: {
    Transformation T =
        Decoded.Kind == TransformKind::Tiling
            ? Transformation::tiling(tileSizesFromAction(Decoded))
            : Transformation::tiledParallelization(
                  tileSizesFromAction(Decoded));
    if (applyTransform(T))
      History.recordTiled(TauUsed, Decoded.Kind, Decoded.TileSizeIdx);
    ++TauUsed;
    Outcome.Reward = rewardAfterEffectiveStep();
    break;
  }
  case TransformKind::TiledFusion: {
    int Producer = findProducerCandidate();
    Transformation T =
        Transformation::tiledFusion(tileSizesFromAction(Decoded));
    if (Producer >= 0 && applyTransform(T, Producer))
      History.recordTiled(TauUsed, Decoded.Kind, Decoded.TileSizeIdx);
    ++TauUsed;
    Outcome.Reward = rewardAfterEffectiveStep();
    break;
  }
  case TransformKind::Interchange: {
    if (Config.ActionSpace == ActionSpaceMode::MultiDiscrete &&
        Config.Interchange == InterchangeMode::LevelPointers) {
      // Start the pointer sequence with the first placement.
      if (N >= 1 && Action.PointerChoice < N) {
        PartialPlacement.assign(N, -1);
        PartialPlacement[0] = static_cast<int>(Action.PointerChoice);
        NextPointerPos = 1;
        InPointerSequence = true;
        History.recordInterchange(TauUsed, PartialPlacement);
        if (N == 1) {
          // Degenerate single-loop interchange: identity, complete now.
          InPointerSequence = false;
          ++TauUsed;
          Outcome.Reward = rewardAfterEffectiveStep();
        }
      } else {
        ++TauUsed; // malformed pointer start: wasted step
      }
    } else {
      // Enumerated swap.
      auto Candidates =
          getEnumeratedInterchangeCandidates(Op.getNumLoops());
      if (Decoded.EnumeratedChoice < Candidates.size()) {
        auto [I, J] = Candidates[Decoded.EnumeratedChoice];
        Transformation T = Transformation::interchange(
            makeSwapPermutation(Op.getNumLoops(), I, J));
        if (applyTransform(T)) {
          std::vector<int> Placement(Op.getNumLoops());
          for (unsigned L = 0; L < Op.getNumLoops(); ++L)
            Placement[L] = static_cast<int>(T.Permutation[L]);
          History.recordInterchange(TauUsed, std::move(Placement));
        }
      }
      ++TauUsed;
      Outcome.Reward = rewardAfterEffectiveStep();
    }
    break;
  }
  case TransformKind::Vectorization: {
    applyTransform(Transformation::vectorization());
    ++TauUsed;
    Outcome.Reward = rewardAfterEffectiveStep();
    finishCurrentOp();
    break;
  }
  case TransformKind::NoTransformation: {
    ++TauUsed;
    Outcome.Reward = rewardAfterEffectiveStep();
    finishCurrentOp();
    break;
  }
  }

  if (!Done && !InPointerSequence && TauUsed >= Config.MaxScheduleLength)
    finishCurrentOp();

  // Terminal reward: log-speedup of the fully assembled schedule.
  if (Done && Config.Reward == RewardMode::Final) {
    double Final = measuredModuleTime();
    MeasurementSeconds += Final;
    Outcome.Reward += std::log(BaselineSeconds / Final);
  }

  if (CheckFailedThisStep)
    Outcome.Reward -= Config.CheckFailurePenalty;
  Outcome.Done = Done;
  computeObservation();
  return Outcome;
}

void Environment::finishCurrentOp() {
  // The state already holds everything applied to the current op; the
  // op's schedule needs no commit step.
  advanceToNextOp();
}

void Environment::advanceToNextOp() {
  const ModuleSchedule &Sched = State.getSchedule();
  int Next = CurrentOp - 1;
  while (Next >= 0 && Sched.isFusedAway(static_cast<unsigned>(Next)))
    --Next;
  CurrentOp = Next;
  History = ActionHistory();
  TauUsed = 0;
  InPointerSequence = false;
  if (CurrentOp < 0) {
    Done = true;
    Machine.reset();
    return;
  }
  Machine.emplace(Sample.getOp(CurrentOp));
}

double Environment::currentSpeedup() {
  return BaselineSeconds / measuredModuleTime();
}

const SparseRow &Environment::staticFeatures(unsigned OpIdx) {
  SparseRow &F = StaticFeat[OpIdx];
  if (F.empty())
    F = Feat.featurizeStatic(Sample.getOp(OpIdx));
  return F;
}

void Environment::computeObservation() {
  Observation Obs;
  if (Done) {
    CurrentObs = Obs;
    return;
  }
  const LinalgOp &Op = Sample.getOp(CurrentOp);
  unsigned N = effectiveLoops();
  Obs.NumLoops = N;
  Obs.InPointerSequence = InPointerSequence;

  int Producer = findProducerCandidate();
  if (Config.Incremental) {
    // Delta featurization: static prefixes are computed once per op and
    // the consumer appends its history entries. A producer's history is
    // empty and appends none, so its row is its cached prefix. Rows are
    // bitwise-identical to the from-scratch featurize() calls below.
    Obs.Consumer = staticFeatures(static_cast<unsigned>(CurrentOp));
    Feat.appendHistory(History, Obs.Consumer);
    if (Producer >= 0)
      Obs.Producer = staticFeatures(static_cast<unsigned>(Producer));
  } else {
    Obs.Consumer = Feat.featurize(Op, History);
    if (Producer >= 0)
      Obs.Producer = Feat.featurize(Sample.getOp(Producer), ActionHistory());
  }

  // Transformation mask.
  Obs.TransformMask.assign(NumTransformKinds, 0.0);
  auto Allow = [&](TransformKind K) {
    Obs.TransformMask[static_cast<unsigned>(K)] = 1.0;
  };
  if (InPointerSequence) {
    Allow(TransformKind::Interchange);
  } else {
    Allow(TransformKind::Tiling);
    Allow(TransformKind::TiledParallelization);
    if (Producer >= 0)
      Allow(TransformKind::TiledFusion);
    if (N >= 2)
      Allow(TransformKind::Interchange);
    if (isVectorizationLegal(Op, Machine->getInnermostTrip()))
      Allow(TransformKind::Vectorization);
    Allow(TransformKind::NoTransformation);
  }

  // Interchange-head mask.
  unsigned HeadSize = Space.interchangeHeadSize();
  Obs.InterchangeMask.assign(HeadSize, 0.0);
  if (Config.Interchange == InterchangeMode::LevelPointers) {
    for (unsigned L = 0; L < std::min(N, HeadSize); ++L) {
      bool Taken =
          InPointerSequence &&
          std::find(PartialPlacement.begin(), PartialPlacement.end(),
                    static_cast<int>(L)) != PartialPlacement.end();
      if (!Taken)
        Obs.InterchangeMask[L] = 1.0;
    }
  } else {
    auto Valid = getEnumeratedInterchangeCandidates(Op.getNumLoops());
    for (unsigned I = 0; I < std::min<size_t>(HeadSize, Valid.size()); ++I)
      Obs.InterchangeMask[I] = 1.0;
  }

  // Flat-mode mask.
  if (Config.ActionSpace == ActionSpaceMode::Flat) {
    Obs.FlatMask.assign(FlatActions.size(), 0.0);
    auto Candidates = getEnumeratedInterchangeCandidates(Op.getNumLoops());
    std::vector<int64_t> Trips = Machine->getPointTrips();
    int64_t MaxTrip = *std::max_element(Trips.begin(), Trips.end());
    for (unsigned I = 0; I < FlatActions.size(); ++I) {
      const FlatAction &F = FlatActions[I];
      bool Legal = true;
      switch (F.Kind) {
      case TransformKind::Tiling:
        Legal = Config.TileCandidates[F.TileSizeIdx] < MaxTrip;
        break;
      case TransformKind::TiledParallelization:
        Legal = true;
        break;
      case TransformKind::TiledFusion:
        Legal = Producer >= 0 &&
                Config.TileCandidates[F.TileSizeIdx] < MaxTrip;
        break;
      case TransformKind::Interchange:
        Legal = F.SwapIdx < Candidates.size();
        break;
      case TransformKind::Vectorization:
        Legal = isVectorizationLegal(Op, Machine->getInnermostTrip());
        break;
      case TransformKind::NoTransformation:
        Legal = true;
        break;
      }
      Obs.FlatMask[I] = Legal ? 1.0 : 0.0;
    }
  }

  CurrentObs = std::move(Obs);
}
