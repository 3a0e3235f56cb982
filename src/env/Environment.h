//===- Environment.h - The MLIR RL environment -------------------*- C++-*-===//
///
/// \file
/// The RL environment of Sec. III/IV. One episode optimizes one code
/// sample (Module): operations are visited in reverse order (consumers
/// before producers); per operation the agent applies up to tau
/// transformations; Vectorization and No Transformation are terminal for
/// the current operation; Tiled Fusion folds the current producer into
/// the consumer's tile loops; level-pointer interchange spans N forced
/// sub-steps (Appendix B). Rewards are log(speedup) over the unoptimized
/// baseline, terminal by default or per-step in Immediate mode, with the
/// simulated measurement cost tracked for the Fig. 7 wall-clock axis.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_ENV_ENVIRONMENT_H
#define MLIRRL_ENV_ENVIRONMENT_H

#include "env/ActionSpace.h"
#include "env/Featurizer.h"
#include "perf/Evaluator.h"
#include "transforms/Apply.h"
#include "transforms/ScheduleState.h"

#include <memory>
#include <optional>

namespace mlirrl {

/// What the agent sees before acting. The two feature rows are held as
/// their nonzero entries (support/SparseRows.h), featureSize() wide.
struct Observation {
  /// The current operation under its action history.
  SparseRow Consumer;
  /// The fusion candidate under an empty history; empty (all zeros)
  /// when there is no producer.
  SparseRow Producer;
  std::vector<double> TransformMask;   // 6 entries, 0/1
  std::vector<double> InterchangeMask; // head-size entries, 0/1
  std::vector<double> FlatMask;        // flat mode only
  /// True while a level-pointer interchange forces continuation.
  bool InPointerSequence = false;
  /// Effective loop count of the current operation (<= MaxLoops).
  unsigned NumLoops = 0;
};

/// One episode over one module.
class Environment {
public:
  /// Rewards are measured through \p Eval, which must outlive the
  /// environment and be thread-safe (it is shared across a VecEnv batch
  /// and across parallel collectors).
  Environment(EnvConfig Config, Evaluator &Eval, Module Sample);

  bool isDone() const { return Done; }
  const Observation &observe() const { return CurrentObs; }

  struct StepOutcome {
    double Reward = 0.0;
    bool Done = false;
  };

  /// Applies one agent action. Illegal (unmasked-but-inapplicable)
  /// actions consume a step with no effect.
  StepOutcome step(const AgentAction &Action);

  /// The schedule assembled so far (complete once done), including the
  /// in-progress transforms of the operation currently being optimized.
  const ModuleSchedule &getSchedule() const { return State.getSchedule(); }

  /// The transaction state behind the episode: per-op nest/price caches
  /// and the schedule itself. Shared with the Evaluator for incremental
  /// pricing; exposed for tests and the stats plumbing.
  const ScheduleState &getState() const { return State; }

  /// Speedup of the assembled schedule over the baseline.
  double currentSpeedup();

  /// Accumulated simulated measurement cost (seconds of program
  /// execution the reward computation required so far); the x-axis of
  /// Fig. 7's wall-clock plot.
  double getMeasurementSeconds() const { return MeasurementSeconds; }

  const Module &getModule() const { return Sample; }

  /// Index of the operation currently being optimized (for tests).
  int getCurrentOp() const { return CurrentOp; }

private:
  void computeObservation();
  double rewardAfterEffectiveStep();
  void finishCurrentOp();
  void advanceToNextOp();
  /// The single commit gate for agent actions: trial-applies \p T to a
  /// copy of the transform state, runs the post-transform checks on the
  /// candidate schedule (when enabled), and only then commits to both
  /// the machine and the transaction state. Returns false on the
  /// engine's routine rejections (silent wasted step, as before) and on
  /// check failures (penalized no-op, robustness counter bumped).
  bool applyTransform(const Transformation &T, int Producer = -1);
  /// The current fusion candidate: the last producer feeding the fused
  /// group, fusable and exclusively consumed by the group. -1 if none.
  int findProducerCandidate() const;
  unsigned effectiveLoops() const;
  std::vector<int64_t> tileSizesFromAction(const AgentAction &Action) const;
  double measuredModuleTime();
  /// Fused producers of the operation currently being optimized.
  const std::vector<unsigned> &currentFusedProducers() const;
  /// Cached static feature prefix of op \p OpIdx (incremental path).
  const SparseRow &staticFeatures(unsigned OpIdx);

  EnvConfig Config;
  Featurizer Feat;
  ActionSpaceInfo Space;
  Evaluator &Eval;
  Module Sample;

  /// The transaction layer: schedule + per-op nest/price caches. All
  /// schedule mutations flow through State.apply so dirtiness is exact.
  ScheduleState State;
  bool Done = false;
  int CurrentOp = -1;

  // Per-operation state.
  std::optional<OpTransformState> Machine;
  ActionHistory History;
  unsigned TauUsed = 0;
  /// Set when a post-transform check rejected the current step's action
  /// (the step's reward is then docked by Config.CheckFailurePenalty).
  bool CheckFailedThisStep = false;

  /// Per-op static feature prefixes (incremental path; empty until
  /// first featurized).
  std::vector<SparseRow> StaticFeat;

  // Level-pointer sequence state.
  bool InPointerSequence = false;
  std::vector<int> PartialPlacement;
  unsigned NextPointerPos = 0;

  // Reward bookkeeping.
  double BaselineSeconds = 0.0;
  double PreviousSeconds = 0.0;
  double MeasurementSeconds = 0.0;

  Observation CurrentObs;
  std::vector<FlatAction> FlatActions;
};

} // namespace mlirrl

#endif // MLIRRL_ENV_ENVIRONMENT_H
