//===- Config.h - Environment configuration ----------------------*- C++-*-===//
///
/// \file
/// Configuration of the RL environment. Defaults follow Sec. VII-A5 of
/// the paper: at most 12 loop levels, 8 tile-size candidates (including
/// 0 = "no tiling"), at most 14 accessed arrays of rank at most 12, and a
/// maximum schedule length of 5. The interchange formulation, the action
/// space formulation and the reward mode are all selectable because each
/// is one of the paper's ablations.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_ENV_CONFIG_H
#define MLIRRL_ENV_CONFIG_H

#include <cstdint>
#include <vector>

namespace mlirrl {

/// The two interchange formulations of Sec. IV-A1.
enum class InterchangeMode {
  /// Enumerate swaps of loop levels at distance <= 3 (3N - 6 actions).
  Enumerated,
  /// Pointer-network style: emit the permutation one level per sub-step.
  LevelPointers,
};

/// The two reward structures of Sec. IV-C / Fig. 7.
enum class RewardMode {
  /// log(speedup) at the end of the episode, zero elsewhere (default).
  Final,
  /// log(incremental speedup) after every step (requires "executing" the
  /// program each step, which is what makes it slow in wall-clock).
  Immediate,
};

/// Action-space formulation (Fig. 6 ablation).
enum class ActionSpaceMode {
  /// Transformation selection + per-transformation parameter sub-spaces.
  MultiDiscrete,
  /// One categorical over a fixed list of (transformation, parameters)
  /// combinations.
  Flat,
};

/// Environment configuration.
struct EnvConfig {
  /// N: maximum number of loop levels in a nest.
  unsigned MaxLoops = 12;
  /// M: number of tile-size candidates, including 0.
  unsigned NumTileSizes = 8;
  /// L: maximum number of accessed arrays represented per operation.
  unsigned MaxArrays = 14;
  /// D: maximum rank of array accesses represented.
  unsigned MaxRank = 12;
  /// tau: maximum number of transformations per operation.
  unsigned MaxScheduleLength = 5;

  InterchangeMode Interchange = InterchangeMode::LevelPointers;
  RewardMode Reward = RewardMode::Final;
  ActionSpaceMode ActionSpace = ActionSpaceMode::MultiDiscrete;

  /// Tile-size candidates (first entry must be 0 = "do not tile").
  std::vector<int64_t> TileCandidates = {0, 1, 2, 4, 8, 16, 32, 64};

  /// Price the baseline and rewards and build observations
  /// incrementally through the ScheduleState transaction layer (only
  /// the op nests an action dirtied are re-materialized, re-priced and
  /// re-featurized). Off = the from-scratch oracle path; both produce
  /// bitwise-identical prices, observations and trajectories (the
  /// DeterminismMatrix and IncrementalEquivalence tests sweep the pair).
  bool Incremental = true;

  /// Run the post-transform invariant pass (transforms/PostTransformChecks)
  /// on every candidate action before committing it: a schedule the
  /// checks reject becomes a penalized no-op instead of corrupt state or
  /// an abort. On legal actions the checks never fire, so trajectories
  /// are bitwise-identical with the flag off. The per-step cost is one
  /// from-scratch replay and candidate materialization of the acted-on
  /// op; a passing check formats no message. PERF.md's "DESIGN:
  /// always-on post-transform checks" note measures it.
  bool PostTransformChecks = true;

  /// Reward subtracted when a post-transform check rejects an action
  /// (only ever applied on check failure, never on the routine
  /// engine-level rejections that are silent wasted steps).
  double CheckFailurePenalty = 0.1;

  /// A reduced configuration for laptop-scale experiments: smaller
  /// feature tensors, same action semantics.
  static EnvConfig laptop();
};

} // namespace mlirrl

#endif // MLIRRL_ENV_CONFIG_H
