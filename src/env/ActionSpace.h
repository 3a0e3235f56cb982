//===- ActionSpace.h - Multi-discrete and flat action spaces -----*- C++-*-===//
///
/// \file
/// The action-space geometry of Sec. IV-A: head sizes of the
/// multi-discrete formulation (transformation selection, per-level tile
/// sizes, interchange via enumerated candidates or level pointers) and
/// the flat-list formulation used by the Fig. 6 ablation. The
/// environment consumes AgentAction; the policy produces it by sampling
/// the active heads.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_ENV_ACTIONSPACE_H
#define MLIRRL_ENV_ACTIONSPACE_H

#include "env/Config.h"
#include "transforms/Schedule.h"

#include <string>
#include <vector>

namespace mlirrl {

/// One sampled action. Which fields are meaningful depends on Kind and
/// on the environment phase (level-pointer sub-steps only use
/// PointerChoice).
struct AgentAction {
  TransformKind Kind = TransformKind::NoTransformation;

  /// Tiled kinds: per-level index into EnvConfig::TileCandidates
  /// (length MaxLoops; levels beyond the op's N are ignored).
  std::vector<unsigned> TileSizeIdx;

  /// Interchange, enumerated mode: candidate index (swap list).
  unsigned EnumeratedChoice = 0;

  /// Interchange, level-pointer mode: the loop placed at the current
  /// position.
  unsigned PointerChoice = 0;

  /// Flat mode: index into the flat action list.
  unsigned FlatChoice = 0;

  std::string toString() const;
};

/// Geometry of the policy heads for a given configuration.
struct ActionSpaceInfo {
  explicit ActionSpaceInfo(const EnvConfig &Config);

  /// Interchange head size: 3N-6 candidates or N pointers.
  unsigned interchangeHeadSize() const;

  /// Total size of the multi-discrete action space |A| as the paper
  /// counts it: 3 * M^N + N! + 2 (for reporting only).
  double flatTheoreticalSize(unsigned NumLoops) const;

private:
  EnvConfig Config;
};

/// One entry of the flat action list (Fig. 6 ablation): a fully
/// parameterized transformation.
struct FlatAction {
  TransformKind Kind;
  /// Uniform tile-size candidate index applied to every level (the flat
  /// space cannot afford per-level parameters).
  unsigned TileSizeIdx = 0;
  /// Enumerated interchange candidate.
  unsigned SwapIdx = 0;

  std::string toString() const;
};

/// Builds the flat action list for a configuration: all tiled kinds with
/// every uniform non-zero tile size, all enumerated swaps, vectorization
/// and no-transformation.
std::vector<FlatAction> buildFlatActionList(const EnvConfig &Config);

} // namespace mlirrl

#endif // MLIRRL_ENV_ACTIONSPACE_H
