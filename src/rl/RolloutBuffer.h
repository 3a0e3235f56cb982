//===- RolloutBuffer.h - Trajectory storage + GAE -----------------*- C++-*-===//
///
/// \file
/// Stores collected trajectories and computes advantages with
/// Generalized Advantage Estimation. The paper uses gamma = 1.0 (rewards
/// are delayed to the end of the trajectory) and lambda = 0.95
/// (Sec. VII-A5).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_ROLLOUTBUFFER_H
#define MLIRRL_RL_ROLLOUTBUFFER_H

#include "env/Environment.h"

#include <vector>

namespace mlirrl {

/// One stored step.
struct RolloutStep {
  Observation Obs;
  AgentAction Action;
  double OldLogProb = 0.0;
  double Value = 0.0;
  double Reward = 0.0;
  /// True when this step ends its episode.
  bool EpisodeEnd = false;
  // Filled by computeAdvantages:
  double Advantage = 0.0;
  double Return = 0.0;
};

/// A growable rollout store.
class RolloutBuffer {
public:
  void add(RolloutStep Step) { Steps.push_back(std::move(Step)); }
  size_t size() const { return Steps.size(); }

  std::vector<RolloutStep> &steps() { return Steps; }
  const std::vector<RolloutStep> &steps() const { return Steps; }

  /// GAE over the stored episodes (episodes are delimited by
  /// EpisodeEnd; the terminal bootstrap value is zero).
  void computeAdvantages(double Gamma, double Lambda);

  /// Normalizes advantages to zero mean / unit variance (standard PPO
  /// stabilization).
  void normalizeAdvantages();

private:
  std::vector<RolloutStep> Steps;
};

} // namespace mlirrl

#endif // MLIRRL_RL_ROLLOUTBUFFER_H
