//===- RolloutEngine.h - The one episode-rollout implementation --*- C++-*-===//
///
/// \file
/// "Rollout a policy over a module", extracted out of PpoTrainer into a
/// standalone engine so every episode loop in the system is the same
/// code: PPO collection (sampling), greedy optimize()/serving
/// (argmax), and the random-search baseline all drive lockstep VecEnv
/// groups through one loop, differing only in where the actions come
/// from. Before this split each caller hand-rolled a near-duplicate
/// loop, and that drift is where past bugs hid (memo accounting, stale
/// inference caches, the random baseline sampling tile levels past the
/// op's loop count).
///
/// The split mirrors the exec-graph idiom of separating "what to run"
/// from "who runs it": the engine owns the mechanics (module copies,
/// lockstep stepping, observation snapshots, episode bookkeeping), the
/// ActionSource owns the decision. The engine is parameterized by the
/// Evaluator rewards are measured through -- a shared lock-striped
/// CachingEvaluator makes concurrent rollouts reuse each other's
/// prices -- and inherits the agent's InferenceDtype (F32 runs greedy
/// steps' forward pass in float; sampling and the critic always stay on
/// the bitwise-deterministic double path). Actions come from the
/// agent's forward pass alone: rollouts record no tape and build no
/// graph.
///
/// Determinism contract (inherited from the loops it replaced and
/// test-gated by RolloutEquivalenceTest): episodes only consume their
/// own RNG stream, so a width-B group is bitwise-identical to B
/// sequential width-1 rollouts, and the engine's episodes are
/// bitwise-identical to the legacy PpoTrainer/randomSearch loops.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_ROLLOUTENGINE_H
#define MLIRRL_RL_ROLLOUTENGINE_H

#include "rl/Agent.h"
#include "rl/RolloutBuffer.h"

#include <functional>
#include <vector>

namespace mlirrl {

class RolloutEngine {
public:
  /// One finished episode.
  struct Episode {
    /// Sum of step rewards.
    double Reward = 0.0;
    /// Speedup of the final schedule over the unoptimized baseline.
    double Speedup = 1.0;
    /// Simulated measurement cost of the episode's rewards.
    double MeasurementSeconds = 0.0;
    /// Loop nests materialized by the episode's environment.
    uint64_t NestMaterializations = 0;
    /// The final schedule (filled when Options::RecordSchedule).
    ModuleSchedule Schedule;
    /// Per-step records for PPO (filled when Options::RecordSteps).
    std::vector<RolloutStep> Steps;
  };

  struct Options {
    /// Store a RolloutStep per step (PPO collection needs them; greedy
    /// serving does not, and skipping them skips the observation
    /// copies).
    bool RecordSteps = false;
    /// Copy the final schedule out of each environment.
    bool RecordSchedule = false;
    /// Defensive cap on lockstep steps per group (0 = unlimited). The
    /// environment always terminates on its own; the cap exists so a
    /// server rolling untrusted modules has a hard bound, and hitting
    /// it is counted under robustness.rollout_step_cap.
    unsigned MaxGroupSteps = 0;
  };

  /// Chooses one action per live environment. Called once per lockstep
  /// step with the live observations and their private RNG streams
  /// (aligned). Sources that draw no randomness (greedy) ignore the
  /// streams; sources without policy state (random search) fill only
  /// the Action field of each Sampled.
  using ActionSource = std::function<std::vector<ActorCritic::Sampled>(
      const std::vector<const Observation *> &, const std::vector<Rng *> &)>;

  /// An engine that rolls the (read-only) \p Agent's policy. Both the
  /// agent and \p Eval must be thread-safe and outlive the engine;
  /// every episode of every group measures through \p Eval, so passing
  /// the shared striped CachingEvaluator makes prices cross episode,
  /// batch and thread boundaries.
  RolloutEngine(const ActorCritic &Agent, Evaluator &Eval)
      : Agent(&Agent), Config(Agent.getEnvConfig()), Eval(Eval) {}

  /// An agent-less engine (random search, tests): only the generic
  /// rolloutGroup entry point is usable.
  RolloutEngine(const EnvConfig &Config, Evaluator &Eval)
      : Agent(nullptr), Config(Config), Eval(Eval) {}

  /// The core loop: one lockstep VecEnv group with one episode per
  /// entry of \p Samples, actions drawn from \p Actions, Rngs[i] being
  /// episode i's private stream (may alias when the source is
  /// RNG-free). Thread-safe: concurrent calls share only the agent and
  /// the evaluator.
  std::vector<Episode> rolloutGroup(const std::vector<const Module *> &Samples,
                                    const std::vector<Rng *> &Rngs,
                                    const ActionSource &Actions,
                                    const Options &Opts) const;

  /// Policy-sampling group (PPO collection): episode i samples through
  /// the agent's batched path on stream Rngs[i]. Steps are recorded.
  std::vector<Episode>
  sampleGroup(const std::vector<const Module *> &Samples,
              const std::vector<Rng *> &Rngs, const Options &Opts) const;

  /// Greedy (argmax) group: no RNG draws, no critic evaluation; the
  /// agent's InferenceDtype selects the forward pass's element type.
  /// This is the serving batch: B concurrent requests advance as one
  /// policy GEMM per lockstep step.
  std::vector<Episode> greedyGroup(const std::vector<const Module *> &Samples,
                                   const Options &Opts) const;

  /// One greedy episode (the optimize() path).
  Episode greedy(const Module &M, const Options &Opts) const;

  const EnvConfig &envConfig() const { return Config; }
  /// The evaluator every rollout measures through -- exposed so the
  /// baselines and the server can price through the same (memoized)
  /// seam the engine uses.
  Evaluator &evaluator() const { return Eval; }

private:
  const ActorCritic *Agent;
  EnvConfig Config;
  Evaluator &Eval;
};

} // namespace mlirrl

#endif // MLIRRL_RL_ROLLOUTENGINE_H
