//===- Ppo.h - Proximal Policy Optimization ----------------------*- C++-*-===//
///
/// \file
/// The PPO trainer (Sec. VII-A5): clipped surrogate objective
/// (clip = 0.2), value loss coefficient 0.5, entropy coefficient 0.01,
/// learning rate 1e-3, gamma = 1.0, GAE lambda = 0.95, minibatches of 32
/// and 4 update epochs per iteration. One training iteration collects
/// trajectories from a batch of code samples (64 in the paper) and runs
/// the updates.
///
/// Batching is the default shape of the loop: episodes are collected
/// through vectorized environments (BatchWidth episodes advance in
/// lockstep, one policy GEMM per step) and the update re-evaluates each
/// minibatch through the batched agent path (one GEMM per layer per
/// minibatch instead of one GEMV per sample). Both are
/// bitwise-deterministic for a fixed seed regardless of batch width,
/// collection thread count and update thread count.
///
/// Both the collection path and the greedy rollout (evaluate) step
/// environments that price rewards and build observations through the
/// per-episode ScheduleState transaction layer: each action re-prices
/// and re-featurizes only the op nests it dirtied, which is what keeps
/// Immediate-mode reward O(1) per action instead of O(module). The
/// incremental path is bitwise-identical to the from-scratch oracle
/// (tests/rl/DeterminismMatrixTest sweeps the pair).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_PPO_H
#define MLIRRL_RL_PPO_H

#include "nn/Optimizer.h"
#include "perf/Evaluator.h"
#include "rl/Agent.h"
#include "rl/RolloutBuffer.h"
#include "rl/RolloutEngine.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <memory>

namespace mlirrl {

class ShardedDataset;

namespace serialize {
class ArchiveWriter;
class ArchiveReader;
} // namespace serialize

/// PPO hyperparameters (defaults = the paper's).
struct PpoConfig {
  double LearningRate = 1e-3;
  double ClipRange = 0.2;
  double Gamma = 1.0;
  double Lambda = 0.95;
  double ValueCoef = 0.5;
  double EntropyCoef = 0.01;
  unsigned UpdateEpochs = 4;
  /// Samples per update minibatch (0 is treated as 1).
  unsigned MinibatchSize = 32;
  unsigned SamplesPerIteration = 64;
  double MaxGradNorm = 0.5;
  uint64_t Seed = 7;
  /// Episodes advanced in lockstep per vectorized-environment group
  /// (the policy batch width during collection). Episode RNG streams
  /// are keyed by the global sample index, so every width produces
  /// bitwise-identical rollouts.
  unsigned BatchWidth = 8;
  /// Threads collecting episode groups per iteration (0 = one per
  /// hardware thread). Groups are independent, so every thread count
  /// produces bitwise-identical rollouts.
  unsigned CollectThreads = 1;
  /// Threads the update's minibatch GEMMs are partitioned across
  /// (0 = one per hardware thread). Row partitioning preserves each
  /// output element's accumulation order, so every thread count
  /// produces bitwise-identical updates.
  unsigned UpdateThreads = 1;
};

/// Per-iteration training statistics.
struct PpoIterationStats {
  double MeanEpisodeReward = 0.0;
  /// Geometric-mean speedup of the iteration's episodes.
  double MeanSpeedup = 0.0;
  double PolicyLoss = 0.0;
  double ValueLoss = 0.0;
  double Entropy = 0.0;
  unsigned StepsCollected = 0;
  /// Accumulated simulated program-execution time spent on rewards (the
  /// Fig. 7 wall-clock axis).
  double MeasurementSeconds = 0.0;
  /// Loop nests materialized by the iteration's environments (via the
  /// ScheduleState transaction layer). Deterministic per seed; with
  /// incremental stepping on it stays near one nest per effective
  /// action instead of ops x steps.
  uint64_t NestMaterializations = 0;
};

/// The trainer.
class PpoTrainer {
public:
  /// Rewards are measured through \p Eval (a Runner, a
  /// CostModelEvaluator, or a CachingEvaluator over either); it must be
  /// thread-safe and outlive the trainer. All collector threads and all
  /// VecEnv groups share this one instance, so a lock-striped
  /// CachingEvaluator (the MlirRl default) lets concurrent episodes
  /// reuse each other's memoized prices without a global lock.
  PpoTrainer(ActorCritic &Agent, Evaluator &Eval, PpoConfig Config);

  /// Runs one iteration: collects one episode per sample drawn from
  /// \p Dataset (cycling), then performs the PPO updates.
  PpoIterationStats trainIteration(const std::vector<Module> &Dataset);

  /// Streaming variant: draws this iteration's samples from \p Stream
  /// (which owns the dataset cursor; checkpoints record it so streamed
  /// trainings resume mid-epoch).
  PpoIterationStats trainIteration(ShardedDataset &Stream);

  /// Greedy evaluation: optimizes \p Sample with argmax actions and
  /// returns the achieved speedup (and the schedule through \p Out).
  double evaluate(const Module &Sample, ModuleSchedule *Out = nullptr);

  Rng &rng() { return SampleRng; }

  /// The optimizer's serializable state (checkpoint tests compare it
  /// across the save/load seam).
  nn::Adam::State optimizerState() const { return Optimizer.getState(); }

  /// Completed trainIteration calls since construction (restored by
  /// loadCheckpoint, so resumed loops know where to continue).
  uint64_t iterationsDone() const { return IterationsDone; }
  /// The RNG stream key the next collected episode will use.
  uint64_t episodeCounter() const { return EpisodeCounter; }

  /// Checkpointing (implemented in rl/Checkpoint.cpp): saveState
  /// serializes the trainer state an iteration boundary holds — agent
  /// parameters, Adam moments and step count, the sample RNG stream,
  /// the episode/dataset cursors and the PPO configuration — such that
  /// train(N) == train(k); save; load; train(N-k) bitwise. It fails,
  /// writing nothing, when a parameter or Adam moment is non-finite
  /// (the error names the tensor and the element, as the loaders'
  /// does). restoreState validates the whole archive (CRCs, shapes,
  /// finite parameters and moments) before mutating anything: on
  /// failure the trainer is untouched.
  Expected<bool> saveState(serialize::ArchiveWriter &Writer) const;
  Expected<bool> restoreState(const serialize::ArchiveReader &Reader);

private:
  /// Rolls one lockstep group of episodes through the shared
  /// RolloutEngine, one RNG stream per episode derived from
  /// (Config.Seed, StreamKeys[i]) -- thread-safe: touches no trainer
  /// state besides the read-only agent and the evaluator.
  std::vector<RolloutEngine::Episode>
  collectGroup(const std::vector<const Module *> &Samples,
               const std::vector<uint64_t> &StreamKeys) const;

  /// The shared iteration core: collects one episode per entry of
  /// \p Samples (stream keys drawn from EpisodeCounter) into the
  /// iteration's rollout buffer, then updates from it.
  PpoIterationStats runIteration(const std::vector<const Module *> &Samples);

  void update(const RolloutBuffer &Buffer, PpoIterationStats &Stats);

  /// The pool used for group collection (created on first use; nullptr
  /// while CollectThreads == 1).
  ThreadPool *collectionPool();
  /// The pool the update's GEMMs are partitioned across (created on
  /// first use; nullptr while UpdateThreads == 1).
  ThreadPool *updatePool();

  ActorCritic &Agent;
  Evaluator &Eval;
  /// The one rollout implementation (collection samples through it,
  /// evaluate() runs it greedily; the server and the baselines drive
  /// the same engine type over the same evaluator seam).
  RolloutEngine Engine;
  PpoConfig Config;
  nn::Adam Optimizer;
  Rng SampleRng;
  size_t DatasetCursor = 0;
  /// Global episode counter: the RNG stream key of the next episode.
  uint64_t EpisodeCounter = 0;
  uint64_t IterationsDone = 0;
  std::unique_ptr<ThreadPool> Pool;
  std::unique_ptr<ThreadPool> GemmPool;
};

} // namespace mlirrl

#endif // MLIRRL_RL_PPO_H
