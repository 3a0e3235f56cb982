//===- MlirRl.h - Top-level system facade ------------------------*- C++-*-===//
///
/// \file
/// MLIR RL as a downstream user consumes it: construct with a
/// configuration, train on a dataset of modules, then optimize modules
/// with the learned policy. This is the public entry point the examples
/// and the benchmark harness use.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_MLIRRL_H
#define MLIRRL_RL_MLIRRL_H

#include "perf/Runner.h"
#include "rl/Ppo.h"

#include <functional>
#include <memory>

namespace mlirrl {

/// Full system configuration.
struct MlirRlOptions {
  EnvConfig Env;
  NetConfig Net;
  PpoConfig Ppo;
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  RunnerOptions Runner;
  /// Training iterations (each collects Ppo.SamplesPerIteration
  /// episodes and performs Ppo.UpdateEpochs update passes).
  unsigned Iterations = 100;
  uint64_t Seed = 1234;

  /// Element type for greedy policy inference (optimize() rollouts).
  /// F64 (the default) keeps every forward pass on the
  /// bitwise-deterministic double path; F32 runs the same forward in
  /// float, on a packed float copy of the policy parameters and the
  /// float SIMD GEMM kernels (float-level relative error -- bounded by
  /// tests/rl/InferenceF32Test). Training is unaffected either way.
  InferenceDtype Inference = InferenceDtype::F64;

  /// Memoize prices in one lock-striped CachingEvaluator wrapped around
  /// the Runner and shared by every collector thread and VecEnv group
  /// (the per-op table of perf/Evaluator.h, which answers every
  /// episode's baseline and every step's dirty op). On by default;
  /// automatically disabled when Runner.Noise is set, since caching a
  /// noisy measurement would freeze one draw forever. Values are
  /// deterministic, so training trajectories are bitwise-identical
  /// with the memo on or off (DeterminismMatrixTest sweeps both).
  bool MemoizeEvaluations = true;
  /// Lock stripes of the memo table (rounded up to a power of two;
  /// 1 = the global-lock baseline).
  unsigned MemoShards = 16;

  /// A small, fast preset for laptop-scale experiments (same
  /// architecture, narrower nets, fewer samples per iteration).
  static MlirRlOptions laptop();
};

/// The trained system.
class MlirRl {
public:
  explicit MlirRl(MlirRlOptions Options);

  /// Trains on \p Dataset; \p PerIteration (optional) observes progress.
  std::vector<PpoIterationStats>
  train(const std::vector<Module> &Dataset,
        const std::function<void(unsigned, const PpoIterationStats &)>
            &PerIteration = nullptr);

  /// Optimizes one module with the greedy policy; returns the speedup
  /// over the unoptimized baseline.
  double optimize(const Module &M, ModuleSchedule *Schedule = nullptr);

  Runner &runner() { return Run; }
  ActorCritic &agent() { return Agent; }
  PpoTrainer &trainer() { return Trainer; }
  const MlirRlOptions &options() const { return Options; }

  /// The evaluator the trainer measures through: the shared striped
  /// CachingEvaluator when memoization is active, else the Runner.
  Evaluator &evaluator() { return Memo ? static_cast<Evaluator &>(*Memo)
                                       : static_cast<Evaluator &>(Run); }
  /// The shared memo (nullptr when memoization is off or noise is on).
  CachingEvaluator *memo() { return Memo.get(); }

private:
  MlirRlOptions Options;
  Runner Run;
  /// One striped memo shared across all collector threads; constructed
  /// before the trainer, which holds a reference into it.
  std::unique_ptr<CachingEvaluator> Memo;
  ActorCritic Agent;
  PpoTrainer Trainer;
};

} // namespace mlirrl

#endif // MLIRRL_RL_MLIRRL_H
