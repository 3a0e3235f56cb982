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
  /// CachingEvaluator, or the bare Runner when Runner.Noise is set.
  Evaluator &evaluator() { return Memo ? static_cast<Evaluator &>(*Memo)
                                       : static_cast<Evaluator &>(Run); }
  /// The shared memo (nullptr when Runner.Noise is set).
  CachingEvaluator *memo() { return Memo.get(); }

private:
  MlirRlOptions Options;
  Runner Run;
  /// One lock-striped price memo (perf/Evaluator.h's per-op table)
  /// shared by every collector thread and VecEnv group; constructed
  /// before the trainer, which holds a reference into it. Prices are
  /// deterministic, so trajectories are bitwise-identical with or
  /// without it at any shard count (DeterminismMatrixTest).
  std::unique_ptr<CachingEvaluator> Memo;
  ActorCritic Agent;
  PpoTrainer Trainer;
};

} // namespace mlirrl

#endif // MLIRRL_RL_MLIRRL_H
