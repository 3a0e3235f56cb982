//===- Runner.h - The "execution" facade -------------------------*- C++-*-===//
///
/// \file
/// Runner plays the role of compiling and executing a program on the
/// testbed: it materializes a module under a schedule, estimates its
/// execution time, optionally perturbs it with measurement noise, and
/// reports the median of several "runs" (the paper runs each code five
/// times and takes the median). It is one implementation of the
/// Evaluator measurement seam; the environment's reward is log(speedup)
/// of a schedule over the unoptimized baseline, both produced here.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_PERF_RUNNER_H
#define MLIRRL_PERF_RUNNER_H

#include "ir/Module.h"
#include "perf/CostModel.h"
#include "perf/Evaluator.h"
#include "support/Rng.h"
#include "transforms/Schedule.h"

#include <mutex>

namespace mlirrl {

/// Measurement configuration.
struct RunnerOptions {
  /// Inject multiplicative log-normal noise per run (robustness tests;
  /// off by default so training rewards are deterministic).
  bool Noise = false;
  double NoiseStddev = 0.02;
  /// Runs per measurement; the median is reported (paper: 5).
  unsigned Runs = 5;
  uint64_t Seed = 0x5eed;
};

/// Estimates execution times of (module, schedule) pairs: the cost
/// model plus the testbed's measurement protocol (noise, median-of-K).
class Runner : public Evaluator {
public:
  explicit Runner(MachineModel Machine, RunnerOptions Options = {});

  /// Median "measured" time of a materialized program, seconds.
  double timeNests(const std::vector<LoopNest> &Nests) override;

  /// Per-nest prices are the undisturbed model estimates; the noise +
  /// median-of-K protocol applies once at module level in
  /// combineNestPrices, exactly as timeNests applies it to the summed
  /// estimate -- so incremental pricing reproduces timeNests bitwise.
  double priceNest(const LoopNest &Nest) override;
  double combineNestPrices(double SumSeconds) override;

  // timeModule / timeBaseline / speedup / timeState come from Evaluator
  // (materialize + timeNests, or per-nest prices + the combiner), so
  // every entry point shares the noise protocol.

private:
  double measure(double ModelSeconds);

  CostModel Model;
  RunnerOptions Options;
  /// Noise stream, mutex-guarded so parallel episode collection can
  /// share one Runner. With noise enabled the stream's consumption order
  /// depends on scheduling, so noisy measurements are only
  /// replay-deterministic single-threaded; training keeps noise off.
  Rng Noise;
  std::mutex NoiseMutex;
};

} // namespace mlirrl

#endif // MLIRRL_PERF_RUNNER_H
