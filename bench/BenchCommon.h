//===- BenchCommon.h - Shared benchmark-harness helpers ----------*- C++-*-===//
///
/// \file
/// Shared setup for the experiment harness: laptop-scale training of the
/// MLIR RL agent (same architecture as the paper, narrower nets and fewer
/// iterations — see DESIGN.md) and table printing. Every bench binary
/// regenerates one table or figure of the paper and prints the paper's
/// numbers next to ours.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_BENCH_BENCHCOMMON_H
#define MLIRRL_BENCH_BENCHCOMMON_H

#include "baselines/HalideRl.h"
#include "baselines/LibraryOracle.h"
#include "baselines/Mullapudi.h"
#include "datasets/Dataset.h"
#include "datasets/Models.h"
#include "rl/MlirRl.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>
#include <memory>

namespace mlirrl {
namespace bench {

/// The standard laptop-scale agent configuration used across benches.
inline MlirRlOptions standardOptions(unsigned Iterations = 120,
                                     uint64_t Seed = 1234) {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Iterations = Iterations;
  O.Ppo.SamplesPerIteration = 16;
  O.Seed = Seed;
  return O;
}

/// The DNN-operator training set used by Fig. 5 / Table III benches.
inline std::vector<Module> operatorTrainingSet(uint64_t Seed = 11) {
  Rng R(Seed);
  return generateDnnOperatorDataset(R, DnnDatasetCounts::scaled(0.08));
}

/// Clears every cache hit/miss counter in the process (the evaluator's
/// per-op memo, the state's price reuse, the GEMM pack arena) so
/// a bench's reported hit rates cover exactly the iterations it times,
/// instead of accumulating across warmup and earlier repetitions (which
/// overstated rates: every rep after the first started with a warm
/// cache *and* the previous reps' counts). One entry point for all of
/// them: the support/Stats.h registry.
inline void resetCacheStats() { CacheStatsRegistry::instance().resetAll(); }

/// Trains a fresh agent on \p Dataset and returns it.
inline std::unique_ptr<MlirRl> trainAgent(const MlirRlOptions &Options,
                                          const std::vector<Module> &Dataset,
                                          const char *Tag) {
  std::printf("[train] %s: %u iterations on %zu samples...\n", Tag,
              Options.Iterations, Dataset.size());
  auto Sys = std::make_unique<MlirRl>(Options);
  Sys->train(Dataset);
  return Sys;
}

/// Prints a rendered table with a heading.
inline void printTable(const char *Title, const TextTable &Table) {
  std::printf("\n== %s ==\n%s\n", Title, Table.render().c_str());
}

} // namespace bench
} // namespace mlirrl

#endif // MLIRRL_BENCH_BENCHCOMMON_H
