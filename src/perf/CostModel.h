//===- CostModel.h - Analytical execution-time estimation --------*- C++-*-===//
///
/// \file
/// The analytical performance model standing in for the paper's program
/// executions (see DESIGN.md, substitution table). Per scheduled loop
/// nest it combines:
///
///  * a compute roofline (scalar vs. SIMD issue, vector-lane utilization,
///    strided-load penalties, loop-carried reduction chains);
///  * a hierarchical memory model: working-set analysis decides the loop
///    depth at which each cache level captures reuse, giving the traffic
///    each level must serve (this is what makes tiling and interchange
///    pay off);
///  * parallel execution across cores (load imbalance, shared DRAM
///    bandwidth, fork overhead);
///  * loop-control overhead (which penalizes degenerate tilings).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_PERF_COSTMODEL_H
#define MLIRRL_PERF_COSTMODEL_H

#include "perf/MachineModel.h"
#include "transforms/LoopNest.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mlirrl {

/// Per-nest time estimate with its components (seconds).
struct TimeBreakdown {
  double ComputeSeconds = 0.0;
  /// Bandwidth-bound components: traffic into L1/L2/L3 served by the next
  /// level out, and DRAM traffic.
  double L1Seconds = 0.0;
  double L2Seconds = 0.0;
  double L3Seconds = 0.0;
  double DramSeconds = 0.0;
  double LoopOverheadSeconds = 0.0;
  double ForkSeconds = 0.0;
  double TotalSeconds = 0.0;

  std::string toString() const;
};

/// Traffic (bytes) into each cache level for one nest, before dividing by
/// bandwidth. Exposed for tests and the cost-model ablation.
struct TrafficBreakdown {
  double IssueBytes = 0.0; // all executed accesses (served by L1)
  double L1Bytes = 0.0;    // misses into L1 (served by L2)
  double L2Bytes = 0.0;    // misses into L2 (served by L3)
  double L3Bytes = 0.0;    // misses into L3 (served by DRAM)
};

/// Structural hash of a scheduled nest: loop-nest shape, access maps and
/// arithmetic -- everything estimateNest consumes. Two nests with equal
/// keys are priced identically.
uint64_t hashLoopNest(const LoopNest &Nest);

/// The analytical cost model: a plain value over its machine
/// description. Pricing is a pure function of (machine, nest), so one
/// model may be shared by any number of threads; memoization lives in
/// front of it, in CachingEvaluator's per-op table (perf/Evaluator.h).
class CostModel {
public:
  explicit CostModel(MachineModel Machine) : Machine(Machine) {}

  /// Estimates execution time of one scheduled nest.
  TimeBreakdown estimateNest(const LoopNest &Nest) const;

  /// Estimates memory traffic of one nest (the memory half of
  /// estimateNest, exposed for validation against the trace simulator).
  TrafficBreakdown estimateTraffic(const LoopNest &Nest) const;

  /// Estimates a whole module: the sum over its nests.
  double estimateModule(const std::vector<LoopNest> &Nests) const;

private:
  MachineModel Machine;
};

} // namespace mlirrl

#endif // MLIRRL_PERF_COSTMODEL_H
