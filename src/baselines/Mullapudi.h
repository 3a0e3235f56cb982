//===- Mullapudi.h - The Halide autoscheduler baseline -----------*- C++-*-===//
///
/// \file
/// A model of the Mullapudi et al. Halide autoscheduler (the Table IV
/// baseline): a greedy heuristic that tiles pure dimensions so the tile
/// working set fits the L2 cache, parallelizes the outer tile loops, and
/// vectorizes the innermost pure dimension. Like the real autoscheduler
/// it never reorders or tiles reduction domains and applies one schedule
/// template per stage.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_BASELINES_MULLAPUDI_H
#define MLIRRL_BASELINES_MULLAPUDI_H

#include "baselines/ScheduleUtil.h"
#include "perf/Evaluator.h"

namespace mlirrl {

/// The greedy autoscheduler.
class MullapudiAutoscheduler {
public:
  /// Prices through a CostModelEvaluator over \p Machine, which the
  /// footprint heuristic also reads.
  explicit MullapudiAutoscheduler(MachineModel Machine);

  /// End-to-end time of the module under the autoscheduled program.
  double timeModule(const Module &M) const;

  /// The directives its heuristic picks for one op (for tests).
  HalideDirectives scheduleOp(const Module &M, unsigned OpIdx) const;

private:
  /// Mutable: the const queries price through it (timeNests is a
  /// non-const evaluator call; the cost model holds no state).
  mutable CostModelEvaluator Eval;
  MachineModel Machine;
};

} // namespace mlirrl

#endif // MLIRRL_BASELINES_MULLAPUDI_H
