//===- HalideRl.h - The Halide RL baseline -----------------------*- C++-*-===//
///
/// \file
/// A model of Halide RL (Pecenin et al.), the semi-automatic RL baseline
/// of Sec. VII. Its agent picks from a *user-provided directive list*
/// over pure (output) variables only: tile/split, reorder, parallel,
/// vectorize. It therefore (a) can vectorize windowed reductions like
/// pooling (Halide's vectorizer is not Linalg's), and (b) cannot tile or
/// reorder reduction domains, which is what costs it on Matmul (the
/// paper reports MLIR RL 5.32x ahead there). We model the converged
/// agent as exhaustive search over that directive list under the shared
/// cost model.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_BASELINES_HALIDERL_H
#define MLIRRL_BASELINES_HALIDERL_H

#include "baselines/ScheduleUtil.h"
#include "perf/Evaluator.h"

namespace mlirrl {

/// The Halide RL baseline.
class HalideRlBaseline {
public:
  /// Prices through a CostModelEvaluator over \p Machine.
  explicit HalideRlBaseline(MachineModel Machine);

  /// Best-of-directive-list time for one module (ops scheduled
  /// independently, like per-stage Halide schedules).
  double timeModule(const Module &M) const;

  /// The directive list the "agent" chooses from.
  static std::vector<HalideDirectives> directiveCandidates();

  /// Best directives for one op (exposed for tests).
  HalideDirectives bestDirectives(const Module &M, unsigned OpIdx,
                                  double *BestSeconds = nullptr) const;

private:
  /// Mutable: the const queries price through it (timeNests is a
  /// non-const evaluator call; the cost model holds no state).
  mutable CostModelEvaluator Eval;
};

} // namespace mlirrl

#endif // MLIRRL_BASELINES_HALIDERL_H
