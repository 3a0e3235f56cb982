//===- PostTransformChecks.h - Post-transform invariant pass -----*- C++-*-===//
///
/// \file
/// The invariant pass behind the crash-free untrusted-module pipeline:
/// after every applied action, the evolving transform state and the
/// materialized loop nest are re-validated against the rules the engine
/// is supposed to enforce -- band/tile consistency, permutation
/// validity, fused-producer derivability, structural invariants of the
/// materialized LoopNest, and IR-level verification of the op itself.
/// An illegal schedule is caught at the action that introduced it, not
/// as corrupted pricing three steps later.
///
/// All predicates follow the Verifier idiom: false + ErrorMessage on
/// violation, never a fatal. A predicate formats a message only for the
/// first violation it finds, so a passing check builds no string. The
/// environment runs checkCandidateAction before committing an action
/// (behind EnvConfig::PostTransformChecks); tests and the fuzz harness
/// run verifyScheduleState unconditionally after every step.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_TRANSFORMS_POSTTRANSFORMCHECKS_H
#define MLIRRL_TRANSFORMS_POSTTRANSFORMCHECKS_H

#include "transforms/Apply.h"
#include "transforms/ScheduleState.h"

#include <string>

namespace mlirrl {

/// Validates the internal consistency of an evolving per-op transform
/// state: the loop order is a permutation, every band has one tile entry
/// per original dimension with non-negative sizes, the parallel flag
/// only appears on the front band, and a vectorized state satisfies the
/// vectorization mask on its final innermost trip.
bool checkTransformState(const OpTransformState &State,
                         std::string &ErrorMessage);

/// Validates the structural invariants of a materialized nest of op
/// \p OpIdx under \p Sched: per dimension, tile loops refine the extent
/// outermost-in (1 <= Step < remaining, TripCount == ceil(rem/Step))
/// down to exactly one unit-step point loop covering the residue; the
/// parallel flag appears only on front-band tile loops of parallel
/// dimensions; vectorization marks only the consumer's innermost loop;
/// each body carries exactly one write access, in last position; fused
/// producer bodies scan their dimensions in order with trips clamped to
/// the producer's bounds (reductions always in full).
bool checkLoopNest(const Module &M, unsigned OpIdx, const OpSchedule &Sched,
                   const LoopNest &Nest, std::string &ErrorMessage);

/// The per-action gate: replays \p Sched from scratch against op
/// \p OpIdx (catching sequences the engine would reject), materializes
/// the nest through the checked path (catching underivable fused
/// producers), then runs checkTransformState, checkLoopNest and
/// verifyOp. This is what the environment runs before committing each
/// action when EnvConfig::PostTransformChecks is on.
bool checkCandidateAction(const Module &M, unsigned OpIdx,
                          const OpSchedule &Sched, std::string &ErrorMessage);

/// Full-state validation for tests and the fuzz harness: verifies the
/// module, re-runs checkCandidateAction for every live op, checks the
/// fused-away bookkeeping (every fused-away op is claimed by exactly one
/// live op's fused group and has no standalone schedule), and detects
/// stale caches by comparing every cached nest against a from-scratch
/// materialization.
bool verifyScheduleState(ScheduleState &State, std::string &ErrorMessage);

} // namespace mlirrl

#endif // MLIRRL_TRANSFORMS_POSTTRANSFORMCHECKS_H
