//===- Apply.h - Applying schedules to operations ----------------*- C++-*-===//
///
/// \file
/// The transformation engine: replays a transformation sequence against a
/// Linalg operation, maintaining the evolving loop structure (tile bands,
/// loop order, parallel and vector markers), and materializes the final
/// LoopNest the performance model executes. Fused producers are
/// materialized at the tile granularity of the consumer, mirroring
/// Linalg's tile-and-fuse.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_TRANSFORMS_APPLY_H
#define MLIRRL_TRANSFORMS_APPLY_H

#include "ir/Module.h"
#include "support/Error.h"
#include "transforms/LoopNest.h"
#include "transforms/Schedule.h"

#include <string>
#include <vector>

namespace mlirrl {

/// The evolving loop structure of one operation under transformation.
class OpTransformState {
public:
  /// Starts from the untransformed operation: original loop order, no
  /// bands, nothing parallel or vectorized.
  explicit OpTransformState(const LinalgOp &Op);

  /// One level of tiling. TileByDim is indexed by *original* dimension;
  /// zero entries leave that dimension untiled at this band.
  struct Band {
    std::vector<int64_t> TileByDim;
    bool Parallel = false;
  };

  const std::vector<unsigned> &getOrder() const { return Order; }
  const std::vector<Band> &getBands() const { return Bands; }
  bool isVectorized() const { return Vectorized; }

  /// Point-loop trip count per original dimension after all bands.
  std::vector<int64_t> getPointTrips() const;

  /// Trip count of the current innermost point loop (the vectorization
  /// mask consults this).
  int64_t getInnermostTrip() const;

  /// Outcome of one transformation application.
  struct ApplyResult {
    bool Applied = false;
    std::string Reason;
    static ApplyResult success() { return {true, ""}; }
    static ApplyResult failure(std::string Why) {
      return {false, std::move(Why)};
    }
  };

  /// Applies \p T; on failure the state is unchanged and the reason names
  /// the violated rule.
  ApplyResult apply(const Transformation &T);

  const LinalgOp &getOp() const { return Op; }

private:
  ApplyResult applyTiled(const Transformation &T, bool Parallel);
  ApplyResult applyInterchange(const Transformation &T);
  ApplyResult applyVectorization();

  LinalgOp Op;
  std::vector<unsigned> Order;
  std::vector<Band> Bands;
  bool Vectorized = false;
};

/// Replays \p Sched's transformation sequence against \p Op. Fails with
/// the engine's rejection reason when any transform of the sequence is
/// inapplicable -- the recoverable path for schedules of unknown
/// provenance (imported modules, fuzzed actions, corrupted archives).
Expected<OpTransformState> replayOpSchedule(const LinalgOp &Op,
                                            const OpSchedule &Sched);

/// Materializes the scheduled loop nest of op \p OpIdx. Producer ops in
/// \p Sched.FusedProducers are inlined at the consumer's tile
/// granularity: their per-visit domains are derived from the consumer's
/// point box through the access maps. Fails (instead of aborting) when
/// the transformation sequence does not replay or a fused producer is
/// not read by the fused group -- the untrusted-input entry point.
Expected<LoopNest> materializeLoopNestChecked(const Module &M, unsigned OpIdx,
                                              const OpSchedule &Sched);

/// Like materializeLoopNestChecked, but treats failure as an internal
/// invariant violation (reportFatalError). Only for schedules that were
/// already validated at the boundary (the environment's post-transform
/// gate, engine-generated schedules); anything externally sourced must
/// go through the checked variant.
LoopNest materializeLoopNest(const Module &M, unsigned OpIdx,
                             const OpSchedule &Sched);

/// Materializes every non-fused-away op of the module; fails on the
/// first op whose schedule does not replay.
Expected<std::vector<LoopNest>>
materializeModuleChecked(const Module &M, const ModuleSchedule &Sched);

/// Materializes every non-fused-away op of the module. Fatal-on-error
/// wrapper over materializeModuleChecked (see materializeLoopNest).
std::vector<LoopNest> materializeModule(const Module &M,
                                        const ModuleSchedule &Sched);

/// The baseline used throughout the paper: the module with no loop-level
/// optimization at all.
std::vector<LoopNest> materializeBaseline(const Module &M);

} // namespace mlirrl

#endif // MLIRRL_TRANSFORMS_APPLY_H
