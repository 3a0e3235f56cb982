//===- PostTransformChecks.cpp --------------------------------------------===//

#include "transforms/PostTransformChecks.h"

#include "ir/Verifier.h"
#include "transforms/Legality.h"

#include <algorithm>
#include <concepts>
#include <string>
#include <type_traits>

using namespace mlirrl;

namespace {

/// Accumulates the first violation; later check() calls are no-ops once
/// one fired, so callers can chain checks without early returns. The
/// message is a callable run only for that first violation: passing
/// checks, the common case on every environment step, format nothing.
class Checker {
public:
  explicit Checker(std::string &ErrorMessage) : Err(ErrorMessage) {}

  template <typename MessageFn>
    requires std::invocable<MessageFn> &&
             std::convertible_to<std::invoke_result_t<MessageFn>, std::string>
  bool check(bool Condition, MessageFn &&Message) {
    if (!Condition && !Failed) {
      Failed = true;
      Err = Message();
    }
    return Condition;
  }

  bool ok() const { return !Failed; }

private:
  std::string &Err;
  bool Failed = false;
};

std::string loopDesc(const std::string &Where, const ScheduledLoop &L) {
  return Where + " loop (dim " + std::to_string(L.IterDim) + ", trip " +
         std::to_string(L.TripCount) + ", step " + std::to_string(L.Step) +
         ")";
}

int64_t ceilDiv(int64_t A, int64_t B) { return (A + B - 1) / B; }

} // namespace

bool mlirrl::checkTransformState(const OpTransformState &State,
                                 std::string &ErrorMessage) {
  Checker C(ErrorMessage);
  const LinalgOp &Op = State.getOp();
  const unsigned NumLoops = Op.getNumLoops();

  C.check(isValidPermutation(State.getOrder(), NumLoops), [&] {
    return "loop order of " + Op.getResult() + " is not a permutation";
  });

  // Bands refine the iteration box outermost-in: every non-zero tile
  // entry must be strictly below the extent remaining after the bands
  // above it (applyTiled drops no-op sizes at application time, so a
  // violation here means the state was corrupted after the fact).
  std::vector<int64_t> Remaining = Op.getLoopBounds();
  const auto &Bands = State.getBands();
  for (unsigned BandIdx = 0; BandIdx < Bands.size(); ++BandIdx) {
    const OpTransformState::Band &B = Bands[BandIdx];
    if (!C.check(B.TileByDim.size() == NumLoops, [&] {
          return "band " + std::to_string(BandIdx) + " of " + Op.getResult() +
                 " has wrong tile arity";
        }))
      return false;
    C.check(!B.Parallel || BandIdx == 0, [&] {
      return "parallel flag on non-front band " + std::to_string(BandIdx) +
             " of " + Op.getResult();
    });
    for (unsigned Dim = 0; Dim < NumLoops; ++Dim) {
      int64_t Size = B.TileByDim[Dim];
      if (Size == 0)
        continue;
      C.check(Size > 0 && Size < Remaining[Dim], [&] {
        return "band " + std::to_string(BandIdx) + " of " + Op.getResult() +
               ": tile size " + std::to_string(Size) + " on dim " +
               std::to_string(Dim) + " does not refine extent " +
               std::to_string(Remaining[Dim]);
      });
      if (Size > 0 && Size < Remaining[Dim])
        Remaining[Dim] = Size;
    }
  }

  if (State.isVectorized())
    C.check(isVectorizationLegal(Op, State.getInnermostTrip()), [&] {
      return "vectorized state of " + Op.getResult() +
             " violates the vectorization mask (innermost trip " +
             std::to_string(State.getInnermostTrip()) + ")";
    });
  return C.ok();
}

/// Checks one body's access list: exactly one write, in last position,
/// and one access per op input plus the output.
static bool checkBodyAccesses(Checker &C, const LinalgOp &Op,
                              const NestBody &Body) {
  unsigned Writes = 0;
  for (const TensorAccess &A : Body.Accesses)
    Writes += A.IsWrite;
  C.check(Writes == 1 && !Body.Accesses.empty() && Body.Accesses.back().IsWrite,
          [&] {
            return "body " + Body.Name +
                   " must have exactly one write access, last";
          });
  C.check(Body.Accesses.size() == Op.getNumInputs() + 1, [&] {
    return "body " + Body.Name + " access count does not match op operands";
  });
  if (!Body.Accesses.empty())
    C.check(Body.Accesses.back().Value == Op.getResult(), [&] {
      return "body " + Body.Name + " write access is not the op result";
    });
  return C.ok();
}

bool mlirrl::checkLoopNest(const Module &M, unsigned OpIdx,
                           const OpSchedule &Sched, const LoopNest &Nest,
                           std::string &ErrorMessage) {
  Checker C(ErrorMessage);
  const LinalgOp &Op = M.getOp(OpIdx);
  const unsigned NumLoops = Op.getNumLoops();
  const std::vector<int64_t> Bounds = Op.getLoopBounds();

  if (!C.check(!Nest.Bodies.empty(), [&] {
        return "nest of " + Op.getResult() + " has no bodies";
      }))
    return false;
  if (!C.check(Nest.Bodies.size() == Sched.FusedProducers.size() + 1, [&] {
        return "nest of " + Op.getResult() +
               " body count does not match fused producer count";
      }))
    return false;

  // ---- Outer band: tile loops of the consumer -------------------------
  for (const ScheduledLoop &L : Nest.OuterBand) {
    C.check(L.IsTileLoop,
            [&] { return loopDesc("outer-band", L) + " is not a tile loop"; });
    C.check(L.IterDim < NumLoops,
            [&] { return loopDesc("outer-band", L) + " dim out of range"; });
    C.check(L.TripCount >= 1 && L.Step >= 1, [&] {
      return loopDesc("outer-band", L) + " has a degenerate trip or step";
    });
    C.check(!L.Vectorized,
            [&] { return loopDesc("outer-band", L) + " is vectorized"; });
    if (L.IterDim < NumLoops) {
      C.check(L.Kind == Op.getIterator(L.IterDim), [&] {
        return loopDesc("outer-band", L) + " iterator kind mismatch";
      });
      C.check(!L.Parallel || L.Kind == IteratorKind::Parallel, [&] {
        return loopDesc("outer-band", L) + " parallelizes a reduction";
      });
    }
  }
  // Only the outermost tile loop of a dimension (the front band's) may
  // be parallel: later bands subdivide a single front-band tile.
  std::vector<bool> SeenTile(NumLoops, false);
  for (const ScheduledLoop &L : Nest.OuterBand) {
    if (L.IterDim >= NumLoops)
      continue;
    C.check(!L.Parallel || !SeenTile[L.IterDim], [&] {
      return loopDesc("outer-band", L) + " parallel below the front band";
    });
    SeenTile[L.IterDim] = true;
  }

  // ---- Consumer body: point loops covering the residue ----------------
  const NestBody &Consumer = Nest.Bodies.back();
  C.check(Consumer.Name == Op.getResult(), [&] {
    return "consumer body of " + Op.getResult() + " is named " + Consumer.Name;
  });
  std::vector<int64_t> Remaining = Bounds;
  for (const ScheduledLoop &L : Nest.OuterBand) {
    if (L.IterDim >= NumLoops)
      continue;
    int64_t &Rem = Remaining[L.IterDim];
    C.check(L.Step >= 1 && L.Step < Rem, [&] {
      return loopDesc("tile", L) + " step does not refine remaining extent " +
             std::to_string(Rem);
    });
    C.check(L.Step < 1 || L.TripCount == ceilDiv(Rem, L.Step), [&] {
      return loopDesc("tile", L) + " trip is not ceil(" + std::to_string(Rem) +
             " / " + std::to_string(L.Step) + ")";
    });
    if (L.Step >= 1 && L.Step < Rem)
      Rem = L.Step;
  }
  std::vector<unsigned> PointSeen(NumLoops, 0);
  for (const ScheduledLoop &L : Consumer.Loops) {
    C.check(!L.IsTileLoop,
            [&] { return loopDesc("consumer", L) + " is a tile loop"; });
    C.check(!L.Parallel, [&] {
      return loopDesc("consumer", L) + " point loop is parallel";
    });
    C.check(L.Step == 1,
            [&] { return loopDesc("consumer", L) + " point step is not 1"; });
    if (!C.check(L.IterDim < NumLoops,
                 [&] { return loopDesc("consumer", L) + " dim out of range"; }))
      continue;
    ++PointSeen[L.IterDim];
    C.check(L.TripCount == Remaining[L.IterDim], [&] {
      return loopDesc("consumer", L) + " trip does not match residual extent " +
             std::to_string(Remaining[L.IterDim]);
    });
    C.check(L.Kind == Op.getIterator(L.IterDim), [&] {
      return loopDesc("consumer", L) + " iterator kind mismatch";
    });
  }
  for (unsigned Dim = 0; Dim < NumLoops; ++Dim)
    C.check(PointSeen[Dim] == 1, [&] {
      return "consumer body of " + Op.getResult() + " scans dim " +
             std::to_string(Dim) + " " + std::to_string(PointSeen[Dim]) +
             " times";
    });
  for (unsigned I = 0; I < Consumer.Loops.size(); ++I)
    C.check(!Consumer.Loops[I].Vectorized || I + 1 == Consumer.Loops.size(),
            [&] {
              return "vectorized loop of " + Op.getResult() +
                     " is not innermost";
            });
  checkBodyAccesses(C, Op, Consumer);

  // ---- Fused producer bodies ------------------------------------------
  for (unsigned P = 0; P + 1 < Nest.Bodies.size(); ++P) {
    const unsigned ProducerIdx = Sched.FusedProducers[P];
    if (!C.check(ProducerIdx < M.getNumOps(),
                 [] { return "fused producer index out of range"; }))
      return false;
    const LinalgOp &Producer = M.getOp(ProducerIdx);
    const NestBody &Body = Nest.Bodies[P];
    C.check(Body.Name == Producer.getResult(), [&] {
      return "fused body " + std::to_string(P) + " of " + Op.getResult() +
             " is named " + Body.Name + ", expected " + Producer.getResult();
    });
    if (!C.check(Body.Loops.size() == Producer.getNumLoops(), [&] {
          return "fused body " + Body.Name + " loop count mismatch";
        }))
      continue;
    const std::vector<int64_t> PBounds = Producer.getLoopBounds();
    for (unsigned I = 0; I < Body.Loops.size(); ++I) {
      const ScheduledLoop &L = Body.Loops[I];
      C.check(L.IterDim == I, [&] {
        return loopDesc("fused " + Body.Name, L) + " dims out of order";
      });
      C.check(!L.IsTileLoop && !L.Parallel && !L.Vectorized && L.Step == 1,
              [&] {
                return loopDesc("fused " + Body.Name, L) +
                       " is not a plain point loop";
              });
      C.check(L.TripCount >= 1 && L.TripCount <= PBounds[I], [&] {
        return loopDesc("fused " + Body.Name, L) +
               " trip outside the producer's bound " +
               std::to_string(PBounds[I]);
      });
      C.check(L.Kind == Producer.getIterator(I), [&] {
        return loopDesc("fused " + Body.Name, L) + " iterator kind mismatch";
      });
      // Fusion never truncates reductions: a partial reduction would
      // change the computed value, not just its schedule.
      C.check(Producer.getIterator(I) != IteratorKind::Reduction ||
                  L.TripCount == PBounds[I],
              [&] {
                return loopDesc("fused " + Body.Name, L) +
                       " truncates a reduction";
              });
    }
    checkBodyAccesses(C, Producer, Body);
    C.check(std::find(Nest.FusedIntermediates.begin(),
                      Nest.FusedIntermediates.end(),
                      Producer.getResult()) != Nest.FusedIntermediates.end(),
            [&] {
              return "fused producer " + Producer.getResult() +
                     " missing from FusedIntermediates";
            });
  }
  return C.ok();
}

bool mlirrl::checkCandidateAction(const Module &M, unsigned OpIdx,
                                  const OpSchedule &Sched,
                                  std::string &ErrorMessage) {
  Checker C(ErrorMessage);
  if (!C.check(OpIdx < M.getNumOps(), [] { return "op index out of range"; }))
    return false;

  // Fused producer indices must be in range, distinct, and never the
  // consumer itself -- before M.getOp can be asked about them.
  for (unsigned I = 0; I < Sched.FusedProducers.size(); ++I) {
    unsigned P = Sched.FusedProducers[I];
    if (!C.check(P < M.getNumOps() && P != OpIdx, [&] {
          return "fused producer index " + std::to_string(P) + " invalid";
        }))
      return false;
    for (unsigned J = 0; J < I; ++J)
      if (!C.check(Sched.FusedProducers[J] != P, [&] {
            return "fused producer " + std::to_string(P) + " listed twice";
          }))
        return false;
  }

  Expected<OpTransformState> Replayed =
      replayOpSchedule(M.getOp(OpIdx), Sched);
  if (!C.check(Replayed.hasValue(), [&] {
        return "schedule does not replay: " + Replayed.getError();
      }))
    return false;
  if (!checkTransformState(*Replayed, ErrorMessage))
    return false;

  Expected<LoopNest> Nest = materializeLoopNestChecked(M, OpIdx, Sched);
  if (!C.check(Nest.hasValue(), [&] {
        return "nest does not materialize: " + Nest.getError();
      }))
    return false;
  if (!checkLoopNest(M, OpIdx, Sched, *Nest, ErrorMessage))
    return false;

  std::string VerifyErr;
  if (!C.check(verifyOp(M, M.getOp(OpIdx), VerifyErr),
               [&] { return "op fails IR verification: " + VerifyErr; }))
    return false;
  return C.ok();
}

bool mlirrl::verifyScheduleState(ScheduleState &State,
                                 std::string &ErrorMessage) {
  Checker C(ErrorMessage);
  const Module &M = State.getModule();
  const ModuleSchedule &Sched = State.getSchedule();

  std::string VerifyErr;
  if (!C.check(verifyModule(M, VerifyErr),
               [&] { return "module fails IR verification: " + VerifyErr; }))
    return false;

  // ---- Fused-away bookkeeping -----------------------------------------
  // Every fused-away op is claimed by exactly one live op's fused group,
  // keeps no standalone schedule, and is absent from the live set.
  for (unsigned Away : Sched.FusedAway) {
    if (!C.check(Away < M.getNumOps(),
                 [] { return "fused-away index out of range"; }))
      return false;
    C.check(std::find(State.liveOps().begin(), State.liveOps().end(), Away) ==
                State.liveOps().end(),
            [&] {
              return "fused-away op " + std::to_string(Away) + " is still live";
            });
    unsigned Claims = 0;
    for (const auto &[Idx, OpSched] : Sched.OpSchedules) {
      if (Sched.isFusedAway(Idx))
        continue;
      Claims += static_cast<unsigned>(
          std::count(OpSched.FusedProducers.begin(),
                     OpSched.FusedProducers.end(), Away));
    }
    C.check(Claims == 1, [&] {
      return "fused-away op " + std::to_string(Away) + " claimed by " +
             std::to_string(Claims) + " live groups";
    });
  }
  for (const auto &[Idx, OpSched] : Sched.OpSchedules)
    for (unsigned P : OpSched.FusedProducers)
      C.check(Sched.isFusedAway(P), [&] {
        return "fused producer " + std::to_string(P) + " of op " +
               std::to_string(Idx) + " is not marked fused away";
      });

  // ---- Per-op checks and stale-cache detection ------------------------
  static const OpSchedule EmptySchedule;
  for (unsigned OpIdx : State.liveOps()) {
    auto It = Sched.OpSchedules.find(OpIdx);
    const OpSchedule &OpSched =
        It == Sched.OpSchedules.end() ? EmptySchedule : It->second;
    // The nested pass writes its own message, so an earlier failure
    // recorded here must not be overwritten by it.
    std::string OpErr;
    if (!C.check(checkCandidateAction(M, OpIdx, OpSched, OpErr),
                 [&] { return OpErr; }))
      return false;
    // Stale-cache detection: the cached nest must be identical to a
    // from-scratch materialization of the committed schedule.
    Expected<LoopNest> Fresh = materializeLoopNestChecked(M, OpIdx, OpSched);
    if (!C.check(Fresh.hasValue(), [&] {
          return "live op " + std::to_string(OpIdx) +
                 " does not materialize: " + Fresh.getError();
        }))
      return false;
    C.check(State.getNest(OpIdx).toString() == Fresh->toString(), [&] {
      return "cached nest of op " + std::to_string(OpIdx) +
             " is stale (differs from a fresh materialization)";
    });
  }
  return C.ok();
}
