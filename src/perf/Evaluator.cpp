//===- Evaluator.cpp ------------------------------------------------------===//

#include "perf/Evaluator.h"

#include "support/Hash.h"
#include "transforms/Apply.h"

using namespace mlirrl;

double Evaluator::timeModule(const Module &M, const ModuleSchedule &Sched) {
  return timeNests(materializeModule(M, Sched));
}

double Evaluator::timeBaseline(const Module &M) {
  return timeNests(materializeBaseline(M));
}

double Evaluator::speedup(const Module &M, const ModuleSchedule &Sched) {
  return timeBaseline(M) / timeModule(M, Sched);
}

double Evaluator::priceNest(const LoopNest &Nest) {
  return timeNests({Nest});
}

double Evaluator::priceDirtyOp(ScheduleState &State, unsigned OpIdx) {
  return priceNest(State.getNest(OpIdx));
}

double Evaluator::timeState(ScheduleState &State) {
  // One loop for every implementation (priceDirtyOp is the only
  // variation point): re-price dirty ops, reuse every clean op's cached
  // price, and sum in ascending op order -- the exact order
  // materializeModule walks, so the sum is bitwise-identical to the
  // from-scratch path. The counter reference is resolved once:
  // named() hands out stable references, and this is the hot path.
  static HitMissCounters &Reuse =
      CacheStatsRegistry::instance().named("state.price_reuse");
  double Sum = 0.0;
  for (unsigned OpIdx : State.liveOps()) {
    if (State.hasPrice(OpIdx)) {
      Reuse.recordHit();
    } else {
      Reuse.recordMiss();
      State.setPrice(OpIdx, priceDirtyOp(State, OpIdx));
    }
    Sum += State.getPrice(OpIdx);
  }
  return combineNestPrices(Sum);
}

// ---------------------------------------------------------------------------
// Structural hashing
// ---------------------------------------------------------------------------

uint64_t mlirrl::hashModuleSchedule(const ModuleSchedule &Sched) {
  FnvHasher H(0x84222325cbf29ce4ull);
  H.word(Sched.OpSchedules.size());
  for (const auto &[OpIdx, Op] : Sched.OpSchedules) {
    H.word(OpIdx);
    H.word(Op.Transforms.size());
    for (const Transformation &T : Op.Transforms) {
      H.word(static_cast<uint64_t>(T.Kind));
      H.word(T.TileSizes.size());
      for (int64_t S : T.TileSizes)
        H.signedWord(S);
      H.word(T.Permutation.size());
      for (unsigned P : T.Permutation)
        H.word(P);
    }
    H.word(Op.FusedProducers.size());
    for (unsigned P : Op.FusedProducers)
      H.word(P);
  }
  H.word(Sched.FusedAway.size());
  for (unsigned P : Sched.FusedAway)
    H.word(P);
  return H.finish();
}

// ---------------------------------------------------------------------------
// CachingEvaluator
// ---------------------------------------------------------------------------

CachingEvaluator::CachingEvaluator(Evaluator &Inner, size_t Capacity,
                                   unsigned Shards)
    : Inner(Inner), PerOp("evaluator.op_memo", Capacity, Shards) {}

double CachingEvaluator::timeNests(const std::vector<LoopNest> &Nests) {
  return Inner.timeNests(Nests);
}

double CachingEvaluator::priceNest(const LoopNest &Nest) {
  return Inner.priceNest(Nest);
}

double CachingEvaluator::combineNestPrices(double SumSeconds) {
  return Inner.combineNestPrices(SumSeconds);
}

double CachingEvaluator::priceDirtyOp(ScheduleState &State, unsigned OpIdx) {
  return PerOp.memoized(State.opMemoKey(OpIdx), [&] {
    return Inner.priceNest(State.getNest(OpIdx));
  });
}
