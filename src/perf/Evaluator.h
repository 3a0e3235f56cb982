//===- Evaluator.h - The reward-measurement seam -----------------*- C++-*-===//
///
/// \file
/// The one interface everything measures through: the RL environment's
/// rewards, the search baselines (RandomSearch, Mullapudi, Halide RL)
/// and the benches all price programs via an Evaluator instead of
/// hard-wiring a Runner or a CostModel. The core operation prices a
/// materialized program (a list of scheduled loop nests); module-level
/// entry points materialize and delegate. Implementations must be
/// thread-safe: one Evaluator is shared by all parallel episode
/// collectors and by every environment of a VecEnv batch.
///
/// Two pricing granularities coexist:
///
///  * whole-module (timeNests / timeModule / timeBaseline) -- the
///    from-scratch oracle;
///  * per-nest (priceNest + combineNestPrices) and incremental
///    (timeState over a ScheduleState) -- only dirty op nests are
///    re-materialized and re-priced; clean ops reuse their cached
///    price. The contract: summing the per-nest prices of a program's
///    nests in nest order and applying combineNestPrices reproduces
///    timeNests bitwise, so the two granularities are interchangeable.
///
/// Implementations:
///  * CostModelEvaluator -- the analytical cost model, undisturbed
///    (deterministic; the training default).
///  * Runner (perf/Runner.h) -- adds measurement noise and median-of-K
///    runs on top of the cost model (the paper's testbed stand-in).
///  * CachingEvaluator -- a decorator over any inner evaluator holding
///    the one price memo: a per-op table behind timeState. Every other
///    entry point reaches the inner evaluator unmemoized.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_PERF_EVALUATOR_H
#define MLIRRL_PERF_EVALUATOR_H

#include "ir/Module.h"
#include "perf/CostModel.h"
#include "support/Stats.h"
#include "support/StripedLru.h"
#include "transforms/Schedule.h"
#include "transforms/ScheduleState.h"

namespace mlirrl {

/// Abstract measurement interface. All entry points are thread-safe.
class Evaluator {
public:
  virtual ~Evaluator() = default;

  /// Prices a materialized program: the "measured" execution time in
  /// seconds of the given scheduled loop nests.
  virtual double timeNests(const std::vector<LoopNest> &Nests) = 0;

  /// "Measured" time of the module under \p Sched. The default
  /// materializes and delegates to timeNests.
  virtual double timeModule(const Module &M, const ModuleSchedule &Sched);

  /// "Measured" time of the unoptimized baseline.
  virtual double timeBaseline(const Module &M);

  /// Speedup of \p Sched over the baseline (> 1 means faster).
  double speedup(const Module &M, const ModuleSchedule &Sched);

  /// Price of one nest, such that combineNestPrices over the ordered sum
  /// of a program's per-nest prices equals timeNests of that program
  /// bitwise. The default prices a single-nest program with no combiner
  /// applied -- correct for any evaluator whose timeNests is a plain sum
  /// over nests; evaluators with module-level post-processing (Runner's
  /// noise protocol) must override both members as a pair.
  virtual double priceNest(const LoopNest &Nest);

  /// Module-level combiner over the sum of per-nest prices (identity by
  /// default; Runner applies its measurement protocol here).
  virtual double combineNestPrices(double SumSeconds) { return SumSeconds; }

  /// Incremental equivalent of timeModule: prices \p State's schedule,
  /// re-pricing only ops whose cached price was invalidated by
  /// ScheduleState::apply (through the priceDirtyOp hook) and summing
  /// live-op prices in ascending op order (materializeModule's order,
  /// so the result is bitwise equal to the from-scratch path). The
  /// state's price slots are filled as a side effect; a state must only
  /// ever be priced through one evaluator.
  double timeState(ScheduleState &State);

protected:
  /// Prices one dirty op of a state (default: materialize + priceNest;
  /// CachingEvaluator answers from its per-op memo instead).
  virtual double priceDirtyOp(ScheduleState &State, unsigned OpIdx);
};

/// The analytical cost model as an Evaluator: deterministic, no noise.
/// This is what training and the baselines measure through by default.
class CostModelEvaluator : public Evaluator {
public:
  explicit CostModelEvaluator(MachineModel Machine) : Model(Machine) {}

  double timeNests(const std::vector<LoopNest> &Nests) override {
    return Model.estimateModule(Nests);
  }

  double priceNest(const LoopNest &Nest) override {
    return Model.estimateNest(Nest).TotalSeconds;
  }

private:
  CostModel Model;
};

/// Structural hash of a module schedule (per-op transformation
/// sequences and the fusion structure).
uint64_t hashModuleSchedule(const ModuleSchedule &Sched);

/// A memoizing decorator over any Evaluator. timeState misses consult a
/// per-op memo keyed by ScheduleState::opMemoKey: a hit prices a dirty
/// op without materializing its nest, and the keys are
/// content-addressed so the entries survive across episodes and across
/// samples that share ops. An incremental Environment prices its
/// baseline through timeState too, so every episode's baseline and
/// every step's dirty op are answered from this one table. The
/// whole-module entry points (timeNests, timeModule, timeBaseline) are
/// the from-scratch oracle and are not memoized.
///
/// The table is lock-striped (support/StripedLru.h): one instance is
/// meant to be shared by every collector thread and every environment
/// of every VecEnv group, and shard-local mutexes keep that sharing off
/// a global lock. Sharing and eviction order may differ run to run, but
/// every returned price is bitwise-deterministic (the values are pure
/// functions of the keys), which is the invariant DeterminismMatrixTest
/// sweeps across CollectThreads x shard counts.
///
/// Wrap only deterministic inner evaluators (CostModelEvaluator, or a
/// Runner with noise off): caching a noisy measurement would freeze one
/// noise draw forever.
class CachingEvaluator : public Evaluator {
public:
  static constexpr size_t DefaultCapacity = 1u << 12;

  explicit CachingEvaluator(Evaluator &Inner,
                            size_t Capacity = DefaultCapacity,
                            unsigned Shards = 16);

  double timeNests(const std::vector<LoopNest> &Nests) override;
  double priceNest(const LoopNest &Nest) override;
  double combineNestPrices(double SumSeconds) override;

  /// Per-op memo hit/miss/duplicate counters since construction,
  /// aggregated over shards. Relaxed snapshot; safe to read while
  /// collectors are running.
  HitMissCounters getOpCounters() const { return PerOp.counters(); }

protected:
  /// timeState hook: a per-op memo lookup keyed by
  /// ScheduleState::opMemoKey -- content-addressed, so a hit prices a
  /// dirty op without materializing its nest, and entries are shared
  /// across every episode and sample containing the same op under the
  /// same partial schedule.
  double priceDirtyOp(ScheduleState &State, unsigned OpIdx) override;

private:
  Evaluator &Inner;
  StripedLruMemo<double> PerOp;
};

} // namespace mlirrl

#endif // MLIRRL_PERF_EVALUATOR_H
