//===- perf_smoke.cpp - CI smoke check for the incremental fast path --------===//
//
// One-repetition guard run by scripts/ci.sh: drives Immediate-reward
// episodes over multi-op modules through the default (incremental)
// environment path and fails if the ScheduleState machinery silently
// regressed to from-scratch behavior:
//
//   * the per-nest op memo ("evaluator.op_memo") must see lookups and,
//     across episodes sharing ops, hits;
//   * the incremental repricer ("state.price_reuse") must reuse cached
//     per-op prices (clean ops must not be re-priced);
//   * incremental stepping must actually run: nests materialized per
//     episode must stay far below ops x steps (the from-scratch count);
//   * the final incremental price must equal the from-scratch oracle
//     bitwise.
//
//===----------------------------------------------------------------------===//

#include "datasets/Sequences.h"
#include "env/Environment.h"
#include "perf/Evaluator.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <cstdio>

using namespace mlirrl;

namespace {

bool check(bool Ok, const char *What) {
  std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What);
  return Ok;
}

} // namespace

int main() {
  EnvConfig Config = EnvConfig::laptop();
  Config.Reward = RewardMode::Immediate;
  CostModelEvaluator Model(MachineModel::xeonE5_2680v4());
  CachingEvaluator Eval(Model);
  CacheStatsRegistry::instance().resetAll();

  Rng ModuleRng(5);
  Module M = generateOperatorSequence(ModuleRng);
  while (M.getNumOps() < 3)
    M = generateOperatorSequence(ModuleRng);

  uint64_t Steps = 0, Materialized = 0;
  ModuleSchedule LastSchedule;
  const unsigned Episodes = 3;
  for (unsigned E = 0; E < Episodes; ++E) {
    Environment Env(Config, Eval, M);
    Rng ActionRng(Rng::deriveSeed(99, E));
    while (!Env.isDone()) {
      const Observation &Obs = Env.observe();
      AgentAction A;
      if (Obs.InPointerSequence) {
        A.Kind = TransformKind::Interchange;
        A.PointerChoice = static_cast<unsigned>(
            ActionRng.sampleWeighted(Obs.InterchangeMask));
      } else {
        A.Kind = static_cast<TransformKind>(
            ActionRng.sampleWeighted(Obs.TransformMask));
        A.TileSizeIdx.resize(Config.MaxLoops);
        for (unsigned &Idx : A.TileSizeIdx)
          Idx = static_cast<unsigned>(
              ActionRng.nextBounded(Config.NumTileSizes));
      }
      Env.step(A);
      ++Steps;
    }
    Materialized += Env.getState().counters().NestMaterializations;
    LastSchedule = Env.getSchedule();
  }

  CacheStatsRegistry::CategoryStats OpMemo =
      CacheStatsRegistry::instance().categoryStats("evaluator.op_memo");
  CacheStatsRegistry::CategoryStats Reuse =
      CacheStatsRegistry::instance().categoryStats("state.price_reuse");

  std::printf("perf smoke: %llu steps over %u episodes on a %u-op module\n",
              static_cast<unsigned long long>(Steps), Episodes,
              M.getNumOps());
  std::printf("  op memo: %llu lookups, hit rate %.0f%%, %llu duplicates\n",
              static_cast<unsigned long long>(OpMemo.total()),
              OpMemo.hitRate() * 100.0,
              static_cast<unsigned long long>(OpMemo.Duplicates));
  std::printf("  price reuse: %llu lookups, hit rate %.0f%%\n",
              static_cast<unsigned long long>(Reuse.total()),
              Reuse.hitRate() * 100.0);
  std::printf("  nests materialized: %llu (from-scratch would be ~%llu)\n",
              static_cast<unsigned long long>(Materialized),
              static_cast<unsigned long long>(Steps * M.getNumOps()));

  bool Ok = true;
  Ok &= check(OpMemo.total() > 0, "per-nest op memo is consulted");
  Ok &= check(OpMemo.Hits > 0, "per-nest op memo hit rate > 0");
  Ok &= check(Reuse.Hits > 0, "clean-op prices are reused across steps");
  Ok &= check(Materialized < Steps * M.getNumOps(),
              "incremental stepping materializes less than from-scratch");

  // The incremental price of the last episode's schedule must equal the
  // from-scratch oracle bitwise.
  CostModelEvaluator Oracle(MachineModel::xeonE5_2680v4());
  ScheduleState Replay(M);
  for (const auto &[OpIdx, OpSched] : LastSchedule.OpSchedules) {
    unsigned Fused = 0;
    for (const Transformation &T : OpSched.Transforms) {
      int Producer = -1;
      if (T.Kind == TransformKind::TiledFusion &&
          Fused < OpSched.FusedProducers.size())
        Producer = static_cast<int>(OpSched.FusedProducers[Fused++]);
      Replay.apply(OpIdx, T, Producer);
    }
  }
  double Incremental = Oracle.timeState(Replay);
  double FromScratch = Oracle.timeModule(M, LastSchedule);
  Ok &= check(Incremental == FromScratch,
              "incremental price == from-scratch price (bitwise)");

  if (!Ok) {
    std::printf("perf smoke FAILED\n");
    return 1;
  }
  std::printf("perf smoke passed\n");
  return 0;
}
