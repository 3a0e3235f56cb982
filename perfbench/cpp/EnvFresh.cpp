//===- EnvFresh.cpp - env_fresh: the environment with no network ----------===//
//
// The environment used directly as an RL environment: modules drawn
// fresh at the seed from the mixed generators, each searched with K
// uniformly random masked episodes (randomAction) in
// RewardMode::Immediate, run as one lockstep group through
// RolloutEngine::rolloutGroup; the best schedule is kept and re-priced.
// Env, transforms and pricing do all the work, and the memo runs
// mostly on misses and inserts. The latency unit is one module's
// best-of-K search; throughput is environment steps per second.
//
// The traced run repeats the same modules on a fresh evaluator with
// the timers on, so the ratio of the two passes is the tracing
// overhead.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "baselines/RandomSearch.h"
#include "perf/Runner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

using namespace mlirrl;

namespace perfbench {

namespace {

/// Random episodes per module (one lockstep group).
constexpr unsigned EpisodesPerModule = 8;
/// Modules generated during setup; a run that outgrows them draws
/// more from the same stream off the clock.
constexpr unsigned PregeneratedModules = 1024;
constexpr unsigned Setups = 7;
/// Search time per latency window.
constexpr double WindowSeconds = 0.5;

EnvConfig envOptions() {
  EnvConfig C = EnvConfig::laptop();
  C.Reward = RewardMode::Immediate;
  return C;
}

/// One evaluator stack and the engine over it.
struct Searcher {
  Searcher() : Run(MachineModel::xeonE5_2680v4()), Memo(Run),
               Engine(envOptions(), Memo) {}

  Runner Run;
  TimedEvaluator Memo;
  RolloutEngine Engine;
};

struct PassResult {
  Record Latency;
  std::vector<double> Speedups;
  double SearchSeconds = 0.0;
  /// Wall time of the pass, less input generation and the benchmark's
  /// own re-pricing check.
  double WallSeconds = 0.0;
  Accum Action;
  uint64_t Steps = 0;
  uint64_t StepCaps = 0;
  uint64_t CheckRejects = 0;
  size_t Modules = 0;
};

/// The input stream: modules in draw order. The first
/// PregeneratedModules are made at construction (setup); later ones are
/// drawn on demand and not kept, so memory does not grow with the run.
/// Access is sequential.
class ModuleStream {
public:
  explicit ModuleStream(uint64_t Seed) : Gen(Seed) {
    while (Pre.size() < PregeneratedModules)
      Pre.push_back(mixedModule(Gen, Pre.size()));
  }
  const Module &at(size_t I) {
    if (I < Pre.size())
      return Pre[I];
    assert(I == Pre.size() + Drawn && "module stream is sequential");
    Current = mixedModule(Gen, I);
    ++Drawn;
    return Current;
  }

private:
  Rng Gen;
  std::vector<Module> Pre;
  Module Current;
  size_t Drawn = 0;
};

/// Searches modules [0, Limit) of \p In, stopping early once the
/// accumulated search time reaches \p Seconds.
PassResult searchPass(Searcher &S, ModuleStream &In, uint64_t Seed,
                      double Seconds, size_t Limit, bool On, Record &R) {
  PassResult P;
  const EnvConfig Config = envOptions();
  RolloutEngine::ActionSource Source =
      [&](const std::vector<const Observation *> &Obs,
          const std::vector<Rng *> &Streams) {
        ScopedTimer A(P.Action, On);
        P.Steps += Obs.size();
        std::vector<ActorCritic::Sampled> Out(Obs.size());
        for (size_t I = 0; I < Obs.size(); ++I)
          Out[I].Action = randomAction(*Obs[I], Config, *Streams[I]);
        return Out;
      };
  RolloutEngine::Options Opts;
  Opts.RecordSchedule = true;
  S.Memo.setTiming(On);
  const uint64_t Caps0 = robustnessCount(RobustnessEvent::RolloutStepCapHit);
  const uint64_t Rejects0 =
      robustnessCount(RobustnessEvent::PostTransformCheckFailed);
  double OffClock = 0.0;
  CpuRotator Rotator;
  const Clock::time_point Start = Clock::now();
  for (size_t Idx = 0; Idx < Limit && P.SearchSeconds < Seconds; ++Idx) {
    Clock::time_point G0 = Clock::now();
    const Module &M = In.at(Idx);
    OffClock += secondsBetween(G0, Clock::now());
    std::vector<Rng> Rngs;
    for (unsigned K = 0; K < EpisodesPerModule; ++K)
      Rngs.emplace_back(Rng::deriveSeed(Seed, Idx * EpisodesPerModule + K));
    std::vector<Rng *> Ptrs;
    std::vector<const Module *> Samples(EpisodesPerModule, &M);
    for (Rng &G : Rngs)
      Ptrs.push_back(&G);

    Clock::time_point T0 = Clock::now();
    std::vector<RolloutEngine::Episode> Eps =
        S.Engine.rolloutGroup(Samples, Ptrs, Source, Opts);
    double Dt = secondsBetween(T0, Clock::now());
    addLatency(P.Latency,
               static_cast<size_t>(P.SearchSeconds / WindowSeconds), Dt * 1e3);
    P.SearchSeconds += Dt;

    Clock::time_point C0 = Clock::now();
    size_t Best = 0;
    for (size_t E = 1; E < Eps.size(); ++E)
      if (Eps[E].Speedup > Eps[Best].Speedup)
        Best = E;
    std::string Err = checkSpeedup(M, Eps[Best].Schedule, Eps[Best].Speedup);
    if (!Err.empty() && R.Errors.size() < 4)
      R.Errors.push_back("env_fresh: module " + std::to_string(Idx) + ": " +
                         Err);
    P.Speedups.push_back(std::max(Eps[Best].Speedup, 1e-12));
    ++P.Modules;
    Rotator.maybeRotate();
    OffClock += secondsBetween(C0, Clock::now());
  }
  P.WallSeconds = secondsBetween(Start, Clock::now()) - OffClock;
  P.StepCaps = robustnessCount(RobustnessEvent::RolloutStepCapHit) - Caps0;
  P.CheckRejects =
      robustnessCount(RobustnessEvent::PostTransformCheckFailed) - Rejects0;
  return P;
}

} // namespace

int runEnvFresh(const RunArgs &Args, Record &R) {
  std::unique_ptr<ModuleStream> In;
  std::unique_ptr<Searcher> S;
  {
    // Each setup on the next CPU; the median is reported.
    CpuRotator SetupCpus(/*Span=*/2);
    for (unsigned I = 0; I < Setups; ++I) {
      S.reset();
      In.reset();
      SetupCpus.rotate();
      Clock::time_point T0 = Clock::now();
      In = std::make_unique<ModuleStream>(Args.Seed);
      S = std::make_unique<Searcher>();
      // Warm-up: three searches on modules outside the measured stream.
      ModuleStream Warm(Rng::deriveSeed(Args.Seed, 5));
      searchPass(*S, Warm, Args.Seed, 1e9, 3, false, R);
      R.SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    }
  }

  CacheStatsRegistry::instance().resetAll();
  const double Budget = Args.Trace ? Args.Seconds / 2.0 : Args.Seconds;
  PassResult P = searchPass(*S, *In, Args.Seed, Budget, SIZE_MAX, false, R);
  R.LatencyMs = std::move(P.Latency.LatencyMs);
  R.ThroughputPerS = static_cast<double>(P.Steps) / P.SearchSeconds;
  R.SpeedupGeomean = geomean(P.Speedups);
  R.Attempted = P.Modules;
  R.Failed = P.StepCaps;
  R.Notes["modules"] = static_cast<double>(P.Modules);
  R.Notes["episodes_per_module"] = EpisodesPerModule;

  if (!Args.Trace)
    return 0;
  addMemoHitRates(R);
  // The same modules again on a fresh evaluator, timers on.
  In = std::make_unique<ModuleStream>(Args.Seed);
  Searcher Fresh;
  PassResult T = searchPass(Fresh, *In, Args.Seed, 1e9, P.Modules, true, R);
  const double Steps = static_cast<double>(std::max<uint64_t>(T.Steps, 1));
  const double PriceS = Fresh.Memo.pricedSeconds();
  R.Layers["rl.action_us"] = T.Action.Seconds * 1e6 / Steps;
  R.Layers["perf.price_us"] = PriceS * 1e6 / Steps;
  R.Layers["perf.price_calls"] =
      static_cast<double>(Fresh.Memo.pricedCalls()) / Steps;
  R.Layers["env.step_us"] =
      (T.SearchSeconds - T.Action.Seconds - PriceS) * 1e6 / Steps;
  R.Layers["env.check_reject_frac"] =
      static_cast<double>(T.CheckRejects) / Steps;
  R.Layers["trace.overhead_frac"] = T.WallSeconds / P.WallSeconds;
  R.Layers["trace.phase_sum_frac"] = T.SearchSeconds / T.WallSeconds;
  return 0;
}

} // namespace perfbench
