//===- ServeRepeat.cpp - serve_repeat: a warm ScheduleServer under load ---===//
//
// A ScheduleServer (16-wide nets, F64, BatchWidth 8, 2 workers) serves
// a pool of distinct modules drawn at the seed from the mixed
// generators. Setup warms the memo with every pool module, so the run
// measures steady-state serving; requests are seeded-uniform over the
// pool. Two phases split the run:
//
//  * open loop: seeded Poisson arrivals at a fixed rate; latency runs
//    from each request's due time to when its answer is seen, and the
//    generator's lateness is recorded;
//  * closed loop: one client keeps a fixed window of submitAsync
//    requests outstanding; throughput is answers per second.
//
// Every answer is checked against the warm-up answer of its module,
// which was re-priced on the whole-module path. The traced run adds
// per-request submit/wait times, importModule timing, and a server-less
// replay of the same requests through rolloutGroup that splits a
// request into policy, environment and pricing time.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "env/Featurizer.h"
#include "ir/Printer.h"
#include "serve/Server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>

using namespace mlirrl;

namespace perfbench {

namespace {

constexpr unsigned PoolSize = 1024;
constexpr unsigned Setups = 5;
/// Open-loop arrival rate. Low enough that requests are mostly served
/// alone rather than in lockstep batches, so latency is a request's own
/// cost plus queueing; at higher rates batch composition makes the
/// latency of one seed differ run to run.
constexpr double OpenLoopRatePerS = 700.0;
/// Requests the closed-loop client keeps outstanding.
constexpr unsigned Window = 16;

ServeOptions serveOptions() {
  ServeOptions O;
  O.Env = EnvConfig::laptop();
  O.Net.LstmHidden = 16;
  O.Net.BackboneHidden = 16;
  O.Inference = InferenceDtype::F64;
  O.BatchWidth = 8;
  O.Workers = 2;
  O.QueueCapacity = 4096;
  // Room for the whole pool, so the memo stays hot.
  O.MemoCapacity = 1u << 16;
  return O;
}

struct Reference {
  uint64_t ScheduleHash = 0;
  double Speedup = 0.0;
};

using Answer = std::future<Expected<ServeResponse>>;

struct InFlight {
  Answer F;
  Clock::time_point Due;
  Clock::time_point Submitted;
  uint32_t Idx = 0;
};

/// Tallies of answered requests, shared by both phases.
struct Tally {
  double LogSpeedupSum = 0.0;
  uint64_t Answered = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;

  /// Checks one answer against its module's reference; true when it
  /// was answered.
  bool take(Expected<ServeResponse> &&Got, const Reference &Ref) {
    if (!Got) {
      ++Failed;
      if (Errors.size() < 4)
        Errors.push_back("serve_repeat: request failed: " + Got.getError());
      return false;
    }
    const ServeResponse &Resp = Got.get();
    if (Resp.Speedup != Ref.Speedup ||
        hashModuleSchedule(Resp.Schedule) != Ref.ScheduleHash) {
      if (Errors.size() < 4)
        Errors.push_back("serve_repeat: answer differs from the "
                         "re-priced warm-up answer of its module");
      ++Failed;
      return false;
    }
    LogSpeedupSum += std::log(Resp.Speedup);
    ++Answered;
    return true;
  }
};

struct Setup {
  std::unique_ptr<ScheduleServer> Server;
  std::vector<std::string> Texts;
  std::vector<Reference> Refs;
};

Setup buildSetup(uint64_t Seed, Record &R) {
  Setup S;
  Rng Gen(Seed);
  S.Texts.reserve(PoolSize);
  for (unsigned I = 0; I < PoolSize; ++I)
    S.Texts.push_back(printModule(mixedModule(Gen, I)));
  S.Server = std::make_unique<ScheduleServer>(serveOptions());
  S.Refs.resize(PoolSize);
  for (unsigned I = 0; I < PoolSize; ++I) {
    Expected<ServeResponse> Got = S.Server->optimize(S.Texts[I]);
    if (!Got) {
      R.Errors.push_back("serve_repeat: warm-up request rejected: " +
                         Got.getError());
      continue;
    }
    S.Refs[I].Speedup = Got.get().Speedup;
    S.Refs[I].ScheduleHash = hashModuleSchedule(Got.get().Schedule);
  }
  return S;
}

/// Re-prices each pool module's warm-up answer (off the setup clock).
void checkReferences(const Setup &S, Record &R) {
  for (unsigned I = 0; I < PoolSize; ++I) {
    Expected<Module> M = importModule(S.Texts[I]);
    Expected<ServeResponse> Got = S.Server->optimize(S.Texts[I]);
    if (!M || !Got) {
      R.Errors.push_back("serve_repeat: pool module " + std::to_string(I) +
                         " not answerable");
      continue;
    }
    std::string Err = checkSpeedup(M.get(), Got.get().Schedule,
                                   Got.get().Speedup);
    if (!Err.empty())
      R.Errors.push_back("serve_repeat: pool module " + std::to_string(I) +
                         ": " + Err);
  }
}

/// Open-loop time per latency window.
constexpr double WindowSeconds = 1.0;

struct OpenLoopResult {
  Record Latency;
  std::vector<double> GenLagUs;
  std::vector<double> SubmitUs;
  std::vector<double> WaitUs;
};

/// One thread both submits, at each seeded due time, and collects: it
/// spins between the two instead of sleeping, so neither a timer nor a
/// collector's wake-up adds to the measured latency, and answers that
/// finish out of order are seen when they finish.
OpenLoopResult openLoop(Setup &S, uint64_t Seed, double Seconds,
                        Tally &T) {
  OpenLoopResult Out;
  Rng Arrivals(Rng::deriveSeed(Seed, 2));
  Rng Pick(Rng::deriveSeed(Seed, 3));
  const Clock::time_point Start = Clock::now();
  const Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  auto DueAfter = [&](double &Offset) {
    Offset += -std::log(1.0 - Arrivals.nextDouble()) / OpenLoopRatePerS;
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(Offset));
  };
  double Offset = 0.0;
  Clock::time_point Due = DueAfter(Offset);
  std::vector<InFlight> Outstanding;
  CpuRotator Rotator;
  while (Due < End || !Outstanding.empty()) {
    Clock::time_point Now = Clock::now();
    if (Due < End && Now >= Due) {
      InFlight I;
      I.Idx = static_cast<uint32_t>(Pick.nextBounded(PoolSize));
      I.Due = Due;
      I.Submitted = Now;
      Out.GenLagUs.push_back(secondsBetween(Due, Now) * 1e6);
      I.F = S.Server->submitAsync(S.Texts[I.Idx]);
      Out.SubmitUs.push_back(secondsBetween(Now, Clock::now()) * 1e6);
      Outstanding.push_back(std::move(I));
      Due = DueAfter(Offset);
    }
    for (size_t K = 0; K < Outstanding.size();) {
      InFlight &I = Outstanding[K];
      if (I.F.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++K;
        continue;
      }
      Clock::time_point Done = Clock::now();
      Out.WaitUs.push_back(secondsBetween(I.Submitted, Done) * 1e6);
      size_t Window =
          static_cast<size_t>(secondsBetween(Start, I.Due) / WindowSeconds);
      addLatency(Out.Latency, Window,
                 T.take(I.F.get(), S.Refs[I.Idx])
                     ? secondsBetween(I.Due, Done) * 1e3
                     : HUGE_VAL);
      I = std::move(Outstanding.back());
      Outstanding.pop_back();
    }
    Rotator.maybeRotate();
  }
  return Out;
}

struct ClosedLoopResult {
  double RequestsPerS = 0.0;
  std::vector<double> SubmitUs;
  std::vector<double> WaitUs;
  std::vector<uint32_t> Requests;
};

ClosedLoopResult closedLoop(Setup &S, uint64_t Seed, double Seconds,
                            Tally &T) {
  ClosedLoopResult Out;
  Rng Pick(Rng::deriveSeed(Seed, 4));
  std::deque<InFlight> Outstanding;
  auto Submit = [&] {
    InFlight I;
    I.Idx = static_cast<uint32_t>(Pick.nextBounded(PoolSize));
    I.Submitted = Clock::now();
    I.F = S.Server->submitAsync(S.Texts[I.Idx]);
    Out.SubmitUs.push_back(secondsBetween(I.Submitted, Clock::now()) * 1e6);
    Out.Requests.push_back(I.Idx);
    Outstanding.push_back(std::move(I));
  };
  auto Collect = [&] {
    InFlight I = std::move(Outstanding.front());
    Outstanding.pop_front();
    Expected<ServeResponse> Got = I.F.get();
    Out.WaitUs.push_back(secondsBetween(I.Submitted, Clock::now()) * 1e6);
    T.take(std::move(Got), S.Refs[I.Idx]);
  };

  const Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I < Window; ++I)
    Submit();
  uint64_t Completed = 0;
  CpuRotator Rotator;
  while (secondsBetween(Start, Clock::now()) < Seconds) {
    Collect();
    ++Completed;
    Submit();
    Rotator.maybeRotate();
  }
  double Elapsed = secondsBetween(Start, Clock::now());
  while (!Outstanding.empty())
    Collect();
  Out.RequestsPerS = static_cast<double>(Completed) / Elapsed;
  return Out;
}

/// Times of one server-less replay.
struct ReplayTimes {
  double WallSeconds = 0.0;
  double RolloutSeconds = 0.0;
  Accum Action;
  double PriceSeconds = 0.0;
  uint64_t PriceCalls = 0;
  uint64_t Steps = 0;
  uint64_t CheckRejects = 0;
};

/// Replays \p Requests without a server: width-8 greedy groups through
/// rolloutGroup over a fresh twin of the served policy, checking each
/// answer against the server's.
ReplayTimes serverlessReplay(const std::vector<Module> &Pool,
                             const std::vector<Reference> &Refs,
                             const std::vector<uint32_t> &Requests, bool On,
                             Record &R) {
  const ServeOptions O = serveOptions();
  Runner Run(O.Machine, O.Runner);
  TimedEvaluator Memo(Run);
  ActorCritic Agent(O.Env, Featurizer(O.Env).featureSize(), O.Net, O.Seed);
  Agent.setInferenceDtype(O.Inference);
  RolloutEngine Engine(Agent, Memo);
  ReplayTimes Out;
  RolloutEngine::Options Opts;
  Opts.RecordSchedule = true;
  Opts.MaxGroupSteps = O.MaxEpisodeSteps;
  Rng Unused(0);
  RolloutEngine::ActionSource Greedy =
      [&](const std::vector<const Observation *> &Obs,
          const std::vector<Rng *> &Streams) {
        ScopedTimer A(Out.Action, On);
        Out.Steps += Obs.size();
        return Agent.actBatch(Obs, Streams, /*Greedy=*/true);
      };
  // Warm the twin's memo like the server's.
  for (const Module &M : Pool)
    Engine.rolloutGroup({&M}, {&Unused}, Greedy, Opts);
  Out.Action = Accum();
  Out.Steps = 0;

  Memo.setTiming(On);
  const uint64_t Rejects0 =
      robustnessCount(RobustnessEvent::PostTransformCheckFailed);
  const Clock::time_point Start = Clock::now();
  for (size_t Begin = 0; Begin < Requests.size(); Begin += O.BatchWidth) {
    size_t End = std::min(Requests.size(), Begin + O.BatchWidth);
    std::vector<const Module *> Group;
    for (size_t I = Begin; I < End; ++I)
      Group.push_back(&Pool[Requests[I]]);
    std::vector<Rng *> Rngs(Group.size(), &Unused);
    Clock::time_point T0 = Clock::now();
    std::vector<RolloutEngine::Episode> Eps =
        Engine.rolloutGroup(Group, Rngs, Greedy, Opts);
    Out.RolloutSeconds += secondsBetween(T0, Clock::now());
    for (size_t I = Begin; I < End; ++I) {
      const RolloutEngine::Episode &E = Eps[I - Begin];
      const Reference &Ref = Refs[Requests[I]];
      if (E.Speedup != Ref.Speedup ||
          hashModuleSchedule(E.Schedule) != Ref.ScheduleHash) {
        R.Errors.push_back("serve_repeat: server-less replay answer differs "
                           "from the server's");
        return Out;
      }
    }
  }
  Out.WallSeconds = secondsBetween(Start, Clock::now());
  Out.CheckRejects =
      robustnessCount(RobustnessEvent::PostTransformCheckFailed) - Rejects0;
  Out.PriceSeconds = Memo.pricedSeconds();
  Out.PriceCalls = Memo.pricedCalls();
  return Out;
}

} // namespace

int runServeRepeat(const RunArgs &Args, Record &R) {
  Setup S;
  {
    // Each setup on the next CPU; the median is reported.
    CpuRotator SetupCpus(/*Span=*/2);
    for (unsigned I = 0; I < Setups; ++I) {
      S = Setup();
      SetupCpus.rotate();
      Clock::time_point T0 = Clock::now();
      S = buildSetup(Args.Seed, R);
      R.SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
    }
  }

  checkReferences(S, R);

  CacheStatsRegistry::instance().resetAll();
  ServeStats Before = S.Server->stats();
  Tally T;
  const double Half = Args.Seconds / 2.0;
  OpenLoopResult Open = openLoop(S, Args.Seed, Half, T);
  ClosedLoopResult Closed = closedLoop(S, Args.Seed, Half, T);
  ServeStats After = S.Server->stats();

  const uint64_t StepCaps = robustnessCount(RobustnessEvent::RolloutStepCapHit);
  R.LatencyMs = std::move(Open.Latency.LatencyMs);
  R.ThroughputPerS = Closed.RequestsPerS;
  R.Attempted = T.Answered + T.Failed;
  R.Failed = T.Failed + StepCaps;
  R.SpeedupGeomean =
      T.Answered ? std::exp(T.LogSpeedupSum / static_cast<double>(T.Answered))
                 : 0.0;
  for (std::string &E : T.Errors)
    R.Errors.push_back(std::move(E));
  R.Notes["open_loop_rate_per_s"] = OpenLoopRatePerS;
  R.Notes["closed_loop_window"] = Window;
  R.Notes["pool_modules"] = PoolSize;
  R.Notes["workers"] = serveOptions().Workers;

  if (!Args.Trace)
    return 0;
  addMemoHitRates(R);
  uint64_t Served = After.Served - Before.Served;
  uint64_t Batches = After.Batches - Before.Batches;
  R.Layers["serve.requests_per_batch"] =
      Batches ? static_cast<double>(Served) / static_cast<double>(Batches)
              : 0.0;
  std::vector<double> Submit = std::move(Open.SubmitUs);
  Submit.insert(Submit.end(), Closed.SubmitUs.begin(), Closed.SubmitUs.end());
  std::vector<double> Wait = std::move(Open.WaitUs);
  Wait.insert(Wait.end(), Closed.WaitUs.begin(), Closed.WaitUs.end());
  R.Layers["serve.submit_us"] = median(Submit);
  R.Layers["serve.wait_us"] = median(Wait);
  R.LayerSamples["bench.gen_lag_us"] = std::move(Open.GenLagUs);

  // The import gate alone, over every pool text.
  Accum Import;
  for (unsigned Rep = 0; Rep < 20; ++Rep)
    for (const std::string &Text : S.Texts) {
      ScopedTimer Timer(Import, true);
      if (!importModule(Text))
        R.Errors.push_back("serve_repeat: pool text failed to import");
    }
  R.Layers["ir.import_us"] = Import.Seconds * 1e6 / Import.Calls;

  std::vector<Module> Pool;
  for (const std::string &Text : S.Texts)
    Pool.push_back(importModule(Text).get());
  S.Server.reset();
  std::vector<uint32_t> Requests(Closed.Requests.begin(),
                                 Closed.Requests.begin() +
                                     std::min<size_t>(Closed.Requests.size(),
                                                      4000));
  ReplayTimes Plain = serverlessReplay(Pool, S.Refs, Requests, false, R);
  ReplayTimes Timed = serverlessReplay(Pool, S.Refs, Requests, true, R);
  const double N = static_cast<double>(Requests.size());
  const double Steps = static_cast<double>(std::max<uint64_t>(Timed.Steps, 1));
  const double EnvS =
      Timed.RolloutSeconds - Timed.Action.Seconds - Timed.PriceSeconds;
  R.Layers["rl.policy_greedy_us"] = Timed.Action.Seconds * 1e6 / N;
  R.Layers["serve.steps_per_request"] = Steps / N;
  R.Layers["rl.action_us"] = Timed.Action.Seconds * 1e6 / Steps;
  R.Layers["env.step_us"] = EnvS * 1e6 / Steps;
  R.Layers["perf.price_us"] = Timed.PriceSeconds * 1e6 / Steps;
  R.Layers["perf.price_calls"] = static_cast<double>(Timed.PriceCalls) / Steps;
  R.Layers["env.check_reject_frac"] =
      static_cast<double>(Timed.CheckRejects) / Steps;
  R.Layers["trace.overhead_frac"] = Timed.WallSeconds / Plain.WallSeconds;
  R.Layers["trace.phase_sum_frac"] = Timed.RolloutSeconds / Timed.WallSeconds;
  return 0;
}

} // namespace perfbench
