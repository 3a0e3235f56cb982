//===- Common.h - Shared pieces of the perfbench workloads -------*- C++-*-===//
///
/// \file
/// What every perfbench workload shares: the run arguments, the raw
/// result record handed to perfbench/run.py (which owns all percentile
/// and verdict math), the outside-in timers, the pricing probe, the
/// seeded input generators and the whole-module re-pricing check.
///
/// Tracing here is outside-in: timers wrap calls into the library's
/// public functions from this directory's code; nothing inside src/ is
/// instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "ir/Module.h"
#include "perf/Evaluator.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "transforms/Schedule.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
};

/// The raw result of one run. run.py turns it into the metrics line:
/// medians, tails and sample counts are computed there, once.
struct Record {
  std::vector<double> SetupSeconds;
  /// Per-unit-of-work latencies in ms (a training iteration, a served
  /// request from its due time, one module's best-of-K search), grouped
  /// into windows of measured time. run.py reports the median over
  /// windows of each window's p50 and tail, so one host stall moves one
  /// window. Failed work is +inf: it misses any limit.
  std::vector<std::vector<double>> LatencyMs;
  double ThroughputPerS = 0.0;
  double SpeedupGeomean = 0.0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> Errors;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> Layers;
  /// Per-layer sample sets run.py reduces to "<name>_tail".
  std::map<std::string, std::vector<double>> LayerSamples;
  /// Free-form notes printed by run.py (e.g. the open-loop rate).
  std::map<std::string, double> Notes;
};

/// Appends one latency sample to window \p Window of \p R.
void addLatency(Record &R, size_t Window, double Ms);

/// Prints \p R as one JSON line on stdout.
void emitRecord(const RunArgs &Args, const Record &R);

/// Peak resident set size of this process in MB.
double peakRssMb();

/// Accumulated time and call count of one traced boundary.
struct Accum {
  double Seconds = 0.0;
  uint64_t Calls = 0;
};

/// Adds the lifetime of the scope to \p A when \p On.
class ScopedTimer {
public:
  ScopedTimer(Accum &A, bool On) : Target(On ? &A : nullptr) {
    if (Target)
      Start = Clock::now();
  }
  ~ScopedTimer() {
    if (Target) {
      Target->Seconds += secondsBetween(Start, Clock::now());
      ++Target->Calls;
    }
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Accum *Target;
  Clock::time_point Start{};
};

/// Rotates every thread of the process across the CPUs it may run on,
/// starting at construction. Cores of a shared host run at different
/// speeds, and an idle scheduler leaves a thread where it started;
/// moving each thread one CPU on every Period makes each run sample
/// every core about equally. Restores every thread's original CPU mask
/// on destruction; threads started meanwhile inherit their creator's
/// mask until then.
class CpuRotator {
public:
  /// Each thread is pinned to \p Span consecutive CPUs (threads it
  /// starts inherit them, so Span 2 leaves a helper thread room).
  explicit CpuRotator(unsigned Span = 1);
  ~CpuRotator();
  CpuRotator(const CpuRotator &) = delete;
  CpuRotator &operator=(const CpuRotator &) = delete;

  /// Moves the threads one CPU on once Period has passed.
  void maybeRotate();
  /// Moves the threads one CPU on now.
  void rotate();

private:
  static constexpr double PeriodSeconds = 0.05;
  std::vector<int> Cpus;
  unsigned Span;
  unsigned Offset = 0;
  Clock::time_point Last;
};

/// A CachingEvaluator that times every pricing entry point. Only the
/// outermost call on a thread is timed, so nested entry points (a
/// timeModule that prices through timeNests) count once. With timing
/// off it is a plain CachingEvaluator plus one branch per call.
class TimedEvaluator final : public mlirrl::CachingEvaluator {
public:
  explicit TimedEvaluator(mlirrl::Evaluator &Inner)
      : CachingEvaluator(Inner) {}

  void setTiming(bool On) { Timing = On; }
  double pricedSeconds() const {
    return static_cast<double>(Ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  uint64_t pricedCalls() const {
    return Calls.load(std::memory_order_relaxed);
  }

  double timeNests(const std::vector<mlirrl::LoopNest> &Nests) override;
  double timeModule(const mlirrl::Module &M,
                    const mlirrl::ModuleSchedule &Sched) override;
  double timeBaseline(const mlirrl::Module &M) override;
  double priceNest(const mlirrl::LoopNest &Nest) override;
  double combineNestPrices(double SumSeconds) override;

protected:
  double priceDirtyOp(mlirrl::ScheduleState &State, unsigned OpIdx) override;

private:
  class Outermost;
  bool Timing = false;
  std::atomic<uint64_t> Ns{0};
  std::atomic<uint64_t> Calls{0};
};

/// The mixed generator family: module \p Index of a stream rotates
/// through a single DNN operator, a random operator sequence and an
/// LQCD kernel, each drawn from \p R.
mlirrl::Module mixedModule(mlirrl::Rng &R, uint64_t Index);

/// The fixed DNN-operator training set drawn at \p Seed (the
/// operatorTrainingSet shape the repo's training benches use).
std::vector<mlirrl::Module> operatorSet(uint64_t Seed, double Scale);

/// Re-prices \p Sched on \p M through a fresh, uncached
/// CostModelEvaluator on the whole-module path and compares the
/// speedup with \p Reported. Returns an empty string when they agree,
/// else the reason.
std::string checkSpeedup(const mlirrl::Module &M,
                         const mlirrl::ModuleSchedule &Sched,
                         double Reported);

/// Registry hit rates (support/Stats.h) since the last resetAll():
/// whole-program memo, per-op memo and the cost model's nest memo.
void addMemoHitRates(Record &R);

/// Tally of one robustness event since the last resetAll().
uint64_t robustnessCount(mlirrl::RobustnessEvent Event);

int runTrainOps(const RunArgs &Args, Record &R);
int runServeRepeat(const RunArgs &Args, Record &R);
int runEnvFresh(const RunArgs &Args, Record &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
