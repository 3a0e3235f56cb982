//===- Common.cpp ---------------------------------------------------------===//

#include "Common.h"

#include "datasets/DnnOps.h"
#include "datasets/Lqcd.h"
#include "datasets/Sequences.h"
#include "perf/MachineModel.h"
#include "support/Args.h"
#include "transforms/Apply.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace mlirrl;

namespace perfbench {

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonArray(const std::vector<double> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Out += (I ? "," : "") + jsonNumber(Values[I]);
  return Out + "]";
}

std::string jsonObject(const std::map<std::string, double> &Values) {
  std::string Out = "{";
  for (const auto &[Key, Value] : Values) {
    if (Out.size() > 1)
      Out += ",";
    Out += jsonString(Key) + ":" + jsonNumber(Value);
  }
  return Out + "}";
}

} // namespace

void addLatency(Record &R, size_t Window, double Ms) {
  if (R.LatencyMs.size() <= Window)
    R.LatencyMs.resize(Window + 1);
  R.LatencyMs[Window].push_back(Ms);
}

void emitRecord(const RunArgs &Args, const Record &R) {
  std::ostringstream OS;
  OS << "{\"workload\":" << jsonString(Args.Workload)
     << ",\"seed\":" << Args.Seed << ",\"trace\":" << (Args.Trace ? 1 : 0)
     << ",\"setup_s\":" << jsonArray(R.SetupSeconds)
     << ",\"latency_ms\":[";
  for (size_t I = 0; I < R.LatencyMs.size(); ++I)
    OS << (I ? "," : "") << jsonArray(R.LatencyMs[I]);
  OS << "]"
     << ",\"throughput_per_s\":" << jsonNumber(R.ThroughputPerS)
     << ",\"speedup_geomean\":" << jsonNumber(R.SpeedupGeomean)
     << ",\"attempted\":" << R.Attempted << ",\"failed\":" << R.Failed
     << ",\"peak_rss_mb\":" << jsonNumber(peakRssMb()) << ",\"errors\":[";
  for (size_t I = 0; I < R.Errors.size(); ++I)
    OS << (I ? "," : "") << jsonString(R.Errors[I]);
  OS << "],\"layers\":" << jsonObject(R.Layers) << ",\"layer_samples\":{";
  bool First = true;
  for (const auto &[Key, Values] : R.LayerSamples) {
    OS << (First ? "" : ",") << jsonString(Key) << ":" << jsonArray(Values);
    First = false;
  }
  OS << "}"
     << ",\"notes\":" << jsonObject(R.Notes) << ",\"build\":{\"compiler\":"
     << jsonString(PERFBENCH_COMPILER)
     << ",\"march\":" << jsonString(PERFBENCH_MARCH)
     << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE) << "}}";
  std::printf("%s\n", OS.str().c_str());
  std::fflush(stdout);
}

double peakRssMb() {
  // VmHWM rather than getrusage: ru_maxrss survives execve, so it would
  // report the launching interpreter's peak when that is larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line)) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    // "VmHWM:   123456 kB": digits only, so a manual fold avoids the
    // raw numeric parsers the repo linter forbids.
    double Kb = 0.0;
    for (char C : Line)
      if (C >= '0' && C <= '9')
        Kb = Kb * 10.0 + (C - '0');
    return Kb / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// CpuRotator
// ---------------------------------------------------------------------------

namespace {

/// Thread ids of this process, ascending.
std::vector<pid_t> threadIds() {
  std::vector<pid_t> Tids;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator("/proc/self/task", Ec)) {
    Expected<uint64_t> Tid =
        parseUnsignedInteger(Entry.path().filename().string());
    if (Tid)
      Tids.push_back(static_cast<pid_t>(Tid.get()));
  }
  std::sort(Tids.begin(), Tids.end());
  return Tids;
}

} // namespace

CpuRotator::CpuRotator(unsigned Span) : Span(Span), Last(Clock::now()) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
  rotate();
}

CpuRotator::~CpuRotator() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  for (pid_t Tid : threadIds())
    sched_setaffinity(Tid, sizeof(Set), &Set);
}

void CpuRotator::maybeRotate() {
  if (secondsBetween(Last, Clock::now()) >= PeriodSeconds)
    rotate();
}

void CpuRotator::rotate() {
  Last = Clock::now();
  if (Cpus.size() < 2)
    return;
  ++Offset;
  std::vector<pid_t> Tids = threadIds();
  for (size_t I = 0; I < Tids.size(); ++I) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (unsigned K = 0; K < Span; ++K)
      CPU_SET(Cpus[(I + Offset + K) % Cpus.size()], &Set);
    sched_setaffinity(Tids[I], sizeof(Set), &Set);
  }
}

// ---------------------------------------------------------------------------
// TimedEvaluator
// ---------------------------------------------------------------------------

/// Times the outermost pricing call of the current thread.
class TimedEvaluator::Outermost {
public:
  explicit Outermost(TimedEvaluator &E)
      : Owner(E.Timing && Depth == 0 ? &E : nullptr) {
    ++Depth;
    if (Owner)
      Start = Clock::now();
  }
  ~Outermost() {
    --Depth;
    if (!Owner)
      return;
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Start)
                  .count();
    Owner->Ns.fetch_add(static_cast<uint64_t>(Ns), std::memory_order_relaxed);
    Owner->Calls.fetch_add(1, std::memory_order_relaxed);
  }
  Outermost(const Outermost &) = delete;
  Outermost &operator=(const Outermost &) = delete;

private:
  static thread_local unsigned Depth;
  TimedEvaluator *Owner;
  Clock::time_point Start{};
};

thread_local unsigned TimedEvaluator::Outermost::Depth = 0;

double TimedEvaluator::timeNests(const std::vector<LoopNest> &Nests) {
  Outermost T(*this);
  return CachingEvaluator::timeNests(Nests);
}

double TimedEvaluator::timeModule(const Module &M,
                                  const ModuleSchedule &Sched) {
  Outermost T(*this);
  return CachingEvaluator::timeModule(M, Sched);
}

double TimedEvaluator::timeBaseline(const Module &M) {
  Outermost T(*this);
  return CachingEvaluator::timeBaseline(M);
}

double TimedEvaluator::priceNest(const LoopNest &Nest) {
  Outermost T(*this);
  return CachingEvaluator::priceNest(Nest);
}

double TimedEvaluator::combineNestPrices(double SumSeconds) {
  Outermost T(*this);
  return CachingEvaluator::combineNestPrices(SumSeconds);
}

double TimedEvaluator::priceDirtyOp(ScheduleState &State, unsigned OpIdx) {
  Outermost T(*this);
  return CachingEvaluator::priceDirtyOp(State, OpIdx);
}

// ---------------------------------------------------------------------------
// Inputs and checks
// ---------------------------------------------------------------------------

Module mixedModule(Rng &R, uint64_t Index) {
  switch (Index % 3) {
  case 0: {
    // One operator of the five DNN kinds, rotating.
    DnnDatasetCounts Counts{0, 0, 0, 0, 0};
    switch ((Index / 3) % 5) {
    case 0: Counts.Matmul = 1; break;
    case 1: Counts.Conv2d = 1; break;
    case 2: Counts.Maxpool = 1; break;
    case 3: Counts.Add = 1; break;
    default: Counts.Relu = 1; break;
    }
    return std::move(generateDnnOperatorDataset(R, Counts).front());
  }
  case 1:
    return generateOperatorSequence(R);
  default:
    // The laptop environment represents at most 9 loop levels.
    return generateLqcdKernel(R, /*MaxLoops=*/9);
  }
}

std::vector<Module> operatorSet(uint64_t Seed, double Scale) {
  Rng R(Seed);
  return generateDnnOperatorDataset(R, DnnDatasetCounts::scaled(Scale));
}

std::string checkSpeedup(const Module &M, const ModuleSchedule &Sched,
                         double Reported) {
  Expected<std::vector<LoopNest>> Nests = materializeModuleChecked(M, Sched);
  if (!Nests)
    return "materialization failed: " + Nests.getError();
  CostModelEvaluator Fresh(MachineModel::xeonE5_2680v4());
  double Speedup = Fresh.timeNests(materializeBaseline(M)) /
                   Fresh.timeNests(Nests.get());
  if (!std::isfinite(Speedup) || Speedup != Reported) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "re-priced speedup %.17g != reported %.17g", Speedup,
                  Reported);
    return Buf;
  }
  return "";
}

void addMemoHitRates(Record &R) {
  CacheStatsRegistry &Reg = CacheStatsRegistry::instance();
  R.Layers["perf.program_memo_hit_rate"] =
      Reg.categoryStats("evaluator.program_memo").hitRate();
  R.Layers["perf.op_memo_hit_rate"] =
      Reg.categoryStats("evaluator.op_memo").hitRate();
  R.Layers["cost_model.nest_memo_hit_rate"] =
      Reg.categoryStats("cost_model.nest_memo").hitRate();
}

uint64_t robustnessCount(RobustnessEvent Event) {
  return robustnessCounter(Event).Misses.load(std::memory_order_relaxed);
}

} // namespace perfbench
