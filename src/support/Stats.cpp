//===- Stats.cpp ----------------------------------------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mlirrl;

// ---------------------------------------------------------------------------
// CacheStatsRegistry
// ---------------------------------------------------------------------------

CacheStatsRegistry &CacheStatsRegistry::instance() {
  // Leaked singleton: enrolled caches may live in static-duration
  // objects whose destruction order is unknowable.
  static CacheStatsRegistry *Registry = new CacheStatsRegistry();
  return *Registry;
}

CacheStatsRegistry::Enrollment::Enrollment(const char *Category,
                                           HitMissCounters *Counters) {
  CacheStatsRegistry &R = instance();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  Id = R.NextId++;
  R.EnrolledCounters.push_back({Id, Category, Counters});
}

CacheStatsRegistry::Enrollment::~Enrollment() {
  if (Id == 0)
    return;
  CacheStatsRegistry &R = instance();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (size_t I = 0; I < R.EnrolledCounters.size(); ++I) {
    if (R.EnrolledCounters[I].Id == Id) {
      R.EnrolledCounters.erase(R.EnrolledCounters.begin() +
                               static_cast<ptrdiff_t>(I));
      return;
    }
  }
}

HitMissCounters &CacheStatsRegistry::named(const char *Category) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, Counters] : NamedCounters)
    if (Name == Category)
      return *Counters;
  // Leaked on purpose: named() hands out stable references that may be
  // cached by callers for the process lifetime.
  NamedCounters.emplace_back(Category, new HitMissCounters());
  return *NamedCounters.back().second;
}

std::vector<CacheStatsRegistry::CategoryStats>
CacheStatsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<CategoryStats> Result;
  auto Fold = [&](const std::string &Category, const HitMissCounters &C) {
    CategoryStats *Slot = nullptr;
    for (CategoryStats &S : Result)
      if (S.Category == Category)
        Slot = &S;
    if (!Slot) {
      Result.push_back({Category});
      Slot = &Result.back();
    }
    Slot->Hits += C.Hits.load(std::memory_order_relaxed);
    Slot->Misses += C.Misses.load(std::memory_order_relaxed);
    Slot->Duplicates += C.Duplicates.load(std::memory_order_relaxed);
  };
  for (const Enrolled &E : EnrolledCounters)
    Fold(E.Category, *E.Counters);
  for (const auto &[Name, Counters] : NamedCounters)
    Fold(Name, *Counters);
  std::sort(Result.begin(), Result.end(),
            [](const CategoryStats &A, const CategoryStats &B) {
              return A.Category < B.Category;
            });
  return Result;
}

CacheStatsRegistry::CategoryStats
CacheStatsRegistry::categoryStats(const char *Category) const {
  for (const CategoryStats &S : snapshot())
    if (S.Category == Category)
      return S;
  return {Category, 0, 0};
}

void CacheStatsRegistry::resetAll() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Enrolled &E : EnrolledCounters)
    E.Counters->reset();
  for (const auto &[Name, Counters] : NamedCounters)
    Counters->reset();
}

const char *mlirrl::getRobustnessEventName(RobustnessEvent Event) {
  switch (Event) {
  case RobustnessEvent::StepAfterDone:
    return "robustness.step_after_done";
  case RobustnessEvent::PostTransformCheckFailed:
    return "robustness.post_transform_check_failed";
  case RobustnessEvent::VecEnvEmptyBatch:
    return "robustness.vecenv_empty_batch";
  case RobustnessEvent::VecEnvActionArityMismatch:
    return "robustness.vecenv_action_arity_mismatch";
  case RobustnessEvent::ImportRejected:
    return "robustness.import_rejected";
  case RobustnessEvent::RolloutStepCapHit:
    return "robustness.rollout_step_cap";
  case RobustnessEvent::ServerQueueFull:
    return "robustness.server_queue_full";
  case RobustnessEvent::ServerShutdown:
    return "robustness.server_shutdown";
  case RobustnessEvent::NonFiniteUpdate:
    return "robustness.nonfinite_update";
  }
  return "robustness.unknown";
}

HitMissCounters &mlirrl::robustnessCounter(RobustnessEvent Event) {
  return CacheStatsRegistry::instance().named(getRobustnessEventName(Event));
}

void mlirrl::recordRobustnessEvent(RobustnessEvent Event) {
  robustnessCounter(Event).recordMiss();
}

double mlirrl::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double mlirrl::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  double Upper = Values[Mid];
  if (Values.size() % 2 == 1)
    return Upper;
  double Lower = *std::max_element(Values.begin(), Values.begin() + Mid);
  return 0.5 * (Lower + Upper);
}

double mlirrl::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double mlirrl::stddev(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0.0;
  double M = mean(Values);
  double Acc = 0.0;
  for (double V : Values)
    Acc += (V - M) * (V - M);
  return std::sqrt(Acc / static_cast<double>(Values.size() - 1));
}

double mlirrl::minOf(const std::vector<double> &Values) {
  assert(!Values.empty() && "minOf on empty vector");
  return *std::min_element(Values.begin(), Values.end());
}

double mlirrl::maxOf(const std::vector<double> &Values) {
  assert(!Values.empty() && "maxOf on empty vector");
  return *std::max_element(Values.begin(), Values.end());
}
