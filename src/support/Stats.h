//===- Stats.h - Summary statistics ------------------------------*- C++-*-===//
///
/// \file
/// Summary statistics used by the benchmark harness and by the reward
/// pipeline (the paper reports medians of execution times and geometric
/// means of speedups).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_SUPPORT_STATS_H
#define MLIRRL_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mlirrl {

/// Hit/miss counters for memoization layers (the CachingEvaluator's
/// per-op price memo reports these; PERF.md records the training-loop
/// hit rate). Counts are relaxed atomics so a shared cache
/// can bump them from collector threads without a data race; copies take
/// a relaxed snapshot, so a snapshot read concurrently with updates may
/// mix counts from slightly different instants (fine for statistics).
///
/// Duplicates are the benign-race lookups of a concurrent memo table: a
/// thread that missed, computed, and then found the key already inserted
/// by a racer. Recording those as misses would skew hit rates under
/// parallel collection (the same key would "miss" once per racing
/// thread); recording them separately keeps the accounting identity
/// hits + misses + duplicates == lookups exact, with misses counting
/// actual insertions.
struct HitMissCounters {
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Duplicates{0};

  HitMissCounters() = default;
  HitMissCounters(const HitMissCounters &Other)
      : Hits(Other.Hits.load(std::memory_order_relaxed)),
        Misses(Other.Misses.load(std::memory_order_relaxed)),
        Duplicates(Other.Duplicates.load(std::memory_order_relaxed)) {}
  HitMissCounters &operator=(const HitMissCounters &Other) {
    Hits.store(Other.Hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    Misses.store(Other.Misses.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    Duplicates.store(Other.Duplicates.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  void recordHit() { Hits.fetch_add(1, std::memory_order_relaxed); }
  void recordMiss() { Misses.fetch_add(1, std::memory_order_relaxed); }
  void recordDuplicate() {
    Duplicates.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t total() const {
    return Hits.load(std::memory_order_relaxed) +
           Misses.load(std::memory_order_relaxed) +
           Duplicates.load(std::memory_order_relaxed);
  }
  double hitRate() const {
    uint64_t T = total();
    return T == 0 ? 0.0
                  : static_cast<double>(
                        Hits.load(std::memory_order_relaxed)) /
                        static_cast<double>(T);
  }
  void reset() {
    Hits.store(0, std::memory_order_relaxed);
    Misses.store(0, std::memory_order_relaxed);
    Duplicates.store(0, std::memory_order_relaxed);
  }
};

/// The one place every cache in the system reports through: the
/// CachingEvaluator's per-op price memo and the incremental repricer
/// surface their HitMissCounters here, under a category name, with a
/// single reset entry point (resetAll). Two kinds of entries coexist:
///
///  * enrolled counters -- owned by a cache instance (each
///    CachingEvaluator keeps its own counts, as tests rely on), made
///    visible for the instance's lifetime via an RAII Enrollment;
///  * named counters -- owned by the registry itself, for process-wide
///    tallies with no natural owner (the schedule-state repricer, and
///    the packed-GEMM scratch arena under "gemm.pack_arena" -- hits
///    are per-call arena reuses, misses are allocations, so a healthy
///    steady state shows misses frozen at thread count).
///
/// snapshot() aggregates both per category. All entry points are
/// thread-safe; the counters themselves are relaxed atomics.
class CacheStatsRegistry {
public:
  static CacheStatsRegistry &instance();

  /// RAII enrollment of an instance-owned counter set. Default-constructed
  /// enrollments are inert; enrolled ones deregister on destruction.
  /// \p Counters must outlive the enrollment (striped tables enroll one
  /// set per shard).
  class Enrollment {
  public:
    Enrollment() = default;
    Enrollment(const char *Category, HitMissCounters *Counters);
    ~Enrollment();
    Enrollment(const Enrollment &) = delete;
    Enrollment &operator=(const Enrollment &) = delete;

  private:
    uint64_t Id = 0;
  };

  /// The registry-owned counter set of \p Category (created on first
  /// use; a stable reference for the process lifetime).
  HitMissCounters &named(const char *Category);

  /// Per-category aggregate (enrolled + named), sorted by category name.
  struct CategoryStats {
    std::string Category;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Duplicates = 0;

    uint64_t total() const { return Hits + Misses + Duplicates; }
    double hitRate() const {
      return total() == 0 ? 0.0
                          : static_cast<double>(Hits) /
                                static_cast<double>(total());
    }
  };
  std::vector<CategoryStats> snapshot() const;

  /// The aggregate of one category (zeros when nothing reported yet).
  CategoryStats categoryStats(const char *Category) const;

  /// Resets every live counter set, enrolled and named. The single
  /// entry point benches use between warmup and the timed region.
  void resetAll();

private:
  CacheStatsRegistry() = default;

  struct Enrolled {
    uint64_t Id;
    std::string Category;
    HitMissCounters *Counters;
  };
  mutable std::mutex Mutex;
  std::vector<Enrolled> EnrolledCounters;
  std::vector<std::pair<std::string, HitMissCounters *>> NamedCounters;
  uint64_t NextId = 1;
};

/// Recoverable misuse and untrusted-input failures that would once have
/// been process-fatal. Each event tallies into the registry category
/// "robustness.<event>" (as Misses -- there is no hit notion), so the
/// fuzz harness and a future server can assert on / export them through
/// the same snapshot() path as every cache.
enum class RobustnessEvent {
  /// step() called on a finished episode (returned inert).
  StepAfterDone,
  /// A post-transform check rejected an action (penalized no-op).
  PostTransformCheckFailed,
  /// VecEnv constructed over an empty sample batch.
  VecEnvEmptyBatch,
  /// VecEnv::step received the wrong number of actions.
  VecEnvActionArityMismatch,
  /// An imported module was rejected by the sanitization gate.
  ImportRejected,
  /// A rollout group hit the engine's defensive lockstep-step cap.
  RolloutStepCapHit,
  /// A server request was rejected because the admission queue was full.
  ServerQueueFull,
  /// A server request was rejected because the server was shutting down.
  ServerShutdown,
  /// A PPO minibatch's gradient norm was not finite, so its optimizer
  /// step was skipped.
  NonFiniteUpdate,
};

/// Stable category name of \p Event ("robustness.<event>").
const char *getRobustnessEventName(RobustnessEvent Event);

/// The registry-owned counter of \p Event.
HitMissCounters &robustnessCounter(RobustnessEvent Event);

/// Bumps \p Event's tally.
void recordRobustnessEvent(RobustnessEvent Event);

/// Arithmetic mean. Returns 0 for empty input.
double mean(const std::vector<double> &Values);

/// Median (of a copy; input untouched). Returns 0 for empty input.
double median(std::vector<double> Values);

/// Geometric mean. All values must be positive. Returns 0 for empty input.
double geomean(const std::vector<double> &Values);

/// Sample standard deviation. Returns 0 for fewer than two values.
double stddev(const std::vector<double> &Values);

/// Minimum / maximum. Assert on empty input.
double minOf(const std::vector<double> &Values);
double maxOf(const std::vector<double> &Values);

} // namespace mlirrl

#endif // MLIRRL_SUPPORT_STATS_H
