//===- CacheSim.h - Trace-driven cache simulation ----------------*- C++-*-===//
///
/// \file
/// A trace-driven, set-associative, LRU, inclusive three-level cache
/// simulator. It executes a scheduled loop nest access-by-access and
/// counts misses per level. It exists to validate the analytical
/// working-set model on small problems (experiment E10 in DESIGN.md) and
/// as a drop-in substrate for users who want trace-accurate rewards.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_PERF_CACHESIM_H
#define MLIRRL_PERF_CACHESIM_H

#include "perf/MachineModel.h"
#include "transforms/LoopNest.h"

#include <cstdint>
#include <vector>

namespace mlirrl {

/// Miss counts of a simulated access stream.
struct CacheSimStats {
  uint64_t Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t L3Misses = 0;
};

/// One set-associative LRU cache level.
class CacheLevelSim {
public:
  CacheLevelSim(int64_t SizeBytes, int64_t LineBytes, unsigned Associativity);

  /// Returns true on hit; on miss the line is installed (LRU evicted).
  bool access(uint64_t Address);

  void reset();

private:
  int64_t LineBytes;
  unsigned NumSets;
  unsigned Associativity;
  /// Per set: tags in LRU order (front = most recent).
  std::vector<std::vector<uint64_t>> Sets;
};

/// A three-level hierarchy fed one address at a time.
class CacheHierarchySim {
public:
  explicit CacheHierarchySim(const MachineModel &Machine);

  /// Simulates one scalar access of \p Bytes at \p Address (split across
  /// lines if needed).
  void access(uint64_t Address, unsigned Bytes);

  const CacheSimStats &getStats() const { return Stats; }
  void reset();

private:
  int64_t LineBytes;
  CacheLevelSim L1, L2, L3;
  CacheSimStats Stats;
};

/// Executes a single-body loop nest point by point through the simulator.
/// Tensors are laid out row-major at disjoint base addresses. Stops after
/// \p MaxPoints iteration points (0 = unlimited); returns the stats
/// gathered so far.
CacheSimStats simulateNest(const LoopNest &Nest, const MachineModel &Machine,
                           uint64_t MaxPoints = 0);

} // namespace mlirrl

#endif // MLIRRL_PERF_CACHESIM_H
