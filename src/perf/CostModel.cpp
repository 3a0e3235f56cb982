//===- CostModel.cpp ------------------------------------------------------===//

#include "perf/CostModel.h"

#include "perf/WorkingSet.h"
#include "support/Format.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mlirrl;

std::string TimeBreakdown::toString() const {
  return formatString("total=%.3gs compute=%.3g l1=%.3g l2=%.3g l3=%.3g "
                      "dram=%.3g loop=%.3g fork=%.3g",
                      TotalSeconds, ComputeSeconds, L1Seconds, L2Seconds,
                      L3Seconds, DramSeconds, LoopOverheadSeconds,
                      ForkSeconds);
}

namespace {

/// Everything the model derives for one body before aggregation.
struct BodyCosts {
  double Flops = 0.0;
  double ComputeSeconds = 0.0; // single-core
  double IssueBytes = 0.0;
  double L1Bytes = 0.0;
  double L2Bytes = 0.0;
  double L3Bytes = 0.0;
  double LoopIterations = 0.0;
};

} // namespace

/// Number of visits of the loop at \p Depth boundary: the product of trip
/// counts of all loops strictly above it.
static double visitsAtDepth(const std::vector<FlatLoop> &Loops,
                            unsigned Depth) {
  double Visits = 1.0;
  for (unsigned I = 0; I < Depth; ++I)
    Visits *= static_cast<double>(Loops[I].Loop.TripCount);
  return Visits;
}

/// Finds the outermost depth at which the combined working set of all
/// accesses fits \p CapacityBytes; returns Loops.size() when even one
/// iteration's data exceeds it (then every visit misses).
static unsigned findFittingDepth(const std::vector<TensorAccess> &Accesses,
                                 const std::vector<FlatLoop> &Loops,
                                 int64_t CapacityBytes, int64_t LineBytes) {
  for (unsigned Depth = 0; Depth <= Loops.size(); ++Depth) {
    double Total = 0.0;
    for (const TensorAccess &A : Accesses)
      Total += static_cast<double>(
          computeFootprint(A, Loops, Depth, LineBytes).Bytes);
    if (Total <= static_cast<double>(CapacityBytes))
      return Depth;
  }
  return static_cast<unsigned>(Loops.size());
}

/// Traffic into a cache level: every visit of the fitting depth loads the
/// footprint below once.
static double trafficAtLevel(const std::vector<TensorAccess> &Accesses,
                             const std::vector<FlatLoop> &Loops,
                             int64_t CapacityBytes, int64_t LineBytes) {
  unsigned Depth = findFittingDepth(Accesses, Loops, CapacityBytes, LineBytes);
  double Visits = visitsAtDepth(Loops, Depth);
  double Bytes = 0.0;
  for (const TensorAccess &A : Accesses)
    Bytes += static_cast<double>(
        computeFootprint(A, Loops, Depth, LineBytes).Bytes);
  return Visits * Bytes;
}

/// Computes the per-body costs: compute roofline and per-level traffic.
static BodyCosts computeBodyCosts(const MachineModel &Machine,
                                  const LoopNest &Nest, unsigned BodyIdx) {
  const NestBody &Body = Nest.Bodies[BodyIdx];
  std::vector<FlatLoop> Loops = flattenBodyLoops(Nest, BodyIdx);

  BodyCosts Costs;
  double Points = visitsAtDepth(Loops, Loops.size());
  Costs.Flops = Points * static_cast<double>(Body.Arith.total());

  // --- Compute roofline ---------------------------------------------------
  // Find the vectorized loop (SIMD axis) if any, and the innermost loop.
  const ScheduledLoop *Inner = nullptr;
  const ScheduledLoop *Vector = nullptr;
  bool ReductionInsideVector = false;
  for (unsigned I = Loops.size(); I > 0; --I) {
    const FlatLoop &L = Loops[I - 1];
    if (L.Foreign)
      continue;
    if (!Inner)
      Inner = &L.Loop;
    if (!Vector && L.Loop.Vectorized)
      Vector = &L.Loop;
    if (!Vector && L.Loop.Kind == IteratorKind::Reduction)
      ReductionInsideVector = true; // reduction below the (future) SIMD axis
  }

  unsigned ElemBytes = 4;
  if (!Body.Accesses.empty())
    ElemBytes = Body.Accesses.back().ElemBytes;
  unsigned Lanes =
      ElemBytes == 8 ? Machine.VectorLanesF64 : Machine.VectorLanesF32;

  double FlopsPerSecond = Machine.scalarFlopsPerSecond();
  if (Vector) {
    // Lane utilization of short trips.
    double Trip = static_cast<double>(Vector->TripCount);
    double Utilization = Trip / (std::ceil(Trip / Lanes) * Lanes);
    // Strided operands require gathers / strided loads.
    unsigned Involved = 0, UnitStride = 0;
    for (const TensorAccess &A : Body.Accesses) {
      bool Involves = false;
      for (const AffineExpr &E : A.Map.getResults())
        Involves |= E.involvesDim(Vector->IterDim);
      if (!Involves)
        continue; // loop-invariant operand: held in a register
      ++Involved;
      if (isUnitStrideForLoop(A, Vector->IterDim))
        ++UnitStride;
    }
    double StrideFactor = 1.0;
    if (Involved > 0) {
      double UnitFraction =
          static_cast<double>(UnitStride) / static_cast<double>(Involved);
      StrideFactor =
          UnitFraction + (1.0 - UnitFraction) * Machine.StridedVectorPenalty;
    }
    FlopsPerSecond =
        Machine.vectorFlopsPerSecond(Lanes) * Utilization * StrideFactor;
  }

  // Loop-carried additive reduction chains: an accumulator updated every
  // iteration of a sequential reduction loop at (or inside) the SIMD /
  // innermost position serializes the FMA chain. Register tiling, which
  // neither the action space nor Halide-style schedules expose, is what
  // hides this; max-reductions (pooling) have single-cycle latency and
  // are exempt.
  bool AdditiveReduction = Body.Arith.Add > 0 || Body.Arith.Sub > 0;
  bool ChainBound = false;
  if (Vector)
    ChainBound = ReductionInsideVector ||
                 Vector->Kind == IteratorKind::Reduction;
  else
    ChainBound = Inner && Inner->Kind == IteratorKind::Reduction;
  if (ChainBound && AdditiveReduction)
    FlopsPerSecond *= Machine.ReductionChainFactor;
  Costs.ComputeSeconds = Costs.Flops / FlopsPerSecond;

  // --- Memory hierarchy ---------------------------------------------------
  // Fused intermediates live in the consumer's tile: their reuse is
  // tile-local by construction, which the footprint analysis already
  // captures (their footprint never exceeds the per-visit slice), so they
  // participate like ordinary accesses.
  Costs.IssueBytes =
      Points * static_cast<double>(Body.Accesses.size()) * ElemBytes;
  Costs.L1Bytes = trafficAtLevel(Body.Accesses, Loops, Machine.L1.SizeBytes,
                                 Machine.L1.LineBytes);
  Costs.L2Bytes = trafficAtLevel(Body.Accesses, Loops, Machine.L2.SizeBytes,
                                 Machine.L2.LineBytes);
  Costs.L3Bytes = trafficAtLevel(Body.Accesses, Loops, Machine.L3.SizeBytes,
                                 Machine.L3.LineBytes);

  // Fused intermediates are never written back to DRAM: remove them from
  // the L3 miss traffic (they are the mechanism by which fusion saves
  // memory traffic).
  if (!Nest.FusedIntermediates.empty()) {
    std::vector<TensorAccess> NonFused;
    for (const TensorAccess &A : Body.Accesses)
      if (!Nest.isFusedIntermediate(A.Value))
        NonFused.push_back(A);
    Costs.L3Bytes = trafficAtLevel(NonFused, Loops, Machine.L3.SizeBytes,
                                   Machine.L3.LineBytes);
  }

  // --- Loop control ---------------------------------------------------
  double Iterations = 0.0;
  double Enclosing = 1.0;
  for (const FlatLoop &L : Loops) {
    double Trip = static_cast<double>(L.Loop.TripCount);
    if (L.Loop.Vectorized)
      Trip = std::ceil(Trip / Lanes);
    Iterations += Enclosing * Trip;
    Enclosing *= static_cast<double>(L.Loop.TripCount);
  }
  Costs.LoopIterations = Iterations;
  return Costs;
}

TrafficBreakdown CostModel::estimateTraffic(const LoopNest &Nest) const {
  TrafficBreakdown Traffic;
  for (unsigned B = 0; B < Nest.Bodies.size(); ++B) {
    BodyCosts Costs = computeBodyCosts(Machine, Nest, B);
    Traffic.IssueBytes += Costs.IssueBytes;
    Traffic.L1Bytes += Costs.L1Bytes;
    Traffic.L2Bytes += Costs.L2Bytes;
    Traffic.L3Bytes += Costs.L3Bytes;
  }
  return Traffic;
}

// ---------------------------------------------------------------------------
// Structural hashing
// ---------------------------------------------------------------------------

namespace {

/// The shared FNV-1a word hasher plus nest-specific folds; the nest is
/// folded field by field so any structural difference (trip counts,
/// loop kinds, access maps, arithmetic) lands in the key.
class StructuralHasher : public FnvHasher {
public:
  void string(const std::string &Str) { bytes(Str); }
  void loop(const ScheduledLoop &L) {
    word(L.IterDim);
    signedWord(L.TripCount);
    signedWord(L.Step);
    word(static_cast<uint64_t>(L.Kind));
    word((L.IsTileLoop ? 1u : 0u) | (L.Parallel ? 2u : 0u) |
         (L.Vectorized ? 4u : 0u));
  }
  void affineExpr(const AffineExpr &E) {
    word(E.getNumDims());
    for (int64_t C : E.getCoeffs())
      signedWord(C);
    signedWord(E.getConstant());
  }
  void access(const TensorAccess &A) {
    string(A.Value);
    word(A.Map.getNumDims());
    word(A.Map.getNumResults());
    for (const AffineExpr &E : A.Map.getResults())
      affineExpr(E);
    word(A.TensorShape.size());
    for (int64_t S : A.TensorShape)
      signedWord(S);
    word(A.ElemBytes);
    word(A.IsWrite ? 1u : 0u);
  }
};

} // namespace

uint64_t mlirrl::hashLoopNest(const LoopNest &Nest) {
  StructuralHasher H;
  H.string(Nest.Name);
  H.word(Nest.OuterBand.size());
  for (const ScheduledLoop &L : Nest.OuterBand)
    H.loop(L);
  H.word(Nest.Bodies.size());
  for (const NestBody &Body : Nest.Bodies) {
    H.string(Body.Name);
    H.word(Body.Loops.size());
    for (const ScheduledLoop &L : Body.Loops)
      H.loop(L);
    H.word(Body.Accesses.size());
    for (const TensorAccess &A : Body.Accesses)
      H.access(A);
    H.signedWord(Body.Arith.Add);
    H.signedWord(Body.Arith.Sub);
    H.signedWord(Body.Arith.Mul);
    H.signedWord(Body.Arith.Div);
    H.signedWord(Body.Arith.Exp);
    H.signedWord(Body.Arith.Max);
  }
  H.word(Nest.FusedIntermediates.size());
  for (const std::string &Name : Nest.FusedIntermediates)
    H.string(Name);
  return H.finish();
}

TimeBreakdown CostModel::estimateNest(const LoopNest &Nest) const {
  double ComputeSeconds = 0.0, LoopIterations = 0.0;
  TrafficBreakdown Traffic;
  for (unsigned B = 0; B < Nest.Bodies.size(); ++B) {
    BodyCosts Costs = computeBodyCosts(Machine, Nest, B);
    ComputeSeconds += Costs.ComputeSeconds;
    LoopIterations += Costs.LoopIterations;
    Traffic.IssueBytes += Costs.IssueBytes;
    Traffic.L1Bytes += Costs.L1Bytes;
    Traffic.L2Bytes += Costs.L2Bytes;
    Traffic.L3Bytes += Costs.L3Bytes;
  }

  // Parallel execution: work is spread over the cores covered by the
  // parallel outer-band iterations, with load imbalance when they do not
  // divide evenly.
  double ParIters = static_cast<double>(Nest.getParallelIterations());
  double ActiveCores =
      std::min<double>(Machine.NumCores, std::max(1.0, ParIters));
  double Imbalance = 1.0;
  if (ParIters > ActiveCores) {
    double PerCore = ParIters / ActiveCores;
    Imbalance = std::ceil(PerCore) / PerCore;
  }

  const double GiB = 1024.0 * 1024.0 * 1024.0;
  TimeBreakdown T;
  T.ComputeSeconds = ComputeSeconds / ActiveCores * Imbalance;
  T.L1Seconds =
      Traffic.IssueBytes / (Machine.L1.BandwidthPerCoreGBps * GiB) /
      ActiveCores * Imbalance;
  T.L2Seconds = Traffic.L1Bytes / (Machine.L2.BandwidthPerCoreGBps * GiB) /
                ActiveCores * Imbalance;
  T.L3Seconds = Traffic.L2Bytes / (Machine.L3.BandwidthPerCoreGBps * GiB) /
                ActiveCores * Imbalance;
  // DRAM bandwidth is shared; a few cores cannot saturate it.
  double PerCoreDram = 12.0; // GiB/s a single core can sustain
  double DramGBps =
      std::min(Machine.DramBandwidthGBps, PerCoreDram * ActiveCores);
  T.DramSeconds = Traffic.L3Bytes / (DramGBps * GiB);

  T.LoopOverheadSeconds = LoopIterations * Machine.LoopOverheadCycles /
                          (Machine.FrequencyGHz * 1e9) / ActiveCores;
  T.ForkSeconds = ParIters > 1.0 ? Machine.ParallelForkSeconds : 0.0;

  T.TotalSeconds = std::max({T.ComputeSeconds, T.L1Seconds, T.L2Seconds,
                             T.L3Seconds, T.DramSeconds}) +
                   T.LoopOverheadSeconds + T.ForkSeconds;
  return T;
}

double CostModel::estimateModule(const std::vector<LoopNest> &Nests) const {
  double Total = 0.0;
  for (const LoopNest &Nest : Nests)
    Total += estimateNest(Nest).TotalSeconds;
  return Total;
}
