//===- Apply.cpp ----------------------------------------------------------===//

#include "transforms/Apply.h"

#include "support/Error.h"
#include "support/Format.h"
#include "transforms/Legality.h"

#include <cassert>
#include <numeric>

using namespace mlirrl;

OpTransformState::OpTransformState(const LinalgOp &Op) : Op(Op) {
  Order.resize(Op.getNumLoops());
  std::iota(Order.begin(), Order.end(), 0u);
}

std::vector<int64_t> OpTransformState::getPointTrips() const {
  std::vector<int64_t> Trips = Op.getLoopBounds();
  for (const Band &B : Bands)
    for (unsigned Dim = 0; Dim < Trips.size(); ++Dim)
      if (B.TileByDim[Dim] > 0 && B.TileByDim[Dim] < Trips[Dim])
        Trips[Dim] = B.TileByDim[Dim];
  return Trips;
}

int64_t OpTransformState::getInnermostTrip() const {
  return getPointTrips()[Order.back()];
}

OpTransformState::ApplyResult
OpTransformState::applyTiled(const Transformation &T, bool Parallel) {
  if (T.TileSizes.size() != Op.getNumLoops())
    return ApplyResult::failure("tile sizes arity mismatch");
  if (Vectorized)
    return ApplyResult::failure("operation already vectorized (terminal)");

  // Tile sizes are given per current loop level; translate to original
  // dimensions and drop no-op entries (size >= current point trip).
  std::vector<int64_t> PointTrips = getPointTrips();
  std::vector<int64_t> TileByDim(Op.getNumLoops(), 0);
  bool AnyEffective = false;
  for (unsigned Level = 0; Level < Order.size(); ++Level) {
    int64_t Size = T.TileSizes[Level];
    if (Size < 0)
      return ApplyResult::failure("negative tile size");
    unsigned Dim = Order[Level];
    if (Size == 0 || Size >= PointTrips[Dim])
      continue;
    TileByDim[Dim] = Size;
    AnyEffective = true;
  }
  // Parallelization-with-size-one keeps size-1 "tiles": tiling with size 1
  // alone is also representable but pointless, and an all-zero plain tiling
  // is a no-op the engine rejects so the environment can mask it.
  if (!AnyEffective && !Parallel)
    return ApplyResult::failure("tiling has no effect");

  Band NewBand;
  NewBand.TileByDim = std::move(TileByDim);
  NewBand.Parallel = false;
  Bands.push_back(std::move(NewBand));
  if (Parallel)
    Bands.front().Parallel = true;
  return ApplyResult::success();
}

OpTransformState::ApplyResult
OpTransformState::applyInterchange(const Transformation &T) {
  if (Vectorized)
    return ApplyResult::failure("operation already vectorized (terminal)");
  if (!isValidPermutation(T.Permutation, Op.getNumLoops()))
    return ApplyResult::failure("invalid permutation");
  std::vector<unsigned> NewOrder(Order.size());
  for (unsigned Level = 0; Level < Order.size(); ++Level)
    NewOrder[Level] = Order[T.Permutation[Level]];
  Order = std::move(NewOrder);
  return ApplyResult::success();
}

OpTransformState::ApplyResult OpTransformState::applyVectorization() {
  if (Vectorized)
    return ApplyResult::failure("operation already vectorized");
  if (!isVectorizationLegal(Op, getInnermostTrip()))
    return ApplyResult::failure("vectorization pre-conditions not met");
  Vectorized = true;
  return ApplyResult::success();
}

OpTransformState::ApplyResult
OpTransformState::apply(const Transformation &T) {
  switch (T.Kind) {
  case TransformKind::Tiling:
    return applyTiled(T, /*Parallel=*/false);
  case TransformKind::TiledParallelization:
    return applyTiled(T, /*Parallel=*/true);
  case TransformKind::TiledFusion: {
    // Fusion requires an effective consumer tiling (Linalg fuses at tile
    // granularity); the caller supplies the producer separately.
    bool AnyNonZero = false;
    for (int64_t Size : T.TileSizes)
      AnyNonZero |= Size > 0;
    if (!AnyNonZero)
      return ApplyResult::failure("tiled fusion requires tiling");
    return applyTiled(T, /*Parallel=*/false);
  }
  case TransformKind::Interchange:
    return applyInterchange(T);
  case TransformKind::Vectorization:
    return applyVectorization();
  case TransformKind::NoTransformation:
    return ApplyResult::success();
  }
  MLIRRL_UNREACHABLE("unknown transform kind");
}

//===----------------------------------------------------------------------===//
// Materialization
//===----------------------------------------------------------------------===//

/// Builds the flat loop list of one op from its final transform state:
/// tile bands outermost (in band creation order), then point loops.
/// \p TileLoops receives the band loops; \p PointLoops the point loops.
static void buildLoops(const OpTransformState &State,
                       std::vector<ScheduledLoop> &TileLoops,
                       std::vector<ScheduledLoop> &PointLoops) {
  const LinalgOp &Op = State.getOp();
  const std::vector<unsigned> &Order = State.getOrder();
  std::vector<int64_t> Remaining = Op.getLoopBounds();

  for (unsigned BandIdx = 0; BandIdx < State.getBands().size(); ++BandIdx) {
    const OpTransformState::Band &B = State.getBands()[BandIdx];
    for (unsigned Level = 0; Level < Order.size(); ++Level) {
      unsigned Dim = Order[Level];
      int64_t Size = B.TileByDim[Dim];
      if (Size <= 0 || Size >= Remaining[Dim]) {
        // Parallel bands materialize forall loops even for untiled dims
        // when the "tile" is the whole extent: that is plain
        // parallelization (tile size 1 yields Remaining iterations of
        // size-1 tiles).
        continue;
      }
      ScheduledLoop Loop;
      Loop.IterDim = Dim;
      Loop.TripCount = (Remaining[Dim] + Size - 1) / Size;
      Loop.Step = Size;
      Loop.Kind = Op.getIterator(Dim);
      Loop.IsTileLoop = true;
      Loop.Parallel = B.Parallel && Loop.Kind == IteratorKind::Parallel &&
                      BandIdx == 0;
      TileLoops.push_back(Loop);
      Remaining[Dim] = Size;
    }
  }

  for (unsigned Level = 0; Level < Order.size(); ++Level) {
    unsigned Dim = Order[Level];
    ScheduledLoop Loop;
    Loop.IterDim = Dim;
    Loop.TripCount = Remaining[Dim];
    Loop.Step = 1;
    Loop.Kind = Op.getIterator(Dim);
    Loop.IsTileLoop = false;
    PointLoops.push_back(Loop);
  }
  if (State.isVectorized() && !PointLoops.empty())
    PointLoops.back().Vectorized = true;
}

/// A parallel band whose dims were "tiled by one" (plain parallelization)
/// produces tile loops only where sizes are effective; when the first band
/// is parallel but produced no effective parallel tile loop for a parallel
/// dim (size >= extent or size == 0), parallelism still exists over that
/// dim's tile loop of trip ceil(extent/size). The buildLoops logic above
/// already handles every case except size >= extent with Parallel band:
/// there the whole dim is one tile, i.e. no parallelism from that dim.
///
/// Derives the per-visit domain of a fused producer: for each producer
/// dimension, the extent needed to cover one consumer point box.
static std::vector<int64_t>
computeFusedProducerDomain(const LinalgOp &Producer,
                           const AffineMap &ConsumerReadMap,
                           const std::vector<int64_t> &ConsumerPointBox) {
  // Extent of each producer-output dimension required by one consumer
  // tile: the range of the consumer's read expression over the point box.
  std::vector<int64_t> NeededExtent(ConsumerReadMap.getNumResults(), 1);
  for (unsigned R = 0; R < ConsumerReadMap.getNumResults(); ++R) {
    const AffineExpr &E = ConsumerReadMap.getResult(R);
    int64_t Extent = 1;
    for (unsigned D = 0; D < E.getNumDims(); ++D) {
      int64_t C = E.getCoeff(D);
      if (C < 0)
        C = -C;
      Extent += C * (ConsumerPointBox[D] - 1);
    }
    NeededExtent[R] = Extent;
  }

  // Producer parallel dims appear in its output map (a projected
  // permutation, checked by canFuseProducer); each inherits the needed
  // extent of its output dimension, clamped to its own bound. Reduction
  // dims always run in full.
  std::vector<int64_t> Domain = Producer.getLoopBounds();
  const AffineMap &OutMap = Producer.getOutputMap();
  for (unsigned R = 0; R < OutMap.getNumResults(); ++R) {
    int Dim = OutMap.getResult(R).getSingleDim();
    assert(Dim >= 0 && "fused producer output map not a projection");
    if (R < NeededExtent.size())
      Domain[static_cast<unsigned>(Dim)] =
          std::min(Domain[static_cast<unsigned>(Dim)], NeededExtent[R]);
  }
  return Domain;
}

/// Collects the accesses of \p Op as TensorAccess entries.
static std::vector<TensorAccess> collectAccesses(const Module &M,
                                                 const LinalgOp &Op) {
  std::vector<TensorAccess> Accesses;
  for (const OpOperand &In : Op.getInputs()) {
    const TensorType &Type = M.getValue(In.Value).Type;
    Accesses.push_back(TensorAccess{In.Value, In.Map, Type.getShape(),
                                    getElementByteSize(Type.getElementType()),
                                    /*IsWrite=*/false});
  }
  const TensorType &OutType = M.getValue(Op.getResult()).Type;
  Accesses.push_back(TensorAccess{Op.getResult(), Op.getOutputMap(),
                                  OutType.getShape(),
                                  getElementByteSize(OutType.getElementType()),
                                  /*IsWrite=*/true});
  return Accesses;
}

Expected<OpTransformState> mlirrl::replayOpSchedule(const LinalgOp &Op,
                                                    const OpSchedule &Sched) {
  OpTransformState State(Op);
  for (const Transformation &T : Sched.Transforms) {
    OpTransformState::ApplyResult Result = State.apply(T);
    if (!Result.Applied)
      return makeError<OpTransformState>("illegal schedule for " +
                                         Op.getResult() + ": " +
                                         Result.Reason);
  }
  return State;
}

Expected<LoopNest> mlirrl::materializeLoopNestChecked(const Module &M,
                                                      unsigned OpIdx,
                                                      const OpSchedule &Sched) {
  const LinalgOp &Op = M.getOp(OpIdx);
  Expected<OpTransformState> Replayed = replayOpSchedule(Op, Sched);
  if (!Replayed)
    return makeError<LoopNest>(Replayed.getError());
  const OpTransformState &State = *Replayed;

  std::vector<ScheduledLoop> TileLoops, PointLoops;
  buildLoops(State, TileLoops, PointLoops);

  LoopNest Nest;
  Nest.Name = Op.getResult();
  bool HasFusion = !Sched.FusedProducers.empty();

  // Without fusion everything is one body below an empty outer band.
  if (!HasFusion) {
    NestBody Body;
    Body.Name = Op.getResult();
    Body.Loops = std::move(TileLoops);
    Body.Loops.insert(Body.Loops.end(), PointLoops.begin(), PointLoops.end());
    Body.Accesses = collectAccesses(M, Op);
    Body.Arith = Op.getArith();
    // Parallel tile loops become the shared outer band so the performance
    // model sees the parallelism boundary.
    std::vector<ScheduledLoop> Outer;
    while (!Body.Loops.empty() && Body.Loops.front().IsTileLoop) {
      Outer.push_back(Body.Loops.front());
      Body.Loops.erase(Body.Loops.begin());
    }
    Nest.OuterBand = std::move(Outer);
    Nest.Bodies.push_back(std::move(Body));
    return Nest;
  }

  // With fusion: the consumer's tile loops are the shared band; producer
  // bodies compute their per-tile slice before the consumer's point body.
  Nest.OuterBand = std::move(TileLoops);
  std::vector<int64_t> PointBox = State.getPointTrips();

  // Fusion chains: a later fused producer may be read by an earlier fused
  // producer rather than by the consumer itself. Track each fused body's
  // per-visit domain so chained reads resolve against the right box.
  std::vector<std::pair<const LinalgOp *, std::vector<int64_t>>> Readers;
  Readers.push_back({&Op, PointBox});

  for (unsigned ProducerIdx : Sched.FusedProducers) {
    const LinalgOp &Producer = M.getOp(ProducerIdx);
    // Find a read of this producer's result in the fused group.
    const AffineMap *ReadMap = nullptr;
    const std::vector<int64_t> *ReaderBox = nullptr;
    for (const auto &[Reader, Box] : Readers) {
      for (const OpOperand &In : Reader->getInputs()) {
        if (In.Value == Producer.getResult()) {
          ReadMap = &In.Map;
          ReaderBox = &Box;
          break;
        }
      }
      if (ReadMap)
        break;
    }
    if (!ReadMap)
      return makeError<LoopNest>("fused producer " + Producer.getResult() +
                                 " is not read by the fused group of " +
                                 Op.getResult());

    std::vector<int64_t> Domain =
        computeFusedProducerDomain(Producer, *ReadMap, *ReaderBox);
    Readers.push_back({&Producer, Domain});

    NestBody Body;
    Body.Name = Producer.getResult();
    for (unsigned Dim = 0; Dim < Producer.getNumLoops(); ++Dim) {
      ScheduledLoop Loop;
      Loop.IterDim = Dim;
      Loop.TripCount = Domain[Dim];
      Loop.Step = 1;
      Loop.Kind = Producer.getIterator(Dim);
      Body.Loops.push_back(Loop);
    }
    Body.Accesses = collectAccesses(M, Producer);
    Body.Arith = Producer.getArith();
    Nest.Bodies.push_back(std::move(Body));
    Nest.FusedIntermediates.push_back(Producer.getResult());
  }

  NestBody ConsumerBody;
  ConsumerBody.Name = Op.getResult();
  ConsumerBody.Loops = std::move(PointLoops);
  ConsumerBody.Accesses = collectAccesses(M, Op);
  ConsumerBody.Arith = Op.getArith();
  Nest.Bodies.push_back(std::move(ConsumerBody));
  return Nest;
}

LoopNest mlirrl::materializeLoopNest(const Module &M, unsigned OpIdx,
                                     const OpSchedule &Sched) {
  Expected<LoopNest> Nest = materializeLoopNestChecked(M, OpIdx, Sched);
  if (!Nest)
    reportFatalError("materializeLoopNest: " + Nest.getError());
  return std::move(*Nest);
}

Expected<std::vector<LoopNest>>
mlirrl::materializeModuleChecked(const Module &M, const ModuleSchedule &Sched) {
  std::vector<LoopNest> Nests;
  static const OpSchedule EmptySchedule;
  for (unsigned I = 0; I < M.getNumOps(); ++I) {
    if (Sched.isFusedAway(I))
      continue;
    auto It = Sched.OpSchedules.find(I);
    const OpSchedule &OpSched =
        It == Sched.OpSchedules.end() ? EmptySchedule : It->second;
    Expected<LoopNest> Nest = materializeLoopNestChecked(M, I, OpSched);
    if (!Nest)
      return makeError<std::vector<LoopNest>>(Nest.getError());
    Nests.push_back(std::move(*Nest));
  }
  return Nests;
}

std::vector<LoopNest> mlirrl::materializeModule(const Module &M,
                                                const ModuleSchedule &Sched) {
  Expected<std::vector<LoopNest>> Nests = materializeModuleChecked(M, Sched);
  if (!Nests)
    reportFatalError("materializeModule: " + Nests.getError());
  return std::move(*Nests);
}

std::vector<LoopNest> mlirrl::materializeBaseline(const Module &M) {
  return materializeModule(M, ModuleSchedule());
}
