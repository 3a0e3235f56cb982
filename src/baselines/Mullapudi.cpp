//===- Mullapudi.cpp ------------------------------------------------------===//

#include "baselines/Mullapudi.h"

#include "perf/WorkingSet.h"

using namespace mlirrl;

MullapudiAutoscheduler::MullapudiAutoscheduler(MachineModel Machine)
    : Eval(Machine), Machine(Machine) {}

HalideDirectives
MullapudiAutoscheduler::scheduleOp(const Module &M, unsigned OpIdx) const {
  // Parallelism threshold: the autoscheduler only parallelizes when the
  // pure (output) iteration space offers enough parallelism relative to
  // the machine (its grouping heuristic rejects under-parallel outer
  // loops). Deep contractions with a single small pure loop — the LQCD
  // hexaquark correlators at S=12 — fall below it, which is why the
  // paper measures only 1.17x there.
  const LinalgOp &Op = M.getOp(OpIdx);
  double PureIterations = 1.0;
  for (unsigned L = 0; L < Op.getNumLoops(); ++L)
    if (Op.getIterator(L) == IteratorKind::Parallel)
      PureIterations *= static_cast<double>(Op.getLoopBound(L));

  // Greedy tile-size choice: largest tile whose working set fits L2.
  // The heuristic estimates the tile footprint as tile^2 elements per
  // operand (its actual cost model is a footprint heuristic too).
  HalideDirectives D;
  D.Parallel = PureIterations >= Machine.NumCores / 2.0;
  D.Vectorize = true;

  int64_t BestTile = 0;
  double BestTime = 0.0;
  bool First = true;
  for (int64_t Tile : {64, 32, 16, 8, 0}) {
    HalideDirectives Candidate = D;
    Candidate.PureTile = Tile;
    LoopNest Nest = applyHalideDirectives(M, OpIdx, Candidate);
    // The heuristic: tile working set must fit L2; among fitting tiles
    // pick the largest (fewest tiles, most reuse).
    std::vector<FlatLoop> Loops = flattenBodyLoops(Nest, Nest.Bodies.size() - 1);
    unsigned Depth = 0;
    for (unsigned I = 0; I < Loops.size(); ++I)
      if (Loops[I].Loop.IsTileLoop)
        Depth = I + 1;
    double Footprint = 0.0;
    for (const TensorAccess &A : Nest.Bodies.back().Accesses)
      Footprint += static_cast<double>(
          computeFootprint(A, Loops, Depth, Machine.L2.LineBytes).Bytes);
    bool Fits = Footprint <= static_cast<double>(Machine.L2.SizeBytes);
    double T = Eval.timeNests({Nest});
    if (First || (Fits && Tile > BestTile) ||
        (BestTile == 0 && T < BestTime)) {
      BestTile = Fits ? Tile : BestTile;
      BestTime = T;
      First = false;
    }
    if (Fits && Tile > 0)
      break; // largest fitting tile wins (greedy, no global search)
  }
  D.PureTile = BestTile;
  return D;
}

double MullapudiAutoscheduler::timeModule(const Module &M) const {
  double Total = 0.0;
  for (unsigned I = 0; I < M.getNumOps(); ++I) {
    LoopNest Nest = applyHalideDirectives(M, I, scheduleOp(M, I));
    Total += Eval.timeNests({Nest});
  }
  return Total;
}
