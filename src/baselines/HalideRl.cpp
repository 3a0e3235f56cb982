//===- HalideRl.cpp -------------------------------------------------------===//

#include "baselines/HalideRl.h"

using namespace mlirrl;

HalideRlBaseline::HalideRlBaseline(MachineModel Machine) : Eval(Machine) {}

std::vector<HalideDirectives> HalideRlBaseline::directiveCandidates() {
  std::vector<HalideDirectives> Candidates;
  // No reorder: Halide's storage order fixes the pure-loop order, and
  // the reduction domain is sequential per output regardless.
  for (int64_t Tile : {0, 8, 16, 32, 64})
    for (bool Vectorize : {false, true}) {
      HalideDirectives D;
      D.PureTile = Tile;
      D.Parallel = true;
      D.Vectorize = Vectorize;
      Candidates.push_back(D);
    }
  return Candidates;
}

HalideDirectives
HalideRlBaseline::bestDirectives(const Module &M, unsigned OpIdx,
                                 double *BestSeconds) const {
  HalideDirectives Best;
  double BestTime = 0.0;
  bool First = true;
  for (const HalideDirectives &D : directiveCandidates()) {
    LoopNest Nest = applyHalideDirectives(M, OpIdx, D);
    double T = Eval.timeNests({Nest});
    if (First || T < BestTime) {
      Best = D;
      BestTime = T;
      First = false;
    }
  }
  if (BestSeconds)
    *BestSeconds = BestTime;
  return Best;
}

double HalideRlBaseline::timeModule(const Module &M) const {
  double Total = 0.0;
  for (unsigned I = 0; I < M.getNumOps(); ++I) {
    double Seconds = 0.0;
    bestDirectives(M, I, &Seconds);
    Total += Seconds;
  }
  return Total;
}
