//===- Featurizer.cpp -----------------------------------------------------===//

#include "env/Featurizer.h"

#include "support/Error.h"
#include "transforms/Legality.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mlirrl;

void ActionHistory::ensureSize(unsigned Steps) {
  if (Entries.size() < Steps)
    Entries.resize(Steps);
}

void ActionHistory::recordTiled(unsigned Step, TransformKind Kind,
                                std::vector<unsigned> TileSizeIdx) {
  ensureSize(Step + 1);
  Entries[Step].Kind = Kind;
  Entries[Step].TileSizeIdx = std::move(TileSizeIdx);
  Entries[Step].Used = true;
}

void ActionHistory::recordInterchange(unsigned Step,
                                      std::vector<int> Placement) {
  ensureSize(Step + 1);
  Entries[Step].Kind = TransformKind::Interchange;
  Entries[Step].Placement = std::move(Placement);
  Entries[Step].Used = true;
}

Featurizer::Featurizer(EnvConfig Config) : Config(Config) {}

unsigned Featurizer::staticFeatureSize() const {
  unsigned N = Config.MaxLoops;
  unsigned OpType = 6;
  unsigned LoopRanges = N * 3; // log-bound, parallel, reduction
  unsigned VecFlag = 1;
  unsigned Maps = Config.MaxArrays * Config.MaxRank * (N + 1);
  unsigned OpCounts = 5;
  return OpType + LoopRanges + VecFlag + Maps + OpCounts;
}

unsigned Featurizer::featureSize() const {
  unsigned N = Config.MaxLoops;
  unsigned Tau = Config.MaxScheduleLength;
  unsigned TileHistory = Tau * N * Config.NumTileSizes;
  unsigned InterchangeHistory = Tau * N * N;
  return staticFeatureSize() + TileHistory + InterchangeHistory;
}

/// The six one-hot operation categories of Fig. 1.
static unsigned opTypeIndex(OpKind Kind) {
  switch (Kind) {
  case OpKind::Generic:
  case OpKind::Sigmoid:
  case OpKind::Softmax:
    return 0; // generic (ReLU-like ops explicitly coded are generic too)
  case OpKind::Matmul:
    return 1;
  case OpKind::Conv2D:
    return 2;
  case OpKind::PoolingMax:
    return 3;
  case OpKind::Add:
    return 4;
  case OpKind::ReLU:
    return 0; // coded with linalg.generic in the paper's pipeline
  case OpKind::Unknown:
    return 5;
  }
  MLIRRL_UNREACHABLE("unknown op kind");
}

std::vector<double> Featurizer::featurizeStatic(const Module &M,
                                                const LinalgOp &Op) const {
  unsigned N = Config.MaxLoops;
  std::vector<double> Out;
  Out.reserve(featureSize());

  // 1) Operation type.
  for (unsigned I = 0; I < 6; ++I)
    Out.push_back(I == opTypeIndex(Op.getKind()) ? 1.0 : 0.0);

  // 2) Loop ranges: normalized log2(bound), parallel flag, reduction flag.
  for (unsigned L = 0; L < N; ++L) {
    if (L < Op.getNumLoops()) {
      Out.push_back(std::log2(static_cast<double>(Op.getLoopBound(L))) /
                    16.0);
      bool Parallel = Op.getIterator(L) == IteratorKind::Parallel;
      Out.push_back(Parallel ? 1.0 : 0.0);
      Out.push_back(Parallel ? 0.0 : 1.0);
    } else {
      Out.push_back(0.0);
      Out.push_back(0.0);
      Out.push_back(0.0);
    }
  }

  // 3) Vectorization pre-condition flag.
  Out.push_back(vectorizationPrecondition(Op) ? 1.0 : 0.0);

  // 4) Indexing maps as access matrices (inputs then output), padded to
  // MaxArrays tensors of MaxRank rows and N+1 columns (constant last).
  auto EmitMap = [&](const AffineMap &Map) {
    for (unsigned R = 0; R < Config.MaxRank; ++R) {
      for (unsigned D = 0; D <= N; ++D) {
        double Value = 0.0;
        if (R < Map.getNumResults()) {
          const AffineExpr &E = Map.getResult(R);
          if (D < N)
            Value = D < E.getNumDims()
                        ? static_cast<double>(E.getCoeff(D))
                        : 0.0;
          else
            Value = static_cast<double>(E.getConstant());
        }
        // Coefficients are small integers; constants can be large
        // (crops, reversals), so squash them.
        Out.push_back(std::clamp(Value / 8.0, -4.0, 4.0));
      }
    }
  };
  unsigned Emitted = 0;
  for (const OpOperand &In : Op.getInputs()) {
    if (Emitted == Config.MaxArrays)
      break;
    EmitMap(In.Map);
    ++Emitted;
  }
  if (Emitted < Config.MaxArrays) {
    EmitMap(Op.getOutputMap());
    ++Emitted;
  }
  for (; Emitted < Config.MaxArrays; ++Emitted)
    for (unsigned I = 0; I < Config.MaxRank * (N + 1); ++I)
      Out.push_back(0.0);
  (void)M;

  // 5) Arithmetic operation counts (log1p-normalized).
  const ArithCounts &A = Op.getArith();
  for (int64_t Count : {A.Add, A.Sub, A.Mul, A.Div, A.Exp})
    Out.push_back(std::log1p(static_cast<double>(Count)));

  assert(Out.size() == staticFeatureSize() && "static feature layout drift");
  return Out;
}

void Featurizer::appendHistory(const ActionHistory &History,
                               std::vector<double> &Out) const {
  // 6) Action history: tau x N x M tiled slab, then tau x N x N
  // interchange slab (Appendix A). Each (step, row) holds at most one
  // hot entry, so grow Out once with zeros and set only the hot ones.
  const size_t N = Config.MaxLoops;
  const size_t Tau = Config.MaxScheduleLength;
  const size_t MSizes = Config.NumTileSizes;
  const size_t TiledBase = Out.size();
  const size_t InterchangeBase = TiledBase + Tau * N * MSizes;
  Out.resize(InterchangeBase + Tau * N * N, 0.0);
  const size_t Steps = std::min(Tau, History.Entries.size());
  for (size_t T = 0; T < Steps; ++T) {
    const ActionHistory::Entry &E = History.Entries[T];
    if (!E.Used)
      continue;
    switch (E.Kind) {
    case TransformKind::Tiling:
    case TransformKind::TiledParallelization:
    case TransformKind::TiledFusion: {
      double *Slab = Out.data() + TiledBase + T * N * MSizes;
      const size_t Levels = std::min(N, E.TileSizeIdx.size());
      for (size_t L = 0; L < Levels; ++L)
        if (E.TileSizeIdx[L] < MSizes)
          Slab[L * MSizes + E.TileSizeIdx[L]] = 1.0;
      break;
    }
    case TransformKind::Interchange: {
      double *Slab = Out.data() + InterchangeBase + T * N * N;
      const size_t Positions = std::min(N, E.Placement.size());
      for (size_t Pos = 0; Pos < Positions; ++Pos) {
        // A pending position holds -1 and stays all-zero.
        const int Loop = E.Placement[Pos];
        if (Loop >= 0 && static_cast<size_t>(Loop) < N)
          Slab[Pos * N + static_cast<size_t>(Loop)] = 1.0;
      }
      break;
    }
    case TransformKind::Vectorization:
    case TransformKind::NoTransformation:
      break;
    }
  }
}

std::vector<double> Featurizer::featurize(const Module &M, const LinalgOp &Op,
                                          const ActionHistory &History) const {
  std::vector<double> Out = featurizeStatic(M, Op);
  appendHistory(History, Out);
  assert(Out.size() == featureSize() && "feature layout drift");
  return Out;
}

EnvConfig EnvConfig::laptop() {
  EnvConfig C;
  C.MaxLoops = 9;
  C.MaxArrays = 4;
  C.MaxRank = 6;
  return C;
}
