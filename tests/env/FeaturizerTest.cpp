//===- FeaturizerTest.cpp - Tests for the state representation --------------===//

#include "env/Featurizer.h"

#include "TestUtil.h"
#include "baselines/RandomSearch.h"
#include "datasets/Lqcd.h"
#include "datasets/Sequences.h"
#include "env/Environment.h"
#include "ir/Builder.h"
#include "perf/Evaluator.h"
#include "support/Hash.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

using namespace mlirrl;
using testutil::denseRow;

namespace {

struct FeaturizerFixture : ::testing::Test {
  EnvConfig Config = EnvConfig::laptop();
  Featurizer Feat{Config};
  Module M{"m"};

  unsigned makeMatmul() {
    Builder B(M);
    std::string A = B.declareInput({64, 32});
    std::string Bv = B.declareInput({32, 16});
    B.matmul(A, Bv);
    return M.getNumOps() - 1;
  }

  /// Op \p Op's row under \p History, expanded to featureSize() values.
  std::vector<double> featurizeDense(unsigned Op,
                                     const ActionHistory &History = {}) {
    return denseRow(Feat.featurize(M.getOp(Op), History), Feat.featureSize());
  }
};

/// The dense one-hot history loop, element by element: the reference
/// appendHistory must reproduce bit for bit.
void appendHistoryDense(const EnvConfig &Config, const ActionHistory &History,
                        std::vector<double> &Out) {
  unsigned N = Config.MaxLoops;
  unsigned Tau = Config.MaxScheduleLength;
  unsigned MSizes = Config.NumTileSizes;
  for (unsigned T = 0; T < Tau; ++T) {
    const ActionHistory::Entry *E =
        T < History.Entries.size() ? &History.Entries[T] : nullptr;
    bool Tiled = E && E->Used &&
                 (E->Kind == TransformKind::Tiling ||
                  E->Kind == TransformKind::TiledParallelization ||
                  E->Kind == TransformKind::TiledFusion);
    for (unsigned L = 0; L < N; ++L)
      for (unsigned S = 0; S < MSizes; ++S) {
        bool On = Tiled && L < E->TileSizeIdx.size() &&
                  E->TileSizeIdx[L] == S;
        Out.push_back(On ? 1.0 : 0.0);
      }
  }
  for (unsigned T = 0; T < Tau; ++T) {
    const ActionHistory::Entry *E =
        T < History.Entries.size() ? &History.Entries[T] : nullptr;
    bool Inter = E && E->Used && E->Kind == TransformKind::Interchange;
    for (unsigned Pos = 0; Pos < N; ++Pos)
      for (unsigned Loop = 0; Loop < N; ++Loop) {
        bool On = Inter && Pos < E->Placement.size() &&
                  E->Placement[Pos] == static_cast<int>(Loop);
        Out.push_back(On ? 1.0 : 0.0);
      }
  }
}

/// A history with every field drawn independently of the entry's kind:
/// unused entries, stale TileSizeIdx on vectorization and no-op entries,
/// pending (-1) and out-of-range placements, indices >= NumTileSizes,
/// vectors longer than N, and more entries than tau.
ActionHistory randomHistory(Rng &R, const EnvConfig &Config) {
  ActionHistory H;
  H.Entries.resize(R.nextBounded(Config.MaxScheduleLength + 3));
  for (ActionHistory::Entry &E : H.Entries) {
    E.Kind = static_cast<TransformKind>(R.nextBounded(NumTransformKinds));
    E.Used = R.nextBounded(4) != 0;
    E.TileSizeIdx.resize(R.nextBounded(Config.MaxLoops + 3));
    for (unsigned &Idx : E.TileSizeIdx)
      Idx = static_cast<unsigned>(R.nextBounded(Config.NumTileSizes + 2));
    E.Placement.resize(R.nextBounded(Config.MaxLoops + 3));
    for (int &Loop : E.Placement)
      Loop = static_cast<int>(R.nextBounded(Config.MaxLoops + 3)) - 1;
  }
  return H;
}

} // namespace

TEST_F(FeaturizerFixture, SizeIsStableAndMatchesLayout) {
  unsigned N = Config.MaxLoops;
  unsigned Expected = 6 + N * 3 + 1 +
                      Config.MaxArrays * Config.MaxRank * (N + 1) + 5 +
                      Config.MaxScheduleLength * N * Config.NumTileSizes +
                      Config.MaxScheduleLength * N * N;
  EXPECT_EQ(Feat.featureSize(), Expected);
  unsigned Op = makeMatmul();
  std::vector<int> Identity(N);
  std::iota(Identity.begin(), Identity.end(), 0);
  ActionHistory H;
  for (unsigned T = 0; T < Config.MaxScheduleLength; ++T)
    H.recordInterchange(T, Identity);
  SparseRow F = Feat.featurize(M.getOp(Op), H);
  testutil::expectWellFormedRow(F, Expected, "matmul");
  // The last interchange slab's last loop is the layout's last column.
  ASSERT_FALSE(F.empty());
  EXPECT_EQ(F.back().Col, Expected - 1);
}

TEST_F(FeaturizerFixture, OpTypeOneHot) {
  unsigned Op = makeMatmul();
  std::vector<double> F = featurizeDense(Op);
  // Categories: generic, matmul, conv, pooling, add, unknown.
  EXPECT_DOUBLE_EQ(F[0], 0.0);
  EXPECT_DOUBLE_EQ(F[1], 1.0);
  EXPECT_DOUBLE_EQ(F[2], 0.0);
  double Sum = F[0] + F[1] + F[2] + F[3] + F[4] + F[5];
  EXPECT_DOUBLE_EQ(Sum, 1.0);
}

TEST_F(FeaturizerFixture, LoopRangesEncodeBoundsAndKinds) {
  unsigned Op = makeMatmul();
  std::vector<double> F = featurizeDense(Op);
  // Loops start at offset 6; matmul bounds (64, 16, 32).
  EXPECT_NEAR(F[6 + 0], std::log2(64.0) / 16.0, 1e-12);
  EXPECT_DOUBLE_EQ(F[6 + 1], 1.0); // parallel
  EXPECT_DOUBLE_EQ(F[6 + 2], 0.0);
  // Third loop (d2) is the reduction.
  EXPECT_DOUBLE_EQ(F[6 + 2 * 3 + 1], 0.0);
  EXPECT_DOUBLE_EQ(F[6 + 2 * 3 + 2], 1.0);
  // Absent loops are all-zero.
  unsigned Last = 6 + (Config.MaxLoops - 1) * 3;
  EXPECT_DOUBLE_EQ(F[Last], 0.0);
  EXPECT_DOUBLE_EQ(F[Last + 1], 0.0);
}

TEST_F(FeaturizerFixture, VectorizationFlagDiffersByOp) {
  unsigned MatmulOp = makeMatmul();
  Builder B(M);
  std::string In = B.declareInput({1, 8, 16, 16});
  B.poolingMax(In, 2, 2, 2);
  unsigned PoolOp = M.getNumOps() - 1;

  unsigned FlagOffset = 6 + Config.MaxLoops * 3;
  std::vector<double> Fm = featurizeDense(MatmulOp);
  std::vector<double> Fp = featurizeDense(PoolOp);
  EXPECT_DOUBLE_EQ(Fm[FlagOffset], 1.0);
  EXPECT_DOUBLE_EQ(Fp[FlagOffset], 0.0);
}

TEST_F(FeaturizerFixture, AccessMatrixCoefficients) {
  unsigned Op = makeMatmul();
  std::vector<double> F = featurizeDense(Op);
  unsigned N = Config.MaxLoops;
  unsigned MapsOffset = 6 + N * 3 + 1;
  // First input map of matmul: (d0, d1, d2) -> (d0, d2).
  // Row 0 column 0 (coefficient of d0 in the first result) is 1 -> 1/8.
  EXPECT_NEAR(F[MapsOffset + 0], 1.0 / 8.0, 1e-12);
  // Row 1 column 2 (coefficient of d2 in the second result) is 1.
  EXPECT_NEAR(F[MapsOffset + (N + 1) + 2], 1.0 / 8.0, 1e-12);
  // Row 1 column 0 is 0.
  EXPECT_NEAR(F[MapsOffset + (N + 1)], 0.0, 1e-12);
}

TEST_F(FeaturizerFixture, HistoryTiledSlabOneHot) {
  unsigned Op = makeMatmul();
  ActionHistory H;
  H.recordTiled(0, TransformKind::Tiling, {3, 0, 5});
  std::vector<double> F = featurizeDense(Op, H);

  unsigned N = Config.MaxLoops;
  unsigned HistOffset = 6 + N * 3 + 1 +
                        Config.MaxArrays * Config.MaxRank * (N + 1) + 5;
  unsigned MSizes = Config.NumTileSizes;
  // Step 0, loop 0, size index 3 must be hot.
  EXPECT_DOUBLE_EQ(F[HistOffset + 0 * MSizes + 3], 1.0);
  // Loop 2, size index 5 hot.
  EXPECT_DOUBLE_EQ(F[HistOffset + 2 * MSizes + 5], 1.0);
  // Step 1 slab is all zero.
  double Step1Sum = 0.0;
  for (unsigned I = 0; I < N * MSizes; ++I)
    Step1Sum += F[HistOffset + N * MSizes + I];
  EXPECT_DOUBLE_EQ(Step1Sum, 0.0);
}

TEST_F(FeaturizerFixture, HistoryInterchangeSlabPartial) {
  unsigned Op = makeMatmul();
  ActionHistory H;
  // Partial placement: position 0 <- loop 2 chosen, rest pending.
  H.recordInterchange(1, {2, -1, -1});
  std::vector<double> F = featurizeDense(Op, H);

  unsigned N = Config.MaxLoops;
  unsigned Base = 6 + N * 3 + 1 + Config.MaxArrays * Config.MaxRank * (N + 1) +
                  5 + Config.MaxScheduleLength * N * Config.NumTileSizes;
  // Step 1 slab, position 0, loop 2.
  unsigned Idx = Base + 1 * N * N + 0 * N + 2;
  EXPECT_DOUBLE_EQ(F[Idx], 1.0);
  // Position 1 row all zero (pending).
  for (unsigned L = 0; L < N; ++L)
    EXPECT_DOUBLE_EQ(F[Base + 1 * N * N + 1 * N + L], 0.0);
}

TEST(FeaturizerHistory, MatchesDenseLoopBitwise) {
  for (const EnvConfig &Config : {EnvConfig::laptop(), EnvConfig()}) {
    Featurizer Feat(Config);
    Module M("m");
    Builder B(M);
    B.matmul(B.declareInput({64, 32}), B.declareInput({32, 16}));
    const SparseRow Prefix = Feat.featurizeStatic(M.getOp(0));
    ASSERT_FALSE(Prefix.empty());
    const std::vector<double> DensePrefix =
        denseRow(Prefix, Feat.staticFeatureSize());

    Rng R(Config.MaxLoops);
    for (unsigned Trial = 0; Trial < 500; ++Trial) {
      ActionHistory H = Trial == 0 ? ActionHistory() : randomHistory(R, Config);
      std::vector<double> Expected = DensePrefix;
      appendHistoryDense(Config, H, Expected);
      SparseRow Got = Prefix;
      Feat.appendHistory(H, Got);
      testutil::expectWellFormedRow(Got, Feat.featureSize(), "history row");
      std::vector<double> Dense = denseRow(Got, Feat.featureSize());
      ASSERT_EQ(Dense.size(), Expected.size());
      for (size_t I = 0; I < Dense.size(); ++I)
        ASSERT_EQ(std::bit_cast<uint64_t>(Dense[I]),
                  std::bit_cast<uint64_t>(Expected[I]))
            << "MaxLoops " << Config.MaxLoops << ", trial " << Trial
            << ": first difference at element " << I;
    }
  }
}

TEST(FeaturizerCorpus, ObservationRowsArePinned) {
  // The dense expansion of every producer and consumer row over seeded
  // random episodes, both presets, incremental and from-scratch, folded
  // bit for bit into one hash. The value was captured from dense rows
  // before features were stored sparse; any change to a feature value,
  // its column or the row width moves it.
  FnvHasher Hash;
  unsigned Steps = 0;
  for (const EnvConfig &Preset : {EnvConfig::laptop(), EnvConfig()})
    for (bool Incremental : {true, false}) {
      EnvConfig Config = Preset;
      Config.Incremental = Incremental;
      const unsigned Width = Featurizer(Config).featureSize();
      CostModelEvaluator Eval(MachineModel::xeonE5_2680v4());
      Rng Corpus(23);
      std::vector<Module> Modules = generateSequenceDataset(Corpus, 24);
      for (Module &M : generateLqcdDataset(Corpus, 8))
        Modules.push_back(std::move(M));
      uint64_t Seed = 0x5eed;
      for (const Module &M : Modules) {
        Environment Env(Config, Eval, M);
        Rng Actions(Seed++);
        while (!Env.isDone()) {
          const Observation &Obs = Env.observe();
          for (const SparseRow *Row : {&Obs.Producer, &Obs.Consumer})
            for (double V : denseRow(*Row, Width))
              Hash.word(std::bit_cast<uint64_t>(V));
          Env.step(randomAction(Obs, Config, Actions));
          ++Steps;
        }
      }
    }
  EXPECT_EQ(Steps, 1576u);
  EXPECT_EQ(Hash.finish(), 0x020c7ba204ed91adull);
}
