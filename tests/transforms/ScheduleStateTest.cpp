//===- ScheduleStateTest.cpp - The incremental transaction layer ------------===//
//
// The dirty-op contract: apply() reports exactly which op nests changed
// (one op normally, consumer + removed producer for Tiled Fusion), cached
// nests and prices survive transactions on other ops, and nothing stale
// can ever be read back -- in particular after fusion, when the
// producer's standalone nest ceases to exist and the consumer's nest
// grows a producer body.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "perf/CostModel.h"
#include "perf/Evaluator.h"
#include "perf/Runner.h"
#include "transforms/Apply.h"
#include "transforms/ScheduleState.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace mlirrl;

namespace {

/// relu -> sigmoid chain feeding an add: three ops, fusable chain.
struct ChainFixture : ::testing::Test {
  Module M{"chain"};
  std::string X, R, S;

  void SetUp() override {
    Builder B(M);
    X = B.declareInput({128, 128});
    R = B.relu(X);     // op 0
    S = B.sigmoid(R);  // op 1
    B.add(S, S);       // op 2
  }
};

bool contains(const std::vector<unsigned> &Values, unsigned V) {
  return std::find(Values.begin(), Values.end(), V) != Values.end();
}

} // namespace

TEST_F(ChainFixture, ApplyDirtiesExactlyTheActedOnOp) {
  ScheduleState State(M);
  ScheduleState::DirtySet Dirty =
      State.apply(2, Transformation::tiling({8, 8}));
  EXPECT_EQ(Dirty.Changed, std::vector<unsigned>{2u});
  EXPECT_TRUE(Dirty.FusedAway.empty());
  EXPECT_EQ(State.liveOps(), (std::vector<unsigned>{0, 1, 2}));
  ASSERT_EQ(State.getSchedule().OpSchedules.size(), 1u);
  EXPECT_EQ(State.getSchedule().OpSchedules.at(2).Transforms.size(), 1u);
}

TEST_F(ChainFixture, TiledFusionDirtiesConsumerAndRemovesProducer) {
  ScheduleState State(M);
  ScheduleState::DirtySet Dirty =
      State.apply(2, Transformation::tiledFusion({8, 8}),
                  /*FusedProducer=*/1);
  EXPECT_EQ(Dirty.Changed, std::vector<unsigned>{2u});
  EXPECT_EQ(Dirty.FusedAway, std::vector<unsigned>{1u});
  EXPECT_EQ(State.liveOps(), (std::vector<unsigned>{0, 2}));
  EXPECT_TRUE(State.getSchedule().isFusedAway(1));
  EXPECT_EQ(State.getSchedule().OpSchedules.at(2).FusedProducers,
            std::vector<unsigned>{1u});
}

TEST_F(ChainFixture, CleanOpsKeepCachedNestsAcrossTransactions) {
  ScheduleState State(M);
  // Materialize everything once.
  for (unsigned OpIdx : State.liveOps())
    State.getNest(OpIdx);
  EXPECT_EQ(State.counters().NestMaterializations, 3u);

  // A transaction on op 2 must not re-materialize ops 0 and 1.
  State.apply(2, Transformation::tiling({8, 8}));
  uint64_t H0 = hashLoopNest(State.getNest(0));
  uint64_t H1 = hashLoopNest(State.getNest(1));
  uint64_t H2 = hashLoopNest(State.getNest(2));
  EXPECT_EQ(State.counters().NestMaterializations, 4u);

  // The dirty op's nest changed; the clean ops' nests did not.
  EXPECT_EQ(H0, hashLoopNest(materializeLoopNest(M, 0, OpSchedule())));
  EXPECT_EQ(H1, hashLoopNest(materializeLoopNest(M, 1, OpSchedule())));
  OpSchedule Tiled;
  Tiled.Transforms.push_back(Transformation::tiling({8, 8}));
  EXPECT_EQ(H2, hashLoopNest(materializeLoopNest(M, 2, Tiled)));
}

TEST_F(ChainFixture, MaterializeAllMatchesMaterializeModule) {
  ScheduleState State(M);
  State.apply(2, Transformation::tiledFusion({8, 8}), /*FusedProducer=*/1);
  State.apply(0, Transformation::tiling({16, 16}));

  std::vector<LoopNest> FromState = State.materializeAll();
  std::vector<LoopNest> Oracle = materializeModule(M, State.getSchedule());
  ASSERT_EQ(FromState.size(), Oracle.size());
  for (size_t I = 0; I < Oracle.size(); ++I)
    EXPECT_EQ(hashLoopNest(FromState[I]), hashLoopNest(Oracle[I]));

  // And the cached per-op nests agree with the oracle, in liveOps order.
  ASSERT_EQ(State.liveOps().size(), Oracle.size());
  for (size_t I = 0; I < Oracle.size(); ++I)
    EXPECT_EQ(hashLoopNest(State.getNest(State.liveOps()[I])),
              hashLoopNest(Oracle[I]));
}

TEST_F(ChainFixture, MemoKeyTracksScheduleAndFusionStructure) {
  ScheduleState State(M);
  uint64_t Baseline2 = State.opMemoKey(2);
  // Stable until dirtied.
  EXPECT_EQ(State.opMemoKey(2), Baseline2);
  // Distinct ops get distinct keys.
  EXPECT_NE(State.opMemoKey(0), State.opMemoKey(1));

  State.apply(2, Transformation::tiling({8, 8}));
  uint64_t Tiled2 = State.opMemoKey(2);
  EXPECT_NE(Tiled2, Baseline2);
  // Clean ops keep their keys.
  EXPECT_EQ(State.opMemoKey(1), ScheduleState(M).opMemoKey(1));

  // The same schedule applied to a fresh state reproduces the key
  // (content-addressed: entries survive across states/samples).
  ScheduleState Fresh(M);
  Fresh.apply(2, Transformation::tiling({8, 8}));
  EXPECT_EQ(Fresh.opMemoKey(2), Tiled2);

  // Fusion folds the producer's structure into the consumer's key.
  ScheduleState Fused(M);
  Fused.apply(2, Transformation::tiledFusion({8, 8}), /*FusedProducer=*/1);
  ScheduleState PlainTiled(M);
  PlainTiled.apply(2, Transformation::tiledFusion({8, 8}));
  EXPECT_NE(Fused.opMemoKey(2), PlainTiled.opMemoKey(2));
}

TEST_F(ChainFixture, FusionInvalidationForbidsStaleNestReuse) {
  // The corruption scenario the per-nest caches must make impossible:
  // price the whole module, fuse op 1 into op 2, and re-price. A stale
  // consumer nest (without the producer body) or a lingering producer
  // price would corrupt the sum.
  CostModelEvaluator Eval(MachineModel::xeonE5_2680v4());
  ScheduleState State(M);
  double Before = Eval.timeState(State);
  EXPECT_EQ(Before, Eval.timeModule(M, State.getSchedule()));
  // A fresh state prices as the unscheduled baseline.
  EXPECT_EQ(Before, Eval.timeBaseline(M));

  // Warm every per-op cache, then fuse.
  for (unsigned OpIdx : State.liveOps()) {
    State.getNest(OpIdx);
    EXPECT_TRUE(State.hasPrice(OpIdx));
  }
  State.apply(2, Transformation::tiledFusion({8, 8}), /*FusedProducer=*/1);

  // The consumer's price slot is invalidated, the producer is gone from
  // the live set entirely.
  EXPECT_FALSE(State.hasPrice(2));
  EXPECT_FALSE(contains(State.liveOps(), 1));

  // Re-pricing reflects the fused structure bitwise (== the oracle) and
  // the consumer's nest now carries the producer body.
  double After = Eval.timeState(State);
  EXPECT_EQ(After, Eval.timeModule(M, State.getSchedule()));
  EXPECT_NE(After, Before);
  const LoopNest &Fused = State.getNest(2);
  ASSERT_EQ(Fused.Bodies.size(), 2u);
  EXPECT_TRUE(Fused.isFusedIntermediate(S));

  // Same scenario through a CachingEvaluator: the op memo must not
  // resurrect the pre-fusion consumer price either.
  CostModelEvaluator Inner(MachineModel::xeonE5_2680v4());
  CachingEvaluator Caching(Inner);
  ScheduleState CachedState(M);
  EXPECT_EQ(Caching.timeState(CachedState), Before);
  CachedState.apply(2, Transformation::tiledFusion({8, 8}),
                    /*FusedProducer=*/1);
  EXPECT_EQ(Caching.timeState(CachedState), After);
}

TEST_F(ChainFixture, RunnerIncrementalMatchesWholeModule) {
  // Runner's noise protocol applies at module level: per-nest prices +
  // the combiner reproduce timeNests bitwise (noise off = training
  // default).
  Runner Run(MachineModel::xeonE5_2680v4());
  ScheduleState State(M);
  State.apply(2, Transformation::tiling({4, 4}));
  EXPECT_EQ(Run.timeState(State), Run.timeModule(M, State.getSchedule()));
}

TEST(ScheduleStateHashTest, DifferentSchedulesHashApart) {
  // hashLoopNest feeds every nest comparison above: nests materialized
  // under different schedules of one op must never share a hash.
  Module MM{"mm"};
  Builder B(MM);
  std::string A = B.declareInput({256, 256});
  std::string Bv = B.declareInput({256, 256});
  B.matmul(A, Bv);
  auto HashWith = [&](Transformation T) {
    OpSchedule Sched;
    Sched.Transforms.push_back(std::move(T));
    return hashLoopNest(materializeLoopNest(MM, 0, Sched));
  };

  uint64_t H1 = HashWith(Transformation::tiling({8, 8, 8}));
  uint64_t H2 = HashWith(Transformation::tiling({32, 32, 32}));
  uint64_t H3 = HashWith(Transformation::interchange({2, 0, 1}));
  uint64_t H4 = HashWith(Transformation::tiledParallelization({32, 32, 0}));
  EXPECT_NE(H1, H2);
  EXPECT_NE(H1, H3);
  EXPECT_NE(H2, H3);
  EXPECT_NE(H2, H4);
  // Re-materializing the same schedule hashes the same.
  EXPECT_EQ(H1, HashWith(Transformation::tiling({8, 8, 8})));
}
