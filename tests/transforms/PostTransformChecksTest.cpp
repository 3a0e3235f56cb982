//===- PostTransformChecksTest.cpp - The invariant pass itself ------------===//
//
// The pass must accept everything the engine legally produces and
// reject hand-corrupted states and schedules: illegal replay sequences,
// underivable fused producers, tampered nests, and stale ScheduleState
// caches. checkCandidateAction is the per-step gate the environment
// runs; verifyScheduleState is the full-state form tests and the fuzz
// harness run.
//
//===----------------------------------------------------------------------===//

#include "transforms/PostTransformChecks.h"

#include "ir/Builder.h"
#include "transforms/Apply.h"

#include <gtest/gtest.h>

using namespace mlirrl;

namespace {

struct ChainFixture : ::testing::Test {
  Module M{"chain"};
  std::string X, W, H, A;

  void SetUp() override {
    Builder B(M);
    X = B.declareInput({64, 96});
    W = B.declareInput({96, 32});
    H = B.matmul(X, W); // op 0, bounds (64, 32, 96)
    A = B.relu(H);      // op 1, bounds (64, 32)
  }
};

OpSchedule schedOf(std::initializer_list<Transformation> Ts) {
  OpSchedule S;
  S.Transforms = Ts;
  return S;
}

/// A relu whose loop bounds {4, 16} overrun its {4, 8} input: the
/// module stays well-formed, but IR verification rejects the access.
Module overrunningRelu() {
  Module M("overrun");
  Builder B(M);
  B.relu(B.declareInput({4, 8}));
  const LinalgOp &Op = M.getOp(0);
  M.replaceOp(0, LinalgOp(Op.getResult(), Op.getKind(), {4, 16},
                          Op.getIterators(), Op.getInputs(),
                          Op.getOutputMap(), Op.getArith()));
  return M;
}

} // namespace

TEST_F(ChainFixture, LegalStatesPass) {
  OpTransformState S(M.getOp(0));
  ASSERT_TRUE(S.apply(Transformation::tiling({8, 8, 0})).Applied);
  ASSERT_TRUE(S.apply(Transformation::interchange({1, 0, 2})).Applied);
  std::string Err;
  EXPECT_TRUE(checkTransformState(S, Err)) << Err;
}

TEST_F(ChainFixture, LegalCandidatesPass) {
  std::string Err;
  EXPECT_TRUE(checkCandidateAction(M, 0, OpSchedule(), Err)) << Err;
  EXPECT_TRUE(checkCandidateAction(
      M, 0,
      schedOf({Transformation::tiledParallelization({16, 0, 0}),
               Transformation::tiling({4, 4, 8}),
               Transformation::vectorization()}),
      Err))
      << Err;
}

TEST_F(ChainFixture, IllegalReplaySequenceRejected) {
  // The engine rejects transforming past vectorization; a schedule that
  // claims to must not survive the gate.
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(
      M, 0,
      schedOf({Transformation::vectorization(),
               Transformation::tiling({8, 8, 0})}),
      Err));
  EXPECT_EQ(Err, "schedule does not replay: illegal schedule for %v2: "
                 "operation already vectorized (terminal)");
}

TEST_F(ChainFixture, BadPermutationArityRejected) {
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(
      M, 0, schedOf({Transformation::interchange({1, 0})}), Err));
  EXPECT_FALSE(checkCandidateAction(
      M, 0, schedOf({Transformation::interchange({0, 0, 0})}), Err));
}

TEST_F(ChainFixture, UnderivableFusedProducerRejected) {
  // Op 1 (relu) reads op 0's result, so fusing 0 into 1 is derivable --
  // but the reverse direction is not: op 0 does not read op 1.
  OpSchedule Fused = schedOf({Transformation::tiledFusion({8, 0, 0})});
  Fused.FusedProducers = {1};
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(M, 0, Fused, Err));
  EXPECT_FALSE(Err.empty());

  OpSchedule Legal = schedOf({Transformation::tiledFusion({8, 0})});
  Legal.FusedProducers = {0};
  EXPECT_TRUE(checkCandidateAction(M, 1, Legal, Err)) << Err;
}

TEST_F(ChainFixture, ProducerIndexOutOfRangeRejected) {
  OpSchedule Fused = schedOf({Transformation::tiledFusion({8, 0})});
  Fused.FusedProducers = {7};
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(M, 1, Fused, Err));
  Fused.FusedProducers = {1}; // the op itself
  EXPECT_FALSE(checkCandidateAction(M, 1, Fused, Err));
}

TEST_F(ChainFixture, TamperedNestRejected) {
  OpSchedule Sched = schedOf({Transformation::tiling({8, 8, 0})});
  Expected<LoopNest> Nest = materializeLoopNestChecked(M, 0, Sched);
  ASSERT_TRUE(static_cast<bool>(Nest)) << Nest.getError();
  std::string Err;
  ASSERT_TRUE(checkLoopNest(M, 0, Sched, *Nest, Err)) << Err;

  {
    // Corrupt a trip count.
    LoopNest Bad = *Nest;
    ASSERT_FALSE(Bad.OuterBand.empty());
    Bad.OuterBand[0].TripCount += 1;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
    EXPECT_EQ(Err,
              "tile loop (dim 0, trip 9, step 8) trip is not ceil(64 / 8)");
  }
  {
    // Mark a reduction tile loop parallel. Sched leaves the reduction
    // dim untiled, so this nest tiles it too.
    OpSchedule Reduce = schedOf({Transformation::tiling({8, 8, 8})});
    Expected<LoopNest> Tiled = materializeLoopNestChecked(M, 0, Reduce);
    ASSERT_TRUE(static_cast<bool>(Tiled)) << Tiled.getError();
    ASSERT_TRUE(checkLoopNest(M, 0, Reduce, *Tiled, Err)) << Err;
    LoopNest Bad = *Tiled;
    bool Flipped = false;
    for (ScheduledLoop &L : Bad.OuterBand) {
      if (L.Kind == IteratorKind::Reduction) {
        L.Parallel = true;
        Flipped = true;
        break;
      }
    }
    ASSERT_TRUE(Flipped);
    EXPECT_FALSE(checkLoopNest(M, 0, Reduce, Bad, Err));
    EXPECT_EQ(Err, "outer-band loop (dim 2, trip 12, step 8) parallelizes a "
                   "reduction");
  }
  {
    // Vectorize a non-innermost loop.
    LoopNest Bad = *Nest;
    ASSERT_FALSE(Bad.Bodies.empty());
    ASSERT_GE(Bad.Bodies.back().Loops.size(), 2u);
    Bad.Bodies.back().Loops.front().Vectorized = true;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
    EXPECT_EQ(Err, "vectorized loop of %v2 is not innermost");
  }
  {
    // Demote an outer-band tile loop.
    LoopNest Bad = *Nest;
    Bad.OuterBand[0].IsTileLoop = false;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
    EXPECT_EQ(Err,
              "outer-band loop (dim 0, trip 8, step 8) is not a tile loop");
  }
  {
    // Give a consumer point loop a non-unit step.
    LoopNest Bad = *Nest;
    Bad.Bodies.back().Loops.front().Step = 2;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
    EXPECT_EQ(Err, "consumer loop (dim 0, trip 8, step 2) point step is not 1");
  }
  {
    // Two violations: only the first one checked is reported.
    LoopNest Bad = *Nest;
    Bad.OuterBand[0].TripCount += 1;
    Bad.Bodies.back().Loops.front().Vectorized = true;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
    EXPECT_EQ(Err,
              "tile loop (dim 0, trip 9, step 8) trip is not ceil(64 / 8)");
  }
}

TEST_F(ChainFixture, TamperedFusedBodyRejected) {
  OpSchedule Fused = schedOf({Transformation::tiledFusion({8, 0})});
  Fused.FusedProducers = {0};
  Expected<LoopNest> Nest = materializeLoopNestChecked(M, 1, Fused);
  ASSERT_TRUE(static_cast<bool>(Nest)) << Nest.getError();
  std::string Err;
  ASSERT_TRUE(checkLoopNest(M, 1, Fused, *Nest, Err)) << Err;

  LoopNest Bad = *Nest;
  Bad.Bodies.front().Loops.front().TripCount = 100;
  EXPECT_FALSE(checkLoopNest(M, 1, Fused, Bad, Err));
  EXPECT_EQ(Err, "fused %v2 loop (dim 0, trip 100, step 1) trip outside the "
                 "producer's bound 64");
}

TEST_F(ChainFixture, CorruptTransformStateRejected) {
  // The engine never produces these states; corrupt them in place.
  {
    OpTransformState S(M.getOp(0));
    const_cast<std::vector<unsigned> &>(S.getOrder()) = {0, 0, 2};
    std::string Err;
    EXPECT_FALSE(checkTransformState(S, Err));
    EXPECT_EQ(Err, "loop order of %v2 is not a permutation");
  }
  {
    OpTransformState S(M.getOp(0));
    ASSERT_TRUE(S.apply(Transformation::tiling({8, 8, 0})).Applied);
    const_cast<std::vector<OpTransformState::Band> &>(S.getBands())[0]
        .TileByDim[0] = 128;
    std::string Err;
    EXPECT_FALSE(checkTransformState(S, Err));
    EXPECT_EQ(Err, "band 0 of %v2: tile size 128 on dim 0 does not refine "
                   "extent 64");
  }
}

TEST_F(ChainFixture, ProducerListedTwiceRejected) {
  OpSchedule Fused = schedOf({Transformation::tiledFusion({8, 0})});
  Fused.FusedProducers = {0, 0};
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(M, 1, Fused, Err));
  EXPECT_EQ(Err, "fused producer 0 listed twice");
}

TEST_F(ChainFixture, CleanScheduleStateVerifies) {
  ScheduleState State(M);
  State.apply(1, Transformation::tiledFusion({8, 0}), 0);
  State.apply(1, Transformation::vectorization());
  State.materializeAll();
  std::string Err;
  EXPECT_TRUE(verifyScheduleState(State, Err)) << Err;
}

TEST_F(ChainFixture, CorruptFusedAwayBookkeepingRejected) {
  ScheduleState State(M);
  // Hand-corrupt the schedule: op 0 marked fused away, but no live op
  // claims it. ScheduleState never produces this; the check must see it.
  const_cast<ModuleSchedule &>(State.getSchedule()).FusedAway.push_back(0);
  std::string Err;
  EXPECT_FALSE(verifyScheduleState(State, Err));
  EXPECT_EQ(Err, "fused-away op 0 is still live");

  // A legal fusion whose consumer then drops its claim on the producer.
  ScheduleState Fused(M);
  Fused.apply(1, Transformation::tiledFusion({8, 0}), 0);
  const_cast<ModuleSchedule &>(Fused.getSchedule())
      .OpSchedules[1]
      .FusedProducers.clear();
  EXPECT_FALSE(verifyScheduleState(Fused, Err));
  EXPECT_EQ(Err, "fused-away op 0 claimed by 0 live groups");
}

TEST_F(ChainFixture, FirstBookkeepingFailureSurvivesPerOpChecks) {
  // A consumer that lists its fused producer twice breaks two checks:
  // the fused-away claim count, checked first, and the per-op
  // duplicate-producer check after it. The first one is reported.
  ScheduleState Fused(M);
  Fused.apply(1, Transformation::tiledFusion({8, 0}), 0);
  const_cast<ModuleSchedule &>(Fused.getSchedule())
      .OpSchedules[1]
      .FusedProducers = {0, 0};
  std::string Err;
  EXPECT_FALSE(verifyScheduleState(Fused, Err));
  EXPECT_EQ(Err, "fused-away op 0 claimed by 2 live groups");
}

TEST_F(ChainFixture, StaleCachedNestRejected) {
  ScheduleState State(M);
  State.getNest(0);
  // Change the committed schedule behind the cache's back.
  const_cast<ModuleSchedule &>(State.getSchedule()).OpSchedules[0] =
      schedOf({Transformation::tiling({8, 8, 0})});
  std::string Err;
  EXPECT_FALSE(verifyScheduleState(State, Err));
  EXPECT_EQ(Err, "cached nest of op 0 is stale (differs from a fresh "
                 "materialization)");
}

TEST(PostTransformChecks, VerificationFailureKeepsVerifierReason) {
  Module M = overrunningRelu();
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(M, 0, OpSchedule(), Err));
  EXPECT_EQ(Err, "op fails IR verification: %v1: access %arg0 dim 1 covers "
                 "[0, 15] outside [0, 8)");

  ScheduleState State(M);
  EXPECT_FALSE(verifyScheduleState(State, Err));
  EXPECT_EQ(Err, "module fails IR verification: %v1: access %arg0 dim 1 "
                 "covers [0, 15] outside [0, 8)");
}

TEST_F(ChainFixture, OversizedVectorizationRejected) {
  // An innermost trip past the unroll limit (512): the engine masks it,
  // and a schedule claiming it must not survive the gate either.
  Module M2("wide");
  Builder B2(M2);
  B2.relu(B2.declareInput({4, 600}));
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(
      M2, 0, schedOf({Transformation::vectorization()}), Err));
  EXPECT_FALSE(Err.empty());
}
