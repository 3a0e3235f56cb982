//===- IncrementalEquivalenceTest.cpp - incremental == from-scratch ---------===//
//
// The property behind the ScheduleState transaction layer, checked
// mechanically over every dataset generator: an environment stepping
// incrementally (dirty-op pricing, delta featurization -- the default)
// is bitwise-indistinguishable from one recomputing everything from
// scratch. Two environments run in lockstep on identical randomized
// masked action sequences; at every step the observations (consumer,
// producer, all masks), rewards, done flags and measurement accounting
// must match exactly, and at the end the schedules and speedups must
// too. Every observation's feature rows must also be well formed:
// strictly ascending columns below the feature width, no zero value,
// and an empty producer row exactly when fusion is masked off. Both
// reward modes are swept -- Immediate is the mode whose every step
// prices the module, so it is where stale caches would surface.
// The baselines are checked on their own as well: the incremental
// environment prices its fresh state, the from-scratch one calls
// timeBaseline, and the two must agree bitwise even through a noisy
// Runner.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "datasets/Dataset.h"
#include "datasets/Models.h"
#include "env/Environment.h"
#include "perf/Evaluator.h"
#include "perf/Runner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace mlirrl;

namespace {

struct Corpus {
  const char *Name;
  std::vector<Module> (*Build)();
  RewardMode Reward;
};

std::vector<Module> dnnOperators() {
  Rng R(31);
  return generateDnnOperatorDataset(R, DnnDatasetCounts::scaled(0.01));
}

std::vector<Module> evaluationModel() {
  // One full model: many ops, deep producer chains (fusion-heavy).
  return {makeMobileNetV2()};
}

std::vector<Module> lqcdKernels() {
  Rng R(32);
  return generateLqcdDataset(R, 4);
}

std::vector<Module> operatorSequences() {
  Rng R(33);
  return generateSequenceDataset(R, 6);
}

/// A uniformly random action under the observation's masks (the same
/// sampling scheme randomSearch uses).
AgentAction randomMaskedAction(const Observation &Obs,
                               const EnvConfig &Config, Rng &R) {
  AgentAction A;
  if (Obs.InPointerSequence) {
    A.Kind = TransformKind::Interchange;
    A.PointerChoice =
        static_cast<unsigned>(R.sampleWeighted(Obs.InterchangeMask));
    return A;
  }
  A.Kind = static_cast<TransformKind>(R.sampleWeighted(Obs.TransformMask));
  switch (A.Kind) {
  case TransformKind::Tiling:
  case TransformKind::TiledParallelization:
  case TransformKind::TiledFusion:
    A.TileSizeIdx.resize(Config.MaxLoops);
    for (unsigned &Idx : A.TileSizeIdx)
      Idx = static_cast<unsigned>(R.nextBounded(Config.NumTileSizes));
    break;
  case TransformKind::Interchange:
    A.PointerChoice =
        static_cast<unsigned>(R.sampleWeighted(Obs.InterchangeMask));
    A.EnumeratedChoice = A.PointerChoice;
    break;
  case TransformKind::Vectorization:
  case TransformKind::NoTransformation:
    break;
  }
  return A;
}

void expectSameVector(const std::vector<double> &A,
                      const std::vector<double> &B, const char *What,
                      unsigned Step) {
  ASSERT_EQ(A.size(), B.size()) << What << " at step " << Step;
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << What << "[" << I << "] at step " << Step;
}

/// The feature rows' invariants on one observation: every row well
/// formed within the feature width, and an empty producer row exactly
/// when the mask forbids fusion. That holds outside a pointer sequence,
/// whose mask allows only interchange, and before the episode ends,
/// when the observation empties.
void expectWellFormedRows(const Observation &Obs, unsigned Width,
                          unsigned Step) {
  const std::string At = " at step " + std::to_string(Step);
  testutil::expectWellFormedRow(Obs.Consumer, Width, "Consumer" + At);
  testutil::expectWellFormedRow(Obs.Producer, Width, "Producer" + At);
  if (!Obs.InPointerSequence && !Obs.TransformMask.empty()) {
    EXPECT_EQ(Obs.Producer.empty(),
              Obs.TransformMask[static_cast<unsigned>(
                  TransformKind::TiledFusion)] == 0.0)
        << "Producer" << At;
  }
}

void expectSameObservation(const Observation &A, const Observation &B,
                           unsigned Width, unsigned Step) {
  expectWellFormedRows(A, Width, Step);
  const std::string At = " at step " + std::to_string(Step);
  testutil::expectSameRow(A.Consumer, B.Consumer, "Consumer" + At);
  testutil::expectSameRow(A.Producer, B.Producer, "Producer" + At);
  expectSameVector(A.TransformMask, B.TransformMask, "TransformMask", Step);
  expectSameVector(A.InterchangeMask, B.InterchangeMask, "InterchangeMask",
                   Step);
  expectSameVector(A.FlatMask, B.FlatMask, "FlatMask", Step);
  ASSERT_EQ(A.InPointerSequence, B.InPointerSequence) << "step " << Step;
  ASSERT_EQ(A.NumLoops, B.NumLoops) << "step " << Step;
}

class IncrementalEquivalenceFixture
    : public ::testing::TestWithParam<Corpus> {};

/// Environment configs of the incremental / from-scratch pair.
std::pair<EnvConfig, EnvConfig> configPair(const Corpus &Param) {
  EnvConfig Incremental = EnvConfig::laptop();
  Incremental.Reward = Param.Reward;
  Incremental.Incremental = true;
  EnvConfig FromScratch = Incremental;
  FromScratch.Incremental = false;
  return {Incremental, FromScratch};
}

/// The lockstep sweep itself, over any (thread-safe, deterministic)
/// evaluator: both environments of each pair measure through \p Eval,
/// and \p Oracle cross-checks the final schedules from scratch.
void runLockstepSweep(const Corpus &Param, Evaluator &Eval,
                      CostModelEvaluator &Oracle) {
  std::vector<Module> Corpus = Param.Build();
  ASSERT_FALSE(Corpus.empty());
  auto [Incremental, FromScratch] = configPair(Param);

  const unsigned Width = Featurizer(Incremental).featureSize();
  uint64_t Seed = 0x1234;
  for (const Module &M : Corpus) {
    Environment Inc(Incremental, Eval, M);
    Environment Ref(FromScratch, Eval, M);
    Rng IncRng(Seed), RefRng(Seed);
    ++Seed;

    unsigned Step = 0;
    expectSameObservation(Inc.observe(), Ref.observe(), Width, Step);
    while (!Inc.isDone()) {
      ASSERT_FALSE(Ref.isDone()) << M.getName();
      AgentAction A =
          randomMaskedAction(Inc.observe(), Incremental, IncRng);
      AgentAction B =
          randomMaskedAction(Ref.observe(), FromScratch, RefRng);
      Environment::StepOutcome OutA = Inc.step(A);
      Environment::StepOutcome OutB = Ref.step(B);
      ++Step;
      ASSERT_EQ(OutA.Reward, OutB.Reward)
          << M.getName() << " reward at step " << Step;
      ASSERT_EQ(OutA.Done, OutB.Done) << M.getName() << " step " << Step;
      expectSameObservation(Inc.observe(), Ref.observe(), Width, Step);
      ASSERT_LT(Step, 10000u) << "runaway episode";
    }
    ASSERT_TRUE(Ref.isDone());

    // End-of-episode artifacts: schedule, prices, accounting.
    EXPECT_EQ(Inc.getSchedule().toString(), Ref.getSchedule().toString())
        << M.getName();
    EXPECT_EQ(Inc.currentSpeedup(), Ref.currentSpeedup()) << M.getName();
    EXPECT_EQ(Inc.getMeasurementSeconds(), Ref.getMeasurementSeconds())
        << M.getName();
    // The incremental price of the final schedule equals pricing the
    // same schedule from scratch through the module-level oracle.
    EXPECT_EQ(Oracle.timeModule(M, Inc.getSchedule()),
              Oracle.timeModule(M, Ref.getSchedule()))
        << M.getName();
  }
}

/// Builds an incremental environment through \p IncEval and a
/// from-scratch one through \p RefEval for every module of the corpus.
/// Fresh environments have measured only their baseline, so equal
/// measurement accounting means equal baselines.
void expectSameBaselines(const Corpus &Param, Evaluator &IncEval,
                         Evaluator &RefEval) {
  auto [Incremental, FromScratch] = configPair(Param);
  for (const Module &M : Param.Build()) {
    Environment Inc(Incremental, IncEval, M);
    Environment Ref(FromScratch, RefEval, M);
    EXPECT_GT(Ref.getMeasurementSeconds(), 0.0) << M.getName();
    EXPECT_EQ(Inc.getMeasurementSeconds(), Ref.getMeasurementSeconds())
        << M.getName();
  }
}

} // namespace

TEST_P(IncrementalEquivalenceFixture, LockstepEpisodesMatchBitwise) {
  CostModelEvaluator Eval(MachineModel::xeonE5_2680v4());
  runLockstepSweep(GetParam(), Eval, Eval);
}

TEST_P(IncrementalEquivalenceFixture,
       LockstepEpisodesMatchThroughSharedStripedMemo) {
  // The same sweep with both environments pricing through one shared
  // lock-striped CachingEvaluator: the incremental path answers from
  // the per-op memo, the from-scratch path prices through the inner
  // evaluator, and hit-vs-miss must never change a returned price. A
  // fresh oracle (outside the memo) cross-checks the final schedules.
  CostModelEvaluator Inner(MachineModel::xeonE5_2680v4());
  CachingEvaluator Shared(Inner, /*Capacity=*/1u << 12, /*Shards=*/8);
  CostModelEvaluator Oracle(MachineModel::xeonE5_2680v4());
  runLockstepSweep(GetParam(), Shared, Oracle);
  // The sweep actually exercised the memo.
  EXPECT_GT(Shared.getOpCounters().total(), 0u);
}

TEST_P(IncrementalEquivalenceFixture, FreshBaselinesMatchBitwise) {
  // Through one shared memo: the incremental baseline is priced through
  // the per-op table, the from-scratch one never is. A second pass
  // finds every baseline op price there.
  CostModelEvaluator Inner(MachineModel::xeonE5_2680v4());
  CachingEvaluator Shared(Inner, /*Capacity=*/1u << 12, /*Shards=*/8);
  expectSameBaselines(GetParam(), Shared, Shared);
  HitMissCounters First = Shared.getOpCounters();
  EXPECT_GT(First.total(), 0u);
  expectSameBaselines(GetParam(), Shared, Shared);
  HitMissCounters Second = Shared.getOpCounters();
  EXPECT_EQ(Second.Misses.load(), First.Misses.load());
  EXPECT_GT(Second.Hits.load(), First.Hits.load());

  // Through two identically seeded noisy Runners: both baselines must
  // draw the noise once, on the same summed model price.
  RunnerOptions Noisy;
  Noisy.Noise = true;
  Runner IncRun(MachineModel::xeonE5_2680v4(), Noisy);
  Runner RefRun(MachineModel::xeonE5_2680v4(), Noisy);
  expectSameBaselines(GetParam(), IncRun, RefRun);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetGenerators, IncrementalEquivalenceFixture,
    ::testing::Values(
        Corpus{"DnnOperatorsFinal", dnnOperators, RewardMode::Final},
        Corpus{"DnnOperatorsImmediate", dnnOperators, RewardMode::Immediate},
        Corpus{"ModelImmediate", evaluationModel, RewardMode::Immediate},
        Corpus{"LqcdImmediate", lqcdKernels, RewardMode::Immediate},
        Corpus{"SequencesFinal", operatorSequences, RewardMode::Final},
        Corpus{"SequencesImmediate", operatorSequences,
               RewardMode::Immediate}),
    [](const ::testing::TestParamInfo<Corpus> &Info) {
      return std::string(Info.param.Name);
    });
