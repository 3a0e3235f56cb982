//===- DeterminismMatrixTest.cpp - The bitwise invariance matrix ------------===//
//
// The repo's core invariant, checked systematically instead of
// point-by-point: for a fixed seed, training is bitwise-identical
// across every combination of vectorized-env batch width, collection
// thread count, update thread count -- and, since the ScheduleState
// layer landed, the incremental/from-scratch pricing axis. One
// table-driven sweep over {BatchWidth 1, 2, 32} x {CollectThreads 1, 4}
// x {UpdateThreads 1, 4} (incremental, the default) plus from-scratch
// probes at the matrix corners trains through MlirRl and compares full
// per-iteration histories against the all-serial MlirRl reference.
//
// The matrix also sweeps CollectThreads x memo shard counts {1, 4, 64}
// plus memo-off probes: every returned price is a deterministic
// function of its key, so the shared striped CachingEvaluator must be
// trajectory-invisible -- identical histories whether collectors share
// one global-lock table, 64 stripes, or no memo at all, even though
// cache sharing and eviction order differ run to run. MlirRl always
// builds its memo with CachingEvaluator's default 16 stripes, so these
// probes build the same composition by hand -- a Runner, then
// CachingEvaluator(Runner, DefaultCapacity, Shards) or the bare Runner,
// then the ActorCritic and the PpoTrainer -- and are still compared
// against the MlirRl reference history.
//
//===----------------------------------------------------------------------===//

#include "rl/MlirRl.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace mlirrl;
using namespace mlirrl::testutil;

namespace {

struct MatrixCase {
  unsigned BatchWidth;
  unsigned CollectThreads;
  unsigned UpdateThreads;
  /// False = the from-scratch pricing/featurization oracle; training
  /// trajectories must be bitwise-identical to the incremental default.
  bool Incremental = true;
  /// Stripes of the shared CachingEvaluator (1 = the global-lock
  /// single-mutex baseline; 16 = CachingEvaluator's default, the memo
  /// MlirRl builds). Ignored when Memoize is off.
  unsigned MemoShards = 16;
  /// False = no shared memo at all (the trainer prices through the bare
  /// Runner); the memo must be trajectory-invisible.
  bool Memoize = true;
};

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> Cases;
  for (unsigned Width : {1u, 2u, 32u})
    for (unsigned Collect : {1u, 4u})
      for (unsigned Update : {1u, 4u})
        Cases.push_back({Width, Collect, Update});
  // From-scratch probes at the matrix corners: the incremental layer
  // must be trajectory-invisible at every parallelism shape.
  Cases.push_back({1, 1, 1, /*Incremental=*/false});
  Cases.push_back({32, 4, 4, /*Incremental=*/false});
  // CollectThreads x shard-count probes: one shared striped memo, from
  // the single-mutex baseline up to 64 stripes, serial and parallel.
  for (unsigned Shards : {1u, 4u, 64u}) {
    Cases.push_back({2, 1, 1, true, Shards});
    Cases.push_back({2, 4, 1, true, Shards});
  }
  // Memo-off probes: cached and uncached pricing must coincide bitwise.
  Cases.push_back({1, 1, 1, true, 16, /*Memoize=*/false});
  Cases.push_back({32, 4, 4, true, 16, /*Memoize=*/false});
  return Cases;
}

std::vector<PpoIterationStats> trainWith(const MatrixCase &Case) {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Net = tinyNet();
  O.Env.Incremental = Case.Incremental;
  O.Ppo.SamplesPerIteration = 8;
  O.Ppo.BatchWidth = Case.BatchWidth;
  O.Ppo.CollectThreads = Case.CollectThreads;
  O.Ppo.UpdateThreads = Case.UpdateThreads;
  O.Iterations = 2;
  O.Seed = 2025;
  std::vector<Module> Data = {makeMatmulModule(64, 64, 64),
                              makeReluModule({512, 128})};
  if (Case.Memoize && Case.MemoShards == 16) {
    MlirRl Sys(O);
    return Sys.train(Data);
  }

  // The shard and memo-off probes: MlirRl's composition, with the
  // memo's stripe count set or the memo left out.
  Runner Run(O.Machine, O.Runner);
  std::unique_ptr<CachingEvaluator> Memo;
  if (Case.Memoize)
    Memo = std::make_unique<CachingEvaluator>(
        Run, CachingEvaluator::DefaultCapacity, Case.MemoShards);
  Evaluator &Eval = Memo ? static_cast<Evaluator &>(*Memo) : Run;
  ActorCritic Agent(O.Env, Featurizer(O.Env).featureSize(), O.Net, O.Seed);
  PpoTrainer Trainer(Agent, Eval, O.Ppo);
  std::vector<PpoIterationStats> History;
  for (unsigned I = 0; I < O.Iterations; ++I)
    History.push_back(Trainer.trainIteration(Data));
  return History;
}

/// The all-serial reference history (incremental, the default, trained
/// through MlirRl), computed once for the whole sweep.
const std::vector<PpoIterationStats> &referenceHistory() {
  static const std::vector<PpoIterationStats> Reference =
      trainWith({1, 1, 1});
  return Reference;
}

class DeterminismMatrixFixture
    : public ::testing::TestWithParam<MatrixCase> {};

} // namespace

TEST_P(DeterminismMatrixFixture, TrainingHistoryMatchesSerialReference) {
  expectSameHistories(trainWith(GetParam()), referenceHistory());
}

INSTANTIATE_TEST_SUITE_P(
    WidthByThreads, DeterminismMatrixFixture,
    ::testing::ValuesIn(matrixCases()),
    [](const ::testing::TestParamInfo<MatrixCase> &Info) {
      std::string Name =
          "Width" + std::to_string(Info.param.BatchWidth) + "Collect" +
          std::to_string(Info.param.CollectThreads) + "Update" +
          std::to_string(Info.param.UpdateThreads) +
          (Info.param.Incremental ? "" : "FromScratch");
      if (!Info.param.Memoize)
        Name += "NoMemo";
      else if (Info.param.MemoShards != 16)
        Name += "Shards" + std::to_string(Info.param.MemoShards);
      return Name;
    });
