//===- PpoTest.cpp - End-to-end PPO training tests ---------------------------===//

#include "rl/MlirRl.h"

#include "datasets/DnnOps.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

using namespace mlirrl;

namespace {

MlirRlOptions tinyOptions() {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Net.LstmHidden = 24;
  O.Net.BackboneHidden = 24;
  O.Ppo.SamplesPerIteration = 6;
  O.Iterations = 12;
  O.Seed = 99;
  return O;
}

} // namespace

TEST(PpoTest, TrainingImprovesMatmulSpeedup) {
  MlirRlOptions O = tinyOptions();
  MlirRl Sys(O);
  std::vector<Module> Data = {makeMatmulModule(256, 256, 256)};

  double Before = Sys.optimize(Data[0]);
  auto History = Sys.train(Data);
  double After = Sys.optimize(Data[0]);

  // The greedy policy after training must beat the baseline clearly and
  // not be worse than the untrained policy.
  EXPECT_GT(After, 2.0);
  EXPECT_GE(After, Before * 0.8);
  EXPECT_EQ(History.size(), O.Iterations);
}

TEST(PpoTest, TrainingIsSeedDeterministic) {
  std::vector<Module> Data = {makeMatmulModule(128, 128, 128)};
  MlirRlOptions O = tinyOptions();
  O.Iterations = 3;

  MlirRl A(O), B(O);
  auto Ha = A.train(Data);
  auto Hb = B.train(Data);
  for (unsigned I = 0; I < Ha.size(); ++I) {
    EXPECT_DOUBLE_EQ(Ha[I].MeanEpisodeReward, Hb[I].MeanEpisodeReward);
    EXPECT_DOUBLE_EQ(Ha[I].MeanSpeedup, Hb[I].MeanSpeedup);
  }
  EXPECT_DOUBLE_EQ(A.optimize(Data[0]), B.optimize(Data[0]));
}

TEST(PpoTest, MinibatchSizeZeroUpdatesLikeOne) {
  // MinibatchSize 0 is treated as 1: stepping the update loop by 0
  // would never advance it, and the iteration would never end.
  std::vector<Module> Data = {makeMatmulModule(64, 64, 64)};
  MlirRlOptions O = tinyOptions();
  O.Iterations = 2;
  O.Ppo.SamplesPerIteration = 2;
  O.Ppo.UpdateEpochs = 1;
  O.Ppo.MinibatchSize = 1;
  MlirRl One(O);
  O.Ppo.MinibatchSize = 0;
  MlirRl Zero(O);

  testutil::expectSameHistories(One.train(Data), Zero.train(Data));
  testutil::expectSameParameters(One.agent().parameters(),
                                 Zero.agent().parameters());
}

TEST(PpoTest, StatsArePopulated) {
  MlirRlOptions O = tinyOptions();
  O.Iterations = 2;
  MlirRl Sys(O);
  std::vector<Module> Data = {makeReluModule({2048, 512})};
  auto History = Sys.train(Data);
  for (const PpoIterationStats &S : History) {
    EXPECT_GT(S.StepsCollected, 0u);
    EXPECT_GT(S.Entropy, 0.0);
    EXPECT_GT(S.MeanSpeedup, 0.0);
    EXPECT_GT(S.MeasurementSeconds, 0.0);
  }
}

TEST(PpoTest, ImmediateRewardTracksMoreMeasurementTime) {
  std::vector<Module> Data = {makeMatmulModule(128, 128, 128)};
  MlirRlOptions FinalOpts = tinyOptions();
  FinalOpts.Iterations = 2;
  MlirRlOptions ImmedOpts = FinalOpts;
  ImmedOpts.Env.Reward = RewardMode::Immediate;

  MlirRl FinalSys(FinalOpts), ImmedSys(ImmedOpts);
  auto Hf = FinalSys.train(Data);
  auto Hi = ImmedSys.train(Data);
  double FinalMeas = 0.0, ImmedMeas = 0.0;
  for (const auto &S : Hf)
    FinalMeas += S.MeasurementSeconds;
  for (const auto &S : Hi)
    ImmedMeas += S.MeasurementSeconds;
  EXPECT_GT(ImmedMeas, FinalMeas);
}

TEST(PpoTest, FlatActionSpaceTrains) {
  MlirRlOptions O = tinyOptions();
  O.Env.ActionSpace = ActionSpaceMode::Flat;
  O.Iterations = 4;
  MlirRl Sys(O);
  std::vector<Module> Data = {makeMatmulModule(256, 256, 256)};
  auto History = Sys.train(Data);
  EXPECT_EQ(History.size(), 4u);
  EXPECT_GT(Sys.optimize(Data[0]), 0.5);
}

TEST(PpoTest, EnumeratedInterchangeTrains) {
  MlirRlOptions O = tinyOptions();
  O.Env.Interchange = InterchangeMode::Enumerated;
  O.Iterations = 4;
  MlirRl Sys(O);
  std::vector<Module> Data = {makeMatmulModule(256, 256, 256)};
  Sys.train(Data);
  EXPECT_GT(Sys.optimize(Data[0]), 0.5);
}

TEST(PpoTest, NonFiniteGradientSkipsTheOptimizerStep) {
  // A NaN value-head bias makes every value, advantage, loss and
  // gradient norm NaN. Stepping on it would write NaN into the
  // parameters; the trainer drops each minibatch instead and counts it.
  MlirRlOptions O = tinyOptions();
  MlirRl Sys(O);
  std::vector<Module> Data = {makeMatmulModule(64, 64, 64)};
  std::vector<nn::Tensor> Params = Sys.agent().parameters();
  Params.back().node()->Data[0] = std::numeric_limits<double>::quiet_NaN();
  Sys.agent().invalidateInferenceCache();
  std::vector<nn::DBuffer> Before;
  for (const nn::Tensor &P : Params)
    Before.push_back(P.data());
  HitMissCounters &Skips = robustnessCounter(RobustnessEvent::NonFiniteUpdate);
  uint64_t SkipsBefore = Skips.Misses.load();

  PpoIterationStats Stats = Sys.trainer().trainIteration(Data);

  for (size_t I = 0; I < Params.size(); ++I)
    EXPECT_EQ(std::memcmp(Params[I].data().data(), Before[I].data(),
                          Before[I].size() * sizeof(double)),
              0)
        << "parameter " << I << " changed";
  const unsigned Minibatches =
      O.Ppo.UpdateEpochs * ((Stats.StepsCollected + O.Ppo.MinibatchSize - 1) /
                            O.Ppo.MinibatchSize);
  EXPECT_GT(Minibatches, 0u);
  EXPECT_EQ(Skips.Misses.load() - SkipsBefore, Minibatches);
}

TEST(PpoTest, PricesThroughTheMemoUnlessRunnerNoiseIsOn) {
  // The memo is on by default; with measurement noise, caching would
  // freeze one draw per entry, so MlirRl prices through the bare Runner.
  MlirRlOptions O = tinyOptions();
  MlirRl Memoized(O);
  ASSERT_NE(Memoized.memo(), nullptr);
  EXPECT_EQ(&Memoized.evaluator(), Memoized.memo());

  O.Runner.Noise = true;
  MlirRl Noisy(O);
  EXPECT_EQ(Noisy.memo(), nullptr);
  EXPECT_EQ(&Noisy.evaluator(), &Noisy.runner());
}
