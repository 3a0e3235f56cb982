//===- CheckpointTest.cpp - Checkpoint components and failure modes ---------===//
//
// The serialize round-trip contract under the trainer checkpoints:
// random Tensors, RNG states and PPO configurations pushed through
// save -> load -> save produce a byte-identical second archive, a
// corrupted chunk fails with a clean error while leaving the trainer
// bit-for-bit untouched, and a checkpoint from a different network
// architecture, a non-finite parameter or moment, or a missing file is
// rejected the same way. A checked-in
// trainer checkpoint pins the format: every build must load it, re-save
// it to the same bytes and train on from it.
//
//===----------------------------------------------------------------------===//

#include "rl/Checkpoint.h"

#include "TestUtil.h"
#include "datasets/DnnOps.h"
#include "env/Featurizer.h"
#include "perf/Runner.h"
#include "rl/MlirRl.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

using namespace mlirrl;
using namespace mlirrl::serialize;
using namespace mlirrl::testutil;

namespace {

constexpr uint32_t kTag = fourCC('F', 'U', 'Z', 'Z');

/// save -> load -> save over one writer-filling callback: both archives
/// must be byte-identical (serialization is a pure function of the
/// logical content).
template <typename FillFn, typename ReloadFn>
void expectSecondArchiveIdentical(FillFn Fill, ReloadFn Reload) {
  ArchiveWriter First(CheckpointFormatVersion);
  First.beginChunk(kTag);
  Fill(First);
  First.endChunk();
  std::vector<uint8_t> Bytes = First.finish();

  Expected<ArchiveReader> Reader =
      ArchiveReader::fromBytes(Bytes, CheckpointFormatVersion);
  ASSERT_TRUE(Reader.hasValue()) << Reader.getError();
  Expected<ChunkReader> Chunk = Reader->chunk(kTag);
  ASSERT_TRUE(Chunk.hasValue());

  ArchiveWriter Second(CheckpointFormatVersion);
  Second.beginChunk(kTag);
  Reload(*Chunk, Second);
  Second.endChunk();
  ASSERT_TRUE(Chunk->ok()) << Chunk->error();
  expectSameBytes(Second.finish(), Bytes);
}

MlirRlOptions tinyOptions(uint64_t Seed = 321) {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Net = tinyNet();
  O.Ppo.SamplesPerIteration = 4;
  O.Iterations = 1;
  O.Seed = Seed;
  return O;
}

std::vector<Module> tinyDataset() {
  return {makeMatmulModule(64, 64, 64), makeReluModule({256, 64})};
}

/// The format fixture's configuration: a 4-wide, depth-1 net over a
/// 79-feature environment (3 loops, 4 tile sizes, 2 arrays of rank 2,
/// schedules of at most 2 transformations), which keeps the archive at
/// 84 KB.
MlirRlOptions fixtureOptions() {
  MlirRlOptions O = MlirRlOptions::laptop();
  O.Env.MaxLoops = 3;
  O.Env.NumTileSizes = 4;
  O.Env.TileCandidates = {0, 4, 8, 16};
  O.Env.MaxArrays = 2;
  O.Env.MaxRank = 2;
  O.Env.MaxScheduleLength = 2;
  O.Net = NetConfig{4, 4, 1};
  O.Ppo.SamplesPerIteration = 4;
  O.Iterations = 1;
  O.Seed = 79;
  return O;
}

/// The trainer state after one trainIteration, as a byte string.
std::vector<uint8_t> trainerState(const PpoTrainer &Trainer) {
  ArchiveWriter W(CheckpointFormatVersion);
  Trainer.saveState(W);
  return W.finish();
}

} // namespace

TEST(CheckpointTest, RandomTensorsRoundTripByteIdentically) {
  Rng R(41);
  for (int Trial = 0; Trial < 20; ++Trial) {
    unsigned Rows = 1 + static_cast<unsigned>(R.nextBounded(24));
    unsigned Cols = 1 + static_cast<unsigned>(R.nextBounded(24));
    std::vector<double> Values(static_cast<size_t>(Rows) * Cols);
    for (double &V : Values)
      V = R.nextGaussian() * std::pow(10.0, R.nextInt(-300, 300));
    nn::Tensor T = nn::Tensor::fromData(Rows, Cols, Values);

    expectSecondArchiveIdentical(
        [&](ArchiveWriter &W) { ckpt::writeTensor(W, T); },
        [&](ChunkReader &C, ArchiveWriter &W) {
          Expected<nn::Tensor> Loaded = ckpt::readTensor(C);
          ASSERT_TRUE(Loaded.hasValue()) << Loaded.getError();
          expectTensorsBitwiseEqual(*Loaded, T);
          ckpt::writeTensor(W, *Loaded);
        });
  }
}

TEST(CheckpointTest, RandomRngStatesRoundTripAndContinueBitwise) {
  Rng Source(77);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Rng Original(Source.next());
    // Leave the generator mid-stream, sometimes with a cached
    // Box-Muller spare (the half of the state a naive reseed loses).
    unsigned Draws = static_cast<unsigned>(Source.nextBounded(7));
    for (unsigned I = 0; I < Draws; ++I)
      Original.nextGaussian();

    Rng Restored(0);
    expectSecondArchiveIdentical(
        [&](ArchiveWriter &W) { ckpt::writeRng(W, Original); },
        [&](ChunkReader &C, ArchiveWriter &W) {
          ckpt::readRng(C, Restored);
          ckpt::writeRng(W, Restored);
        });

    // The restored stream continues exactly where the original's would.
    for (int I = 0; I < 16; ++I)
      EXPECT_SAME_BITS(Restored.nextGaussian(), Original.nextGaussian());
  }
}

TEST(CheckpointTest, RandomConfigsRoundTripByteIdentically) {
  Rng R(123);
  for (int Trial = 0; Trial < 20; ++Trial) {
    PpoConfig Config;
    Config.LearningRate = R.nextDouble(1e-6, 1e-1);
    Config.ClipRange = R.nextDouble();
    Config.Gamma = R.nextDouble();
    Config.Lambda = R.nextDouble();
    Config.ValueCoef = R.nextDouble();
    Config.EntropyCoef = R.nextDouble();
    Config.UpdateEpochs = static_cast<unsigned>(R.nextBounded(16));
    Config.MinibatchSize = 1 + static_cast<unsigned>(R.nextBounded(256));
    Config.SamplesPerIteration = 1 + static_cast<unsigned>(R.nextBounded(256));
    Config.MaxGradNorm = R.nextDouble(0.0, 10.0);
    Config.Seed = R.next();
    Config.BatchWidth = 1 + static_cast<unsigned>(R.nextBounded(64));
    Config.CollectThreads = static_cast<unsigned>(R.nextBounded(8));
    Config.UpdateThreads = static_cast<unsigned>(R.nextBounded(8));

    PpoConfig Loaded;
    expectSecondArchiveIdentical(
        [&](ArchiveWriter &W) { ckpt::writePpoConfig(W, Config); },
        [&](ChunkReader &C, ArchiveWriter &W) {
          Loaded = ckpt::readPpoConfig(C);
          ckpt::writePpoConfig(W, Loaded);
        });
    EXPECT_SAME_BITS(Loaded.LearningRate, Config.LearningRate);
    EXPECT_EQ(Loaded.Seed, Config.Seed);
    EXPECT_EQ(Loaded.BatchWidth, Config.BatchWidth);
  }
}

TEST(CheckpointTest, TrainerSaveLoadSaveIsByteIdentical) {
  MlirRl Sys(tinyOptions());
  std::vector<Module> Data = tinyDataset();
  Sys.trainer().trainIteration(Data);

  const std::string PathA = "checkpoint_test_a.ckpt";
  const std::string PathB = "checkpoint_test_b.ckpt";
  ASSERT_TRUE(saveCheckpoint(Sys.trainer(), PathA).hasValue());

  MlirRl Fresh(tinyOptions());
  Expected<bool> Loaded = loadCheckpoint(Fresh.trainer(), PathA);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.getError();
  ASSERT_TRUE(saveCheckpoint(Fresh.trainer(), PathB).hasValue());

  Expected<std::vector<uint8_t>> A = readFileBytes(PathA);
  Expected<std::vector<uint8_t>> B = readFileBytes(PathB);
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  expectSameBytes(*B, *A);
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(CheckpointTest, CorruptChunkFailsCleanlyAndMutatesNothing) {
  MlirRl Sys(tinyOptions());
  std::vector<Module> Data = tinyDataset();
  Sys.trainer().trainIteration(Data);
  const std::string Path = "checkpoint_test_corrupt.ckpt";
  ASSERT_TRUE(saveCheckpoint(Sys.trainer(), Path).hasValue());

  // Flip one byte in the middle of the archive (inside some chunk's
  // payload -- the parameter chunk dominates the file).
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.hasValue());
  (*Bytes)[Bytes->size() / 2] ^= 0x01;
  ASSERT_TRUE(writeFileBytesAtomic(Path, *Bytes).hasValue());

  MlirRl Victim(tinyOptions());
  Victim.trainer().trainIteration(Data);
  std::vector<uint8_t> StateBefore = [&] {
    ArchiveWriter W(CheckpointFormatVersion);
    Victim.trainer().saveState(W);
    return W.finish();
  }();

  Expected<bool> Loaded = loadCheckpoint(Victim.trainer(), Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.getError().find("CRC"), std::string::npos)
      << Loaded.getError();

  // The failed load changed nothing: the trainer re-serializes to the
  // exact bytes it produced before the attempt.
  std::vector<uint8_t> StateAfter = [&] {
    ArchiveWriter W(CheckpointFormatVersion);
    Victim.trainer().saveState(W);
    return W.finish();
  }();
  expectSameBytes(StateAfter, StateBefore);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, ArchitectureMismatchFailsCleanlyAndMutatesNothing) {
  MlirRl Small(tinyOptions());
  std::vector<Module> Data = tinyDataset();
  Small.trainer().trainIteration(Data);
  const std::string Path = "checkpoint_test_arch.ckpt";
  ASSERT_TRUE(saveCheckpoint(Small.trainer(), Path).hasValue());

  MlirRlOptions WideOptions = tinyOptions();
  WideOptions.Net = tinyNet(32);
  MlirRl Wide(WideOptions);
  std::vector<uint8_t> StateBefore = [&] {
    ArchiveWriter W(CheckpointFormatVersion);
    Wide.trainer().saveState(W);
    return W.finish();
  }();

  Expected<bool> Loaded = loadCheckpoint(Wide.trainer(), Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.getError().find("architecture"), std::string::npos)
      << Loaded.getError();

  std::vector<uint8_t> StateAfter = [&] {
    ArchiveWriter W(CheckpointFormatVersion);
    Wide.trainer().saveState(W);
    return W.finish();
  }();
  expectSameBytes(StateAfter, StateBefore);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, MissingFileFailsCleanlyAndMutatesNothing) {
  MlirRl Sys(tinyOptions());
  std::vector<Module> Data = tinyDataset();
  Sys.trainer().trainIteration(Data);
  std::vector<uint8_t> StateBefore = trainerState(Sys.trainer());
  uint64_t VersionBefore = Sys.agent().parameterVersion();

  // Never written.
  const std::string Path = "checkpoint_test_missing.ckpt";
  Expected<bool> Loaded = loadCheckpoint(Sys.trainer(), Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.getError().find(Path), std::string::npos)
      << Loaded.getError();
  Expected<bool> Params = loadAgentParameters(Sys.agent(), Path);
  ASSERT_FALSE(Params.hasValue());
  EXPECT_NE(Params.getError().find(Path), std::string::npos)
      << Params.getError();

  // Neither load touched the trainer or the agent's parameters.
  expectSameBytes(trainerState(Sys.trainer()), StateBefore);
  EXPECT_EQ(Sys.agent().parameterVersion(), VersionBefore);
}

TEST(CheckpointTest, NonFiniteValuesFailCleanlyAndMutateNothing) {
  std::vector<Module> Data = tinyDataset();
  MlirRl Source(tinyOptions());
  Source.trainer().trainIteration(Data);
  MlirRl Dest(tinyOptions(/*Seed=*/322));
  Dest.trainer().trainIteration(Data);
  // The trainer state holds every parameter's exact bits.
  std::vector<uint8_t> StateBefore = trainerState(Dest.trainer());
  uint64_t VersionBefore = Dest.agent().parameterVersion();

  // A NaN parameter: both the server's frozen-policy load and the full
  // trainer restore must refuse it.
  const std::string ParamPath = "checkpoint_test_nan_param.ckpt";
  std::vector<nn::Tensor> Params = Source.agent().parameters();
  const double Saved = Params[2].data()[5];
  Params[2].node()->Data[5] = std::numeric_limits<double>::quiet_NaN();
  {
    ArchiveWriter W(CheckpointFormatVersion);
    Source.trainer().saveState(W);
    ASSERT_TRUE(W.writeFile(ParamPath).hasValue());
  }
  Params[2].node()->Data[5] = Saved;

  Expected<bool> Policy = loadAgentParameters(Dest.agent(), ParamPath);
  ASSERT_FALSE(Policy.hasValue());
  EXPECT_NE(Policy.getError().find("parameter 2 holds a non-finite value"),
            std::string::npos)
      << Policy.getError();
  EXPECT_NE(Policy.getError().find("element 5"), std::string::npos)
      << Policy.getError();
  Expected<bool> Trainer = loadCheckpoint(Dest.trainer(), ParamPath);
  ASSERT_FALSE(Trainer.hasValue());
  EXPECT_NE(Trainer.getError().find("parameter 2 holds a non-finite value"),
            std::string::npos)
      << Trainer.getError();

  // An infinite Adam moment over finite parameters: the reader takes the
  // first chunk of a tag, so an Adam chunk written ahead of saveState's
  // own one stands in for it.
  const std::string MomentPath = "checkpoint_test_inf_moment.ckpt";
  {
    nn::Adam::State Adam = Source.trainer().optimizerState();
    Adam.SecondMoment[1][3] = std::numeric_limits<double>::infinity();
    ArchiveWriter W(CheckpointFormatVersion);
    W.beginChunk(fourCC('A', 'D', 'M', ' '));
    W.writeU32(Adam.StepCount);
    W.writeU64(Adam.FirstMoment.size());
    for (const std::vector<double> &M : Adam.FirstMoment)
      W.writeDoubles(M);
    for (const std::vector<double> &V : Adam.SecondMoment)
      W.writeDoubles(V);
    W.endChunk();
    Source.trainer().saveState(W);
    ASSERT_TRUE(W.writeFile(MomentPath).hasValue());
  }
  Expected<bool> Moments = loadCheckpoint(Dest.trainer(), MomentPath);
  ASSERT_FALSE(Moments.hasValue());
  EXPECT_NE(Moments.getError().find(
                "Adam second moment 1 holds a non-finite value"),
            std::string::npos)
      << Moments.getError();
  EXPECT_NE(Moments.getError().find("element 3"), std::string::npos)
      << Moments.getError();

  // No failed load touched the trainer or the agent's parameters.
  expectSameBytes(trainerState(Dest.trainer()), StateBefore);
  EXPECT_EQ(Dest.agent().parameterVersion(), VersionBefore);
  std::remove(ParamPath.c_str());
  std::remove(MomentPath.c_str());
}

TEST(CheckpointFormatTest, CheckedInCheckpointLoadsResavesAndResumes) {
  // tests/rl/data/trainer-format-v1.ckpt: saveCheckpoint after one
  // trainIteration of MlirRl(fixtureOptions()) on tinyDataset(), at
  // CheckpointFormatVersion 1. Loading it restores the whole trainer, so
  // a later in-memory layout (parameter arenas, sparse observations)
  // must still read it and write it back unchanged; a format change
  // bumps the version and migrates this file.
  const std::string Fixture =
      std::string(MLIRRL_SOURCE_DIR) + "/tests/rl/data/trainer-format-v1.ckpt";
  Expected<std::vector<uint8_t>> FixtureBytes = readFileBytes(Fixture);
  ASSERT_TRUE(FixtureBytes.hasValue()) << FixtureBytes.getError();

  MlirRl Sys(fixtureOptions());
  Expected<bool> Loaded = loadCheckpoint(Sys.trainer(), Fixture);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.getError();
  EXPECT_EQ(Sys.trainer().iterationsDone(), 1u);

  const std::string Resaved = "checkpoint_format_resave.ckpt";
  ASSERT_TRUE(saveCheckpoint(Sys.trainer(), Resaved).hasValue());
  Expected<std::vector<uint8_t>> ResavedBytes = readFileBytes(Resaved);
  std::remove(Resaved.c_str());
  ASSERT_TRUE(ResavedBytes.hasValue());
  expectSameBytes(*ResavedBytes, *FixtureBytes);

  std::vector<Module> Data = tinyDataset();
  PpoIterationStats Next = Sys.trainer().trainIteration(Data);
  EXPECT_GT(Next.StepsCollected, 0u);
  EXPECT_TRUE(std::isfinite(Next.PolicyLoss));
  EXPECT_TRUE(std::isfinite(Next.ValueLoss));
  EXPECT_TRUE(std::isfinite(Next.Entropy));
  EXPECT_EQ(Sys.trainer().iterationsDone(), 2u);
}
