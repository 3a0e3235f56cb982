//===- CheckpointTest.cpp - Checkpoint components and failure modes ---------===//
//
// The serialize round-trip contract under the trainer checkpoints:
// random Tensors, RNG states and PPO configurations pushed through
// save -> load -> save produce a byte-identical second archive, a
// corrupted chunk fails with a clean error while leaving the trainer
// bit-for-bit untouched, and a checkpoint from a different network
// architecture, a non-finite parameter or moment, a damaged frame byte,
// a cut at a chunk boundary or a missing file is rejected the same way.
// Non-finite trainer state is never saved. A checked-in version-1
// trainer checkpoint pins the format: every build must load it, re-save
// it as the current version and train on from it.
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
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

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
  Expected<bool> Saved = Trainer.saveState(W);
  EXPECT_TRUE(Saved.hasValue()) << Saved.getError();
  return W.finish();
}

uint64_t loadLittleEndian(const std::vector<uint8_t> &Bytes, size_t At,
                          unsigned Width) {
  uint64_t Value = 0;
  for (unsigned I = 0; I < Width; ++I)
    Value |= static_cast<uint64_t>(Bytes.at(At + I)) << (8 * I);
  return Value;
}

void appendLittleEndian(std::vector<uint8_t> &Bytes, uint64_t Value,
                        unsigned Width) {
  for (unsigned I = 0; I < Width; ++I)
    Bytes.push_back(static_cast<uint8_t>(Value >> (8 * I)));
}

/// Overwrites the 8 bytes at \p At with \p Value's bit pattern.
void storeDouble(std::vector<uint8_t> &Bytes, size_t At, double Value) {
  uint64_t Pattern;
  std::memcpy(&Pattern, &Value, sizeof(Pattern));
  for (unsigned I = 0; I < 8; ++I)
    Bytes.at(At + I) = static_cast<uint8_t>(Pattern >> (8 * I));
}

/// An archive re-framed from its bytes through the documented layout,
/// independently of ArchiveReader: an 8-byte magic and a u32 version,
/// then per chunk a u32 tag, a u64 payload size, a u32 CRC-32 of the
/// payload and the payload, all little-endian. frame() writes it back
/// with every CRC recomputed, so a test can drop a chunk, patch a
/// payload or set the version and keep the rest of the framing sound.
/// Malformed input throws, which fails the calling test.
struct RawArchive {
  struct Chunk {
    uint32_t Tag = 0;
    size_t FrameOffset = 0; // where the chunk's 16 frame bytes start
    std::vector<uint8_t> Payload;
  };
  std::vector<uint8_t> Magic;
  uint32_t Version = 0;
  std::vector<Chunk> Chunks;

  static RawArchive parse(const std::vector<uint8_t> &Bytes) {
    RawArchive Raw;
    Raw.Version = static_cast<uint32_t>(loadLittleEndian(Bytes, 8, 4));
    Raw.Magic.assign(Bytes.begin(), Bytes.begin() + 8);
    for (size_t Pos = 12; Pos < Bytes.size();) {
      Chunk C;
      C.Tag = static_cast<uint32_t>(loadLittleEndian(Bytes, Pos, 4));
      C.FrameOffset = Pos;
      uint64_t Size = loadLittleEndian(Bytes, Pos + 4, 8);
      if (Bytes.size() - Pos < 16 || Bytes.size() - Pos - 16 < Size)
        throw std::out_of_range("chunk payload runs past the archive");
      Pos += 16;
      C.Payload.assign(Bytes.begin() + Pos, Bytes.begin() + Pos + Size);
      Pos += Size;
      Raw.Chunks.push_back(std::move(C));
    }
    return Raw;
  }

  std::vector<uint8_t> frame() const {
    std::vector<uint8_t> Bytes = Magic;
    appendLittleEndian(Bytes, Version, 4);
    for (const Chunk &C : Chunks) {
      appendLittleEndian(Bytes, C.Tag, 4);
      appendLittleEndian(Bytes, C.Payload.size(), 8);
      appendLittleEndian(Bytes, crc32(C.Payload.data(), C.Payload.size()), 4);
      Bytes.insert(Bytes.end(), C.Payload.begin(), C.Payload.end());
    }
    return Bytes;
  }

  /// The payload of the chunk tagged \p Tag.
  std::vector<uint8_t> &payload(uint32_t Tag) {
    for (Chunk &C : Chunks)
      if (C.Tag == Tag)
        return C.Payload;
    throw std::out_of_range("archive has no chunk with that tag");
  }
};

/// Where element \p Elem of parameter \p Index sits in a 'PRM '
/// payload: a u64 tensor count, then per tensor u32 rows, u32 cols, a
/// u64 value count and the values.
size_t parameterElementAt(const std::vector<uint8_t> &Prm, size_t Index,
                          size_t Elem) {
  size_t Pos = 8;
  for (size_t I = 0; I < Index; ++I)
    Pos += 16 + 8 * loadLittleEndian(Prm, Pos + 8, 8);
  return Pos + 16 + 8 * Elem;
}

/// Where element \p Elem of second moment \p Index sits in an 'ADM '
/// payload: a u32 step count and a u64 moment count, then every first
/// moment and then every second moment as a u64 value count and the
/// values.
size_t secondMomentElementAt(const std::vector<uint8_t> &Adm, size_t Index,
                             size_t Elem) {
  uint64_t Moments = loadLittleEndian(Adm, 4, 8);
  size_t Pos = 12;
  for (uint64_t I = 0; I < Moments + Index; ++I)
    Pos += 8 + 8 * loadLittleEndian(Adm, Pos, 8);
  return Pos + 8 + 8 * Elem;
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
    EXPECT_TRUE(Victim.trainer().saveState(W).hasValue());
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
    EXPECT_TRUE(Victim.trainer().saveState(W).hasValue());
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
    EXPECT_TRUE(Wide.trainer().saveState(W).hasValue());
    return W.finish();
  }();

  Expected<bool> Loaded = loadCheckpoint(Wide.trainer(), Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.getError().find("architecture"), std::string::npos)
      << Loaded.getError();

  std::vector<uint8_t> StateAfter = [&] {
    ArchiveWriter W(CheckpointFormatVersion);
    EXPECT_TRUE(Wide.trainer().saveState(W).hasValue());
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
  // trainer restore must refuse it. saveState refuses to write one, so
  // the file patches the 'PRM ' payload of a clean save.
  const RawArchive Clean = RawArchive::parse(trainerState(Source.trainer()));
  const std::string ParamPath = "checkpoint_test_nan_param.ckpt";
  {
    RawArchive Bad = Clean;
    std::vector<uint8_t> &Prm = Bad.payload(fourCC('P', 'R', 'M', ' '));
    storeDouble(Prm, parameterElementAt(Prm, 2, 5),
                std::numeric_limits<double>::quiet_NaN());
    ASSERT_TRUE(writeFileBytesAtomic(ParamPath, Bad.frame()).hasValue());
  }

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

  // An infinite Adam moment over finite parameters, patched into the
  // 'ADM ' payload of the same clean save.
  const std::string MomentPath = "checkpoint_test_inf_moment.ckpt";
  {
    RawArchive Bad = Clean;
    std::vector<uint8_t> &Adm = Bad.payload(fourCC('A', 'D', 'M', ' '));
    storeDouble(Adm, secondMomentElementAt(Adm, 1, 3),
                std::numeric_limits<double>::infinity());
    ASSERT_TRUE(writeFileBytesAtomic(MomentPath, Bad.frame()).hasValue());
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

TEST(CheckpointTest, NonFiniteStateIsNeverSaved) {
  std::vector<Module> Data = tinyDataset();
  MlirRl Sys(tinyOptions());
  Sys.trainer().trainIteration(Data);
  std::vector<nn::Tensor> Params = Sys.agent().parameters();
  const double Finite = Params[2].data()[5];
  const std::string NaNText =
      "parameter 2 holds a non-finite value (nan) at element 5";

  // saveCheckpoint refuses the NaN before writing anything.
  const std::string Path = "checkpoint_test_never_saved.ckpt";
  std::remove(Path.c_str());
  Params[2].node()->Data[5] = std::numeric_limits<double>::quiet_NaN();
  Expected<bool> Saved = saveCheckpoint(Sys.trainer(), Path);
  ASSERT_FALSE(Saved.hasValue());
  EXPECT_NE(Saved.getError().find(NaNText), std::string::npos)
      << Saved.getError();
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));

  // A manager saving into a directory that holds an earlier good
  // checkpoint fails the same way, and rotates nothing: with KeepLast 1,
  // a written iteration-2 file would have pruned the iteration-1 one.
  const std::string Dir = "checkpoint_test_never_saved";
  std::filesystem::remove_all(Dir);
  CheckpointManager Manager({Dir, "ns", /*KeepLast=*/1});
  Params[2].node()->Data[5] = Finite;
  Expected<std::string> Good = Manager.save(Sys.trainer());
  ASSERT_TRUE(Good.hasValue()) << Good.getError();
  Sys.trainer().trainIteration(Data);
  Params[2].node()->Data[5] = std::numeric_limits<double>::quiet_NaN();
  Expected<std::string> Bad = Manager.save(Sys.trainer());
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.getError().find(NaNText), std::string::npos)
      << Bad.getError();
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path().string());
  EXPECT_EQ(Files, std::vector<std::string>{*Good});
  EXPECT_EQ(Manager.latestPath(), *Good);

  // The earlier checkpoint still loads.
  MlirRl Resumed(tinyOptions(/*Seed=*/322));
  Expected<bool> Loaded = loadCheckpoint(Resumed.trainer(), *Good);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.getError();
  EXPECT_EQ(Resumed.trainer().iterationsDone(), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(CheckpointTest, EveryFrameByteAndChunkBoundaryIsChecked) {
  // Saved without a stream, so every chunk of the archive is required:
  // a frame byte that renames a chunk, moves where it ends or breaks
  // its CRC must fail the load, as must a cut at any chunk boundary.
  std::vector<Module> Data = tinyDataset();
  MlirRl Source(fixtureOptions());
  Source.trainer().trainIteration(Data);
  const std::vector<uint8_t> Good = trainerState(Source.trainer());
  const RawArchive Raw = RawArchive::parse(Good);
  ASSERT_EQ(Raw.Version, CheckpointFormatVersion);
  ASSERT_EQ(Raw.Chunks.size(), 5u); // CFG, PRM, ADM, RNG, CTR

  std::vector<std::pair<std::string, std::vector<uint8_t>>> Bad;
  auto Flip = [&](size_t At) {
    std::vector<uint8_t> Bytes = Good;
    Bytes[At] ^= 0x01;
    Bad.emplace_back("byte " + std::to_string(At) + " flipped",
                     std::move(Bytes));
  };
  auto Cut = [&](size_t Keep) {
    Bad.emplace_back("cut to " + std::to_string(Keep) + " bytes",
                     std::vector<uint8_t>(Good.begin(), Good.begin() + Keep));
  };
  // The magic, then the version: each flip of version 2 reads 3 or a
  // number far past it.
  for (size_t At = 0; At < 12; ++At)
    Flip(At);
  for (const RawArchive::Chunk &C : Raw.Chunks) {
    for (size_t At = C.FrameOffset; At < C.FrameOffset + 16; ++At)
      Flip(At);
    Cut(C.FrameOffset);
    Cut(C.FrameOffset + 1);
  }
  EXPECT_EQ(Bad.size(), 102u);

  MlirRlOptions OtherSeed = fixtureOptions();
  OtherSeed.Seed = 80;
  MlirRl Victim(OtherSeed);
  Victim.trainer().trainIteration(Data);
  const std::vector<uint8_t> StateBefore = trainerState(Victim.trainer());
  const std::string Path = "checkpoint_test_frame.ckpt";
  for (const auto &[What, Bytes] : Bad) {
    ASSERT_TRUE(writeFileBytesAtomic(Path, Bytes).hasValue());
    EXPECT_FALSE(loadCheckpoint(Victim.trainer(), Path).hasValue()) << What;
  }
  expectSameBytes(trainerState(Victim.trainer()), StateBefore);

  // The undamaged archive loads: every failure above was the damage's.
  ASSERT_TRUE(writeFileBytesAtomic(Path, Good).hasValue());
  Expected<bool> Loaded = loadCheckpoint(Victim.trainer(), Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.getError();
  std::remove(Path.c_str());
}

TEST(CheckpointFormatTest, CheckedInCheckpointLoadsResavesAndResumes) {
  // tests/rl/data/trainer-format-v1.ckpt: saveCheckpoint after one
  // trainIteration of MlirRl(fixtureOptions()) on tinyDataset(), at
  // format version 1. It is pinned by size and CRC-32, so a later
  // format change cannot pass by regenerating it: each version must
  // load it, and re-save it as its own version.
  const std::string Fixture =
      std::string(MLIRRL_SOURCE_DIR) + "/tests/rl/data/trainer-format-v1.ckpt";
  Expected<std::vector<uint8_t>> FixtureBytes = readFileBytes(Fixture);
  ASSERT_TRUE(FixtureBytes.hasValue()) << FixtureBytes.getError();
  ASSERT_EQ(FixtureBytes->size(), 83921u);
  ASSERT_EQ(crc32(FixtureBytes->data(), FixtureBytes->size()), 0x75dd1c8cu);

  // Version 2 is version 1 without the 'BUF ' chunk (the last
  // iteration's rollout steps, which resume never read).
  RawArchive Expected2 = RawArchive::parse(*FixtureBytes);
  ASSERT_EQ(Expected2.Version, 1u);
  size_t V1Chunks = Expected2.Chunks.size();
  std::erase_if(Expected2.Chunks, [](const RawArchive::Chunk &C) {
    return C.Tag == fourCC('B', 'U', 'F', ' ');
  });
  ASSERT_EQ(Expected2.Chunks.size(), V1Chunks - 1);
  Expected2.Version = 2;
  ASSERT_EQ(CheckpointFormatVersion, 2u);

  MlirRl Sys(fixtureOptions());
  Expected<bool> Loaded = loadCheckpoint(Sys.trainer(), Fixture);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.getError();
  EXPECT_EQ(Sys.trainer().iterationsDone(), 1u);

  const std::string Resaved = "checkpoint_format_resave.ckpt";
  ASSERT_TRUE(saveCheckpoint(Sys.trainer(), Resaved).hasValue());
  Expected<std::vector<uint8_t>> ResavedBytes = readFileBytes(Resaved);
  ASSERT_TRUE(ResavedBytes.hasValue());
  expectSameBytes(*ResavedBytes, Expected2.frame());

  // The re-save loads into a second trainer, and both train on to the
  // same statistics and parameters.
  MlirRl Again(fixtureOptions());
  Expected<bool> Reloaded = loadCheckpoint(Again.trainer(), Resaved);
  std::remove(Resaved.c_str());
  ASSERT_TRUE(Reloaded.hasValue()) << Reloaded.getError();

  std::vector<Module> Data = tinyDataset();
  PpoIterationStats Next = Sys.trainer().trainIteration(Data);
  PpoIterationStats NextAgain = Again.trainer().trainIteration(Data);
  expectSameHistories({NextAgain}, {Next});
  expectSameParameters(Again.agent().parameters(), Sys.agent().parameters());
  EXPECT_GT(Next.StepsCollected, 0u);
  EXPECT_TRUE(std::isfinite(Next.PolicyLoss));
  EXPECT_TRUE(std::isfinite(Next.ValueLoss));
  EXPECT_TRUE(std::isfinite(Next.Entropy));
  EXPECT_EQ(Sys.trainer().iterationsDone(), 2u);

  // Version 0 and versions newer than this build's are refused.
  const std::string Foreign = "checkpoint_format_foreign.ckpt";
  for (uint32_t Version : {0u, 3u}) {
    RawArchive Raw = Expected2;
    Raw.Version = Version;
    ASSERT_TRUE(writeFileBytesAtomic(Foreign, Raw.frame()).hasValue());
    Expected<bool> Refused = loadCheckpoint(Again.trainer(), Foreign);
    ASSERT_FALSE(Refused.hasValue()) << "version " << Version;
    EXPECT_NE(Refused.getError().find("version"), std::string::npos)
        << Refused.getError();
  }
  std::remove(Foreign.c_str());
}
