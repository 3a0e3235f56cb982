//===- SerializeTest.cpp - Archive framing, round-trips, corruption ---------===//
//
// The binary archive layer under checkpoints: scalar encodings
// round-trip bitwise (NaN payloads and signed zeros included), writing
// the same logical content twice is byte-identical, and every flavor of
// damage -- flipped payload bytes, truncation, a bad magic, a version
// newer than the reader's or version 0, a repeated chunk tag, oversized
// vector counts -- fails with a clean error instead of crashing or
// returning garbage.
//
//===----------------------------------------------------------------------===//

#include "support/Serialize.h"

#include "TestUtil.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

using namespace mlirrl;
using namespace mlirrl::serialize;

namespace {

constexpr uint32_t kTestVersion = 7;
constexpr uint32_t kTag = fourCC('T', 'S', 'T', ' ');
constexpr uint32_t kOther = fourCC('O', 'T', 'H', 'R');

/// A writer pre-loaded with one chunk of every scalar flavor.
std::vector<uint8_t> scalarArchive() {
  ArchiveWriter W(kTestVersion);
  W.beginChunk(kTag);
  W.writeU32(0xDEADBEEFu);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeBool(true);
  W.writeDouble(-0.0);
  W.writeDouble(std::numeric_limits<double>::quiet_NaN());
  W.writeDouble(std::numeric_limits<double>::infinity());
  W.writeDouble(0x1.fffffffffffffp+1023);
  W.writeDoubles({1.5, -2.25, 0.0});
  W.endChunk();
  return W.finish();
}

} // namespace

TEST(SerializeTest, ScalarsRoundTripBitwise) {
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromBytes(scalarArchive(), kTestVersion);
  ASSERT_TRUE(Reader.hasValue()) << Reader.getError();
  EXPECT_EQ(Reader->version(), kTestVersion);

  Expected<ChunkReader> Chunk = Reader->chunk(kTag);
  ASSERT_TRUE(Chunk.hasValue());
  EXPECT_EQ(Chunk->readU32(), 0xDEADBEEFu);
  EXPECT_EQ(Chunk->readU64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(Chunk->readBool());
  EXPECT_SAME_BITS(Chunk->readDouble(), -0.0);
  double Nan = Chunk->readDouble();
  EXPECT_SAME_BITS(Nan, std::numeric_limits<double>::quiet_NaN());
  EXPECT_SAME_BITS(Chunk->readDouble(),
                   std::numeric_limits<double>::infinity());
  EXPECT_SAME_BITS(Chunk->readDouble(), 0x1.fffffffffffffp+1023);
  std::vector<double> Doubles = Chunk->readDoubles();
  ASSERT_EQ(Doubles.size(), 3u);
  EXPECT_SAME_BITS(Doubles[1], -2.25);
  EXPECT_TRUE(Chunk->ok());
  EXPECT_EQ(Chunk->remaining(), 0u);
}

TEST(SerializeTest, ChunksAreAddressedByTag) {
  ArchiveWriter W(kTestVersion);
  W.beginChunk(kTag);
  W.writeU32(1);
  W.endChunk();
  W.beginChunk(kOther);
  W.writeU32(2);
  W.endChunk();
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromBytes(W.finish(), kTestVersion);
  ASSERT_TRUE(Reader.hasValue()) << Reader.getError();
  EXPECT_EQ(Reader->chunk(kOther)->readU32(), 2u);
  EXPECT_EQ(Reader->chunk(kTag)->readU32(), 1u);
  Expected<ChunkReader> Missing = Reader->chunk(fourCC('N', 'O', 'N', 'E'));
  EXPECT_FALSE(Missing.hasValue());
  EXPECT_NE(Missing.getError().find("NONE"), std::string::npos);
}

TEST(SerializeTest, RepeatedChunkTagIsRejected) {
  // A second chunk of one tag would otherwise be shadowed by the first.
  ArchiveWriter W(kTestVersion);
  for (uint32_t Value : {1u, 2u}) {
    W.beginChunk(kTag);
    W.writeU32(Value);
    W.endChunk();
  }
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromBytes(W.finish(), kTestVersion);
  ASSERT_FALSE(Reader.hasValue());
  EXPECT_NE(Reader.getError().find("TST"), std::string::npos)
      << Reader.getError();
}

TEST(SerializeTest, RandomArchivesSurviveFileRoundTripByteIdentically) {
  Rng R(99);
  for (int Trial = 0; Trial < 10; ++Trial) {
    ArchiveWriter W(kTestVersion);
    unsigned Chunks = 1 + static_cast<unsigned>(R.nextBounded(4));
    for (unsigned C = 0; C < Chunks; ++C) {
      W.beginChunk(kTag + C);
      std::vector<double> Values(R.nextBounded(64));
      for (double &V : Values)
        V = R.nextGaussian();
      W.writeDoubles(Values);
      W.writeU64(R.next());
      W.endChunk();
    }
    std::vector<uint8_t> Original = W.finish();

    std::string Path = "serialize_test_roundtrip.bin";
    ASSERT_TRUE(writeFileBytesAtomic(Path, Original).hasValue());
    Expected<ArchiveReader> Reader =
        ArchiveReader::fromFile(Path, kTestVersion);
    ASSERT_TRUE(Reader.hasValue()) << Reader.getError();
    // The reader re-serializes to the exact bytes it was parsed from.
    mlirrl::testutil::expectSameBytes(Reader->bytes(), Original);
    std::remove(Path.c_str());
  }
}

TEST(SerializeTest, FlippedPayloadByteFailsWithCrcError) {
  std::vector<uint8_t> Bytes = scalarArchive();
  Bytes[Bytes.size() - 3] ^= 0x40; // somewhere inside the payload
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromBytes(std::move(Bytes), kTestVersion);
  ASSERT_FALSE(Reader.hasValue());
  EXPECT_NE(Reader.getError().find("CRC"), std::string::npos)
      << Reader.getError();
}

TEST(SerializeTest, TruncationFailsCleanly) {
  std::vector<uint8_t> Bytes = scalarArchive();
  for (size_t Keep : {size_t(0), size_t(4), size_t(13), Bytes.size() - 1}) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Keep);
    Expected<ArchiveReader> Reader =
        ArchiveReader::fromBytes(std::move(Cut), kTestVersion);
    EXPECT_FALSE(Reader.hasValue()) << "kept " << Keep << " bytes";
  }
}

TEST(SerializeTest, BadMagicAndForeignVersionAreRejected) {
  std::vector<uint8_t> Bytes = scalarArchive();
  {
    std::vector<uint8_t> Mangled = Bytes;
    Mangled[0] = 'X';
    Expected<ArchiveReader> Reader =
        ArchiveReader::fromBytes(std::move(Mangled), kTestVersion);
    ASSERT_FALSE(Reader.hasValue());
    EXPECT_NE(Reader.getError().find("magic"), std::string::npos);
  }
  {
    // A reader takes every version up to the newest it names.
    Expected<ArchiveReader> Reader =
        ArchiveReader::fromBytes(Bytes, kTestVersion + 1);
    ASSERT_TRUE(Reader.hasValue()) << Reader.getError();
    EXPECT_EQ(Reader->version(), kTestVersion);
  }
  {
    Expected<ArchiveReader> Reader =
        ArchiveReader::fromBytes(Bytes, kTestVersion - 1);
    ASSERT_FALSE(Reader.hasValue());
    EXPECT_NE(Reader.getError().find("version"), std::string::npos);
  }
  {
    ArchiveWriter W(0);
    W.beginChunk(kTag);
    W.writeU32(1);
    W.endChunk();
    Expected<ArchiveReader> Reader =
        ArchiveReader::fromBytes(W.finish(), kTestVersion);
    ASSERT_FALSE(Reader.hasValue());
    EXPECT_NE(Reader.getError().find("version"), std::string::npos);
  }
}

TEST(SerializeTest, ChunkUnderrunSetsStickyErrorInsteadOfCrashing) {
  ArchiveWriter W(kTestVersion);
  W.beginChunk(kTag);
  W.writeU32(1);
  // A vector count far larger than the payload: the reader must refuse
  // to allocate or read past the end.
  W.writeU64(std::numeric_limits<uint64_t>::max());
  W.endChunk();
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromBytes(W.finish(), kTestVersion);
  ASSERT_TRUE(Reader.hasValue()) << Reader.getError();
  Expected<ChunkReader> Chunk = Reader->chunk(kTag);
  ASSERT_TRUE(Chunk.hasValue());
  EXPECT_EQ(Chunk->readU32(), 1u);
  std::vector<double> Values = Chunk->readDoubles();
  EXPECT_TRUE(Values.empty());
  EXPECT_FALSE(Chunk->ok());
  EXPECT_FALSE(Chunk->error().empty());
  // Errors are sticky: further reads stay failed and return zeros.
  EXPECT_EQ(Chunk->readU64(), 0u);
  EXPECT_FALSE(Chunk->ok());
}

TEST(SerializeTest, MissingFileIsACleanError) {
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromFile("does_not_exist.ckpt", kTestVersion);
  ASSERT_FALSE(Reader.hasValue());
  EXPECT_FALSE(Reader.getError().empty());
}
