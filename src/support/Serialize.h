//===- Serialize.h - Versioned binary archives -------------------*- C++-*-===//
///
/// \file
/// A small, endian-stable binary archive format used for checkpoints
/// (rl/Checkpoint.h). An archive is a fixed header (8-byte magic +
/// format version) followed by tagged chunks; every chunk carries its
/// payload size and a CRC32 of the payload, so truncation and bit flips
/// are detected before any consumer state is touched. All integers are
/// encoded little-endian byte by byte and doubles as their IEEE-754
/// bit patterns, so an archive written on one machine restores
/// bitwise-identically on any other.
///
/// Writing the same logical content always produces the same bytes
/// (no timestamps, no pointers, no map iteration order), which is what
/// makes save -> load -> save byte-identity a testable invariant.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_SUPPORT_SERIALIZE_H
#define MLIRRL_SUPPORT_SERIALIZE_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mlirrl {
namespace serialize {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range.
uint32_t crc32(const uint8_t *Data, size_t Size);

/// Packs a four-character chunk tag into its little-endian u32.
constexpr uint32_t fourCC(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

/// Builds an archive: beginChunk/endChunk bracket a tagged payload, the
/// write* calls append to the open chunk. finish() seals the archive
/// and returns its bytes; writeFile() additionally writes them through
/// a temp file + atomic rename so a crash never leaves a torn archive
/// at the destination path.
class ArchiveWriter {
public:
  explicit ArchiveWriter(uint32_t Version);

  void beginChunk(uint32_t Tag);
  void endChunk();

  void writeU32(uint32_t Value);
  void writeU64(uint64_t Value);
  void writeBool(bool Value);
  /// The exact IEEE-754 bit pattern (NaNs and signed zeros included).
  void writeDouble(double Value);
  void writeDoubles(const std::vector<double> &Values);
  /// Pointer/count form for buffers with non-default allocators (the
  /// aligned tensor buffers).
  void writeDoubles(const double *Values, size_t Count);

  /// Seals the archive and returns its bytes. No chunk may be open.
  std::vector<uint8_t> finish();

  /// Seals the archive and writes it to \p Path atomically
  /// (<Path>.tmp + rename).
  Expected<bool> writeFile(const std::string &Path);

private:
  std::vector<uint8_t> Bytes;
  bool InChunk = false;
  bool Finished = false;
  size_t ChunkHeaderAt = 0;  // offset of the open chunk's tag
  size_t PayloadStart = 0;   // offset of the open chunk's payload
};

/// A bounds-checked cursor over one chunk's payload. Reads past the end
/// (or malformed vectors) set a sticky error instead of
/// touching out-of-range memory; callers check ok() once after a batch
/// of reads.
class ChunkReader {
public:
  ChunkReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint32_t readU32();
  uint64_t readU64();
  bool readBool();
  double readDouble();
  std::vector<double> readDoubles();

  bool ok() const { return !Failed; }
  const std::string &error() const { return Message; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }

private:
  bool take(size_t Count, const uint8_t *&Out);
  void fail(const std::string &Why);

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
  std::string Message;
};

/// Parses and validates a whole archive up front: magic, format
/// version, chunk framing, every chunk's CRC and tag uniqueness.
/// Chunks are then addressed by tag; the reader owns the bytes, so
/// ChunkReaders stay valid for its lifetime.
///
/// A caller names the newest version it understands and accepts every
/// version from 1 up to it, so a format change that only drops chunks
/// needs no per-version branch: the dropped chunks are simply never
/// looked up. Version 0 and versions newer than the caller's are
/// rejected.
class ArchiveReader {
public:
  /// Validates \p Bytes as an archive of version 1..\p NewestVersion.
  static Expected<ArchiveReader> fromBytes(std::vector<uint8_t> Bytes,
                                           uint32_t NewestVersion);

  /// Reads and validates the file at \p Path.
  static Expected<ArchiveReader> fromFile(const std::string &Path,
                                          uint32_t NewestVersion);

  uint32_t version() const { return Version; }

  /// A payload cursor over the chunk tagged \p Tag; fails when the
  /// archive has no such chunk.
  Expected<ChunkReader> chunk(uint32_t Tag) const;

  /// Re-serializes the archive: the identical bytes it was parsed from.
  const std::vector<uint8_t> &bytes() const { return Bytes; }

private:
  ArchiveReader() = default;

  struct ChunkRef {
    uint32_t Tag = 0;
    size_t Offset = 0; // payload offset into Bytes
    size_t Size = 0;   // payload size
  };

  std::vector<uint8_t> Bytes;
  std::vector<ChunkRef> Chunks;
  uint32_t Version = 0;
};

/// Reads a whole file into bytes (helper shared with tests).
Expected<std::vector<uint8_t>> readFileBytes(const std::string &Path);

/// Writes bytes to \p Path through <Path>.tmp + atomic rename.
Expected<bool> writeFileBytesAtomic(const std::string &Path,
                                    const std::vector<uint8_t> &Bytes);

} // namespace serialize
} // namespace mlirrl

#endif // MLIRRL_SUPPORT_SERIALIZE_H
