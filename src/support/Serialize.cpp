//===- Serialize.cpp ------------------------------------------------------===//

#include "support/Serialize.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <iterator>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace mlirrl;
using namespace mlirrl::serialize;

// Archive framing constants. The magic doubles as an endianness and
// file-type check; bumping kFormatMagic would orphan every existing
// archive, so format evolution goes through the version field instead.
static const uint8_t kFormatMagic[8] = {'M', 'L', 'R', 'L',
                                        'A', 'R', 'C', '\n'};

uint32_t serialize::crc32(const uint8_t *Data, size_t Size) {
  static uint32_t Table[256];
  static bool TableReady = [] {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      Table[I] = C;
    }
    return true;
  }();
  (void)TableReady;
  uint32_t Crc = 0xFFFFFFFFu;
  for (size_t I = 0; I < Size; ++I)
    Crc = Table[(Crc ^ Data[I]) & 0xFFu] ^ (Crc >> 8);
  return Crc ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Little-endian primitives
//===----------------------------------------------------------------------===//

static void appendU32(std::vector<uint8_t> &Bytes, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

static void appendU64(std::vector<uint8_t> &Bytes, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

static void patchU32(std::vector<uint8_t> &Bytes, size_t At, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Bytes[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

static void patchU64(std::vector<uint8_t> &Bytes, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Bytes[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

static uint32_t loadU32(const uint8_t *P) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

static uint64_t loadU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

//===----------------------------------------------------------------------===//
// ArchiveWriter
//===----------------------------------------------------------------------===//

ArchiveWriter::ArchiveWriter(uint32_t Version)
    : Bytes(std::begin(kFormatMagic), std::end(kFormatMagic)) {
  appendU32(Bytes, Version);
}

void ArchiveWriter::beginChunk(uint32_t Tag) {
  assert(!InChunk && "beginChunk inside an open chunk");
  assert(!Finished && "beginChunk after finish");
  InChunk = true;
  ChunkHeaderAt = Bytes.size();
  appendU32(Bytes, Tag);
  appendU64(Bytes, 0); // payload size, patched by endChunk
  appendU32(Bytes, 0); // payload CRC, patched by endChunk
  PayloadStart = Bytes.size();
}

void ArchiveWriter::endChunk() {
  assert(InChunk && "endChunk without an open chunk");
  InChunk = false;
  size_t PayloadSize = Bytes.size() - PayloadStart;
  patchU64(Bytes, ChunkHeaderAt + 4, PayloadSize);
  patchU32(Bytes, ChunkHeaderAt + 12,
           crc32(Bytes.data() + PayloadStart, PayloadSize));
}

void ArchiveWriter::writeU32(uint32_t Value) {
  assert(InChunk && "write outside a chunk");
  appendU32(Bytes, Value);
}

void ArchiveWriter::writeU64(uint64_t Value) {
  assert(InChunk && "write outside a chunk");
  appendU64(Bytes, Value);
}

void ArchiveWriter::writeBool(bool Value) {
  assert(InChunk && "write outside a chunk");
  Bytes.push_back(Value ? 1 : 0);
}

void ArchiveWriter::writeDouble(double Value) {
  uint64_t Pattern;
  static_assert(sizeof(Pattern) == sizeof(Value));
  std::memcpy(&Pattern, &Value, sizeof(Pattern));
  writeU64(Pattern);
}

void ArchiveWriter::writeDoubles(const std::vector<double> &Values) {
  writeDoubles(Values.data(), Values.size());
}

void ArchiveWriter::writeDoubles(const double *Values, size_t Count) {
  writeU64(Count);
  for (size_t I = 0; I < Count; ++I)
    writeDouble(Values[I]);
}

std::vector<uint8_t> ArchiveWriter::finish() {
  assert(!InChunk && "finish with an open chunk");
  Finished = true;
  return std::move(Bytes);
}

Expected<bool> ArchiveWriter::writeFile(const std::string &Path) {
  return writeFileBytesAtomic(Path, finish());
}

//===----------------------------------------------------------------------===//
// ChunkReader
//===----------------------------------------------------------------------===//

void ChunkReader::fail(const std::string &Why) {
  if (!Failed) {
    Failed = true;
    Message = Why;
  }
}

bool ChunkReader::take(size_t Count, const uint8_t *&Out) {
  if (Failed)
    return false;
  if (Size - Pos < Count) {
    fail("chunk underrun: needed " + std::to_string(Count) + " bytes, " +
         std::to_string(Size - Pos) + " left");
    return false;
  }
  Out = Data + Pos;
  Pos += Count;
  return true;
}

uint32_t ChunkReader::readU32() {
  const uint8_t *P;
  return take(4, P) ? loadU32(P) : 0;
}

uint64_t ChunkReader::readU64() {
  const uint8_t *P;
  return take(8, P) ? loadU64(P) : 0;
}

bool ChunkReader::readBool() {
  const uint8_t *P;
  return take(1, P) && *P != 0;
}

double ChunkReader::readDouble() {
  uint64_t Pattern = readU64();
  double Value;
  std::memcpy(&Value, &Pattern, sizeof(Value));
  return Value;
}

std::vector<double> ChunkReader::readDoubles() {
  uint64_t Count = readU64();
  if (Failed || Count > remaining() / 8) {
    fail("chunk underrun reading a double vector of " +
         std::to_string(Count) + " entries");
    return {};
  }
  std::vector<double> Values(Count);
  for (double &V : Values)
    V = readDouble();
  return Values;
}

//===----------------------------------------------------------------------===//
// ArchiveReader
//===----------------------------------------------------------------------===//

/// The printable form of a chunk tag ("PRM " for fourCC('P','R','M',' ')).
static std::string tagName(uint32_t Tag) {
  return {static_cast<char>(Tag), static_cast<char>(Tag >> 8),
          static_cast<char>(Tag >> 16), static_cast<char>(Tag >> 24)};
}

Expected<ArchiveReader> ArchiveReader::fromBytes(std::vector<uint8_t> Bytes,
                                                 uint32_t NewestVersion) {
  const size_t HeaderSize = sizeof(kFormatMagic) + 4;
  if (Bytes.size() < HeaderSize)
    return makeError<ArchiveReader>("archive truncated: " +
                                    std::to_string(Bytes.size()) +
                                    " bytes is smaller than the header");
  if (std::memcmp(Bytes.data(), kFormatMagic, sizeof(kFormatMagic)) != 0)
    return makeError<ArchiveReader>("bad archive magic (not an mlirrl "
                                    "archive, or corrupted header)");

  ArchiveReader Reader;
  Reader.Version = loadU32(Bytes.data() + sizeof(kFormatMagic));
  if (Reader.Version == 0 || Reader.Version > NewestVersion)
    return makeError<ArchiveReader>(
        "archive version " + std::to_string(Reader.Version) +
        ", expected 1 to " + std::to_string(NewestVersion));

  size_t Pos = HeaderSize;
  while (Pos < Bytes.size()) {
    if (Bytes.size() - Pos < 16)
      return makeError<ArchiveReader>(
          "archive truncated inside a chunk header at offset " +
          std::to_string(Pos));
    ChunkRef Ref;
    Ref.Tag = loadU32(Bytes.data() + Pos);
    for (const ChunkRef &Earlier : Reader.Chunks)
      if (Earlier.Tag == Ref.Tag)
        return makeError<ArchiveReader>(
            "duplicate '" + tagName(Ref.Tag) + "' chunk at offset " +
            std::to_string(Pos) + " (archive corrupted)");
    uint64_t PayloadSize = loadU64(Bytes.data() + Pos + 4);
    uint32_t StoredCrc = loadU32(Bytes.data() + Pos + 12);
    Pos += 16;
    if (Bytes.size() - Pos < PayloadSize)
      return makeError<ArchiveReader>(
          "archive truncated: chunk at offset " + std::to_string(Pos - 16) +
          " claims " + std::to_string(PayloadSize) + " payload bytes, " +
          std::to_string(Bytes.size() - Pos) + " remain");
    uint32_t ActualCrc = crc32(Bytes.data() + Pos, PayloadSize);
    if (ActualCrc != StoredCrc)
      return makeError<ArchiveReader>(
          "CRC mismatch in chunk at offset " + std::to_string(Pos - 16) +
          " (archive corrupted)");
    Ref.Offset = Pos;
    Ref.Size = PayloadSize;
    Reader.Chunks.push_back(Ref);
    Pos += PayloadSize;
  }
  Reader.Bytes = std::move(Bytes);
  return Reader;
}

Expected<ArchiveReader> ArchiveReader::fromFile(const std::string &Path,
                                                uint32_t NewestVersion) {
  Expected<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  if (!Bytes)
    return makeError<ArchiveReader>(Bytes.getError());
  return fromBytes(std::move(*Bytes), NewestVersion);
}

Expected<ChunkReader> ArchiveReader::chunk(uint32_t Tag) const {
  for (const ChunkRef &Ref : Chunks)
    if (Ref.Tag == Tag)
      return ChunkReader(Bytes.data() + Ref.Offset, Ref.Size);
  return makeError<ChunkReader>("archive has no '" + tagName(Tag) + "' chunk");
}

//===----------------------------------------------------------------------===//
// File helpers
//===----------------------------------------------------------------------===//

Expected<std::vector<uint8_t>>
serialize::readFileBytes(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return makeError<std::vector<uint8_t>>("cannot open " + Path +
                                           " for reading");
  std::vector<uint8_t> Bytes;
  uint8_t Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Bytes.insert(Bytes.end(), Buffer, Buffer + Read);
  bool Failed = std::ferror(File) != 0;
  std::fclose(File);
  if (Failed)
    return makeError<std::vector<uint8_t>>("read error on " + Path);
  return Bytes;
}

Expected<bool>
serialize::writeFileBytesAtomic(const std::string &Path,
                                const std::vector<uint8_t> &Bytes) {
  std::string TmpPath = Path + ".tmp";
  std::FILE *File = std::fopen(TmpPath.c_str(), "wb");
  if (!File)
    return makeError<bool>("cannot open " + TmpPath + " for writing");
  bool Ok = Bytes.empty() ||
            std::fwrite(Bytes.data(), 1, Bytes.size(), File) == Bytes.size();
#if defined(__unix__) || defined(__APPLE__)
  // Flush user buffers and force the data to disk before the rename:
  // otherwise the filesystem may persist the rename first and a power
  // loss leaves a short file at the (supposedly atomic) final path.
  Ok = std::fflush(File) == 0 && Ok;
  Ok = (fsync(fileno(File)) == 0) && Ok;
#endif
  Ok = std::fclose(File) == 0 && Ok;
  if (!Ok) {
    std::remove(TmpPath.c_str());
    return makeError<bool>("write error on " + TmpPath);
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return makeError<bool>("cannot rename " + TmpPath + " to " + Path);
  }
  return true;
}
