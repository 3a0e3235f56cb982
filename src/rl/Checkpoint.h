//===- Checkpoint.h - Trainer checkpoints with bitwise-exact resume -*-C++-*-=//
///
/// \file
/// Checkpointed long trainings: snapshotting and restoring the
/// PpoTrainer state an iteration-boundary resume reads — network
/// parameters, Adam moments and step count, the sample RNG stream,
/// episode/dataset cursors and the PPO configuration — through the
/// versioned, CRC-checked binary archives of support/Serialize.h. The
/// contract is bitwise-exact resume: for any k, batch width and thread
/// count, train(k); save; load; train(N-k) produces the same
/// parameters, moments, RNG states and iteration statistics as an
/// uninterrupted train(N) (CheckpointResumeTest).
///
/// Saves refuse a non-finite parameter or Adam moment before writing
/// anything. Restores are all-or-nothing: every chunk is CRC- and
/// shape-validated, and every parameter and Adam moment checked finite,
/// before a single byte of trainer state changes, so a corrupt,
/// mismatched or non-finite archive fails with a clean error and an
/// untouched trainer.
///
/// CheckpointManager adds production file handling on top: atomic
/// temp-file + rename writes (a crash never leaves a torn checkpoint
/// behind) and keep-last-K rotation for long trainings that checkpoint
/// every few iterations.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_CHECKPOINT_H
#define MLIRRL_RL_CHECKPOINT_H

#include "rl/Ppo.h"
#include "support/Serialize.h"

#include <string>
#include <vector>

namespace mlirrl {

class ShardedDataset;

/// Version of the checkpoint archive content, bumped whenever a chunk
/// layout changes. Saves write this version; loads accept 1 up to it
/// and reject version 0 and newer versions instead of misinterpreting
/// bytes. Version 2 dropped version 1's 'BUF ' chunk (the last
/// iteration's rollout steps, which resume never read), so a version-1
/// file loads unchanged and re-saves without it
/// (CheckpointFormatTest).
constexpr uint32_t CheckpointFormatVersion = 2;

/// Component serializers, shared between the trainer state code and the
/// round-trip tests. Writers append to the archive's open chunk;
/// readers flag malformed payloads through the ChunkReader's sticky
/// error.
namespace ckpt {

void writeTensor(serialize::ArchiveWriter &W, const nn::Tensor &T);
/// Reads a tensor written by writeTensor as a fresh constant tensor.
Expected<nn::Tensor> readTensor(serialize::ChunkReader &R);

void writeRng(serialize::ArchiveWriter &W, const Rng &R);
void readRng(serialize::ChunkReader &R, Rng &Out);

void writePpoConfig(serialize::ArchiveWriter &W, const PpoConfig &Config);
PpoConfig readPpoConfig(serialize::ChunkReader &R);

} // namespace ckpt

/// Serializes \p Trainer (and, when \p Stream is given, its dataset
/// cursor) and writes the archive to \p Path atomically. Fails, writing
/// nothing, when the trainer holds a non-finite parameter or moment.
Expected<bool> saveCheckpoint(const PpoTrainer &Trainer,
                              const std::string &Path,
                              const ShardedDataset *Stream = nullptr);

/// Restores \p Trainer (and \p Stream's cursor, when given) from the
/// checkpoint at \p Path. Validates everything before mutating
/// anything: on failure both trainer and stream are untouched.
Expected<bool> loadCheckpoint(PpoTrainer &Trainer, const std::string &Path,
                              ShardedDataset *Stream = nullptr);

/// Restores only the agent parameters of the checkpoint at \p Path: the
/// frozen-policy load of a server, which has no trainer. Validates the
/// parameter chunk (tensor count, shapes and finite values) before
/// writing anything, then drops the agent's packed inference cache. On
/// failure the agent is untouched.
Expected<bool> loadAgentParameters(ActorCritic &Agent, const std::string &Path);

/// Rotating checkpoint files for long trainings: save() writes
/// <dir>/<prefix>-<iteration>.ckpt atomically and prunes all but the
/// newest KeepLast checkpoints; loadLatest() resumes from the newest.
class CheckpointManager {
public:
  struct Options {
    std::string Directory;
    std::string Prefix = "ckpt";
    /// Checkpoints retained after each save (older ones are deleted).
    unsigned KeepLast = 3;
  };

  explicit CheckpointManager(Options Opts) : Opts(std::move(Opts)) {}

  /// Saves \p Trainer under its current iterationsDone() index and
  /// rotates. Returns the written path. A failed save (saveCheckpoint's
  /// errors) writes and rotates nothing.
  Expected<std::string> save(const PpoTrainer &Trainer,
                             const ShardedDataset *Stream = nullptr) const;

  /// Path of the newest checkpoint in the directory ("" when none).
  std::string latestPath() const;

  /// Loads the newest checkpoint into \p Trainer, falling back to the
  /// older retained ones if the newest fails to load (corrupt archive,
  /// shape mismatch). The value is false when the directory holds no
  /// checkpoint (nothing to resume); an error means every retained
  /// checkpoint failed.
  Expected<bool> loadLatest(PpoTrainer &Trainer,
                            ShardedDataset *Stream = nullptr) const;

  const Options &options() const { return Opts; }

private:
  /// (iteration index, path) of every checkpoint in the directory,
  /// sorted by index ascending.
  std::vector<std::pair<uint64_t, std::string>> listCheckpoints() const;

  Options Opts;
};

} // namespace mlirrl

#endif // MLIRRL_RL_CHECKPOINT_H
