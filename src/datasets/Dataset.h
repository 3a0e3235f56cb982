//===- Dataset.h - The assembled training dataset ----------------*- C++-*-===//
///
/// \file
/// Assembles the full training dataset of Sec. VI: 1135 single DNN
/// operators (Table II) + 2133 random operator sequences + 691 LQCD
/// kernels = 3959 samples, with a scale factor for laptop-sized training
/// runs.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_DATASETS_DATASET_H
#define MLIRRL_DATASETS_DATASET_H

#include "datasets/DnnOps.h"
#include "datasets/Lqcd.h"
#include "datasets/Sequences.h"

namespace mlirrl {

/// Dataset assembly configuration (defaults = the paper's counts).
struct DatasetConfig {
  DnnDatasetCounts Dnn;
  unsigned Sequences = 2133;
  unsigned Lqcd = 691;
  uint64_t Seed = 2024;

  unsigned total() const { return Dnn.total() + Sequences + Lqcd; }

  /// Scales every component count by \p Factor (at least one sample
  /// each).
  static DatasetConfig scaled(double Factor);
};

/// Builds the shuffled training dataset.
std::vector<Module> buildTrainingDataset(const DatasetConfig &Config = {});

/// Streams a procedurally generated training epoch shard-by-shard
/// instead of materializing all samples up front: only the current
/// shard (ShardSize modules) is resident, which is what lets trainings
/// run over datasets that do not fit in memory.
///
/// Every sample is generated from an RNG stream derived from
/// (Config.Seed, in-epoch sample index), and the epoch order is a
/// fixed seed-derived permutation, so any position can be materialized
/// independently of the positions before it. The dataset itself is
/// finite and fixed, exactly like buildTrainingDataset's: epochs wrap
/// and replay the same samples in the same order. That makes the
/// stream position a complete description of progress: seek(cursor())
/// after a restart reproduces the exact sample sequence an
/// uninterrupted run would have seen — the property checkpoint resume
/// (rl/Checkpoint.h, the 'DSET' chunk) relies on.
class ShardedDataset {
public:
  explicit ShardedDataset(DatasetConfig Config, unsigned ShardSize = 64);

  /// Samples per epoch.
  size_t size() const { return Order.size(); }

  /// The module at the stream position; advances by one. The returned
  /// reference stays valid until the stream next crosses a shard
  /// boundary (callers that batch across shards must copy).
  const Module &next();

  /// Global stream position: epochs wrap, cursor() % size() is the
  /// in-epoch index.
  uint64_t cursor() const { return Cursor; }

  /// Repositions the stream (e.g. from a checkpoint). O(ShardSize):
  /// only the target shard is (re)generated.
  void seek(uint64_t NewCursor);

  uint64_t seed() const { return Config.Seed; }

private:
  /// Generates the sample at in-epoch position \p Slot (after the
  /// epoch permutation).
  Module generate(size_t Slot) const;
  void materializeShard(size_t Shard);

  DatasetConfig Config;
  unsigned ShardWidth;
  /// The epoch permutation: Order[slot] is the generator index whose
  /// sample occupies that slot.
  std::vector<uint32_t> Order;
  uint64_t Cursor = 0;
  size_t CachedShard;
  std::vector<Module> Cache;
};

} // namespace mlirrl

#endif // MLIRRL_DATASETS_DATASET_H
