//===- Checkpoint.cpp -----------------------------------------------------===//

#include "rl/Checkpoint.h"

#include "datasets/Dataset.h"
#include "support/Args.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <utility>

using namespace mlirrl;
using namespace mlirrl::serialize;

// Chunk tags of the checkpoint layout. Version 1 also carried a 'BUF '
// chunk (the last iteration's rollout steps); nothing ever read it, and
// the loaders never look it up.
static constexpr uint32_t kConfigTag = fourCC('C', 'F', 'G', ' ');
static constexpr uint32_t kParamsTag = fourCC('P', 'R', 'M', ' ');
static constexpr uint32_t kAdamTag = fourCC('A', 'D', 'M', ' ');
static constexpr uint32_t kRngTag = fourCC('R', 'N', 'G', ' ');
static constexpr uint32_t kCountersTag = fourCC('C', 'T', 'R', ' ');
static constexpr uint32_t kDatasetTag = fourCC('D', 'S', 'E', 'T');

//===----------------------------------------------------------------------===//
// Component serializers
//===----------------------------------------------------------------------===//

void ckpt::writeTensor(ArchiveWriter &W, const nn::Tensor &T) {
  W.writeU32(T.rows());
  W.writeU32(T.cols());
  W.writeDoubles(T.data().data(), T.data().size());
}

Expected<nn::Tensor> ckpt::readTensor(ChunkReader &R) {
  unsigned Rows = R.readU32();
  unsigned Cols = R.readU32();
  std::vector<double> Data = R.readDoubles();
  if (!R.ok())
    return makeError<nn::Tensor>(R.error());
  if (Data.size() != static_cast<size_t>(Rows) * Cols)
    return makeError<nn::Tensor>("tensor payload holds " +
                                 std::to_string(Data.size()) +
                                 " values for a " + std::to_string(Rows) +
                                 "x" + std::to_string(Cols) + " shape");
  return nn::Tensor::fromData(Rows, Cols, std::move(Data));
}

void ckpt::writeRng(ArchiveWriter &W, const Rng &R) {
  Rng::Snapshot S = R.snapshot();
  for (uint64_t Word : S.Words)
    W.writeU64(Word);
  W.writeBool(S.HasSpareGaussian);
  W.writeDouble(S.SpareGaussian);
}

void ckpt::readRng(ChunkReader &R, Rng &Out) {
  Rng::Snapshot S;
  for (uint64_t &Word : S.Words)
    Word = R.readU64();
  S.HasSpareGaussian = R.readBool();
  S.SpareGaussian = R.readDouble();
  if (R.ok())
    Out.restore(S);
}

void ckpt::writePpoConfig(ArchiveWriter &W, const PpoConfig &Config) {
  W.writeDouble(Config.LearningRate);
  W.writeDouble(Config.ClipRange);
  W.writeDouble(Config.Gamma);
  W.writeDouble(Config.Lambda);
  W.writeDouble(Config.ValueCoef);
  W.writeDouble(Config.EntropyCoef);
  W.writeU32(Config.UpdateEpochs);
  W.writeU32(Config.MinibatchSize);
  W.writeU32(Config.SamplesPerIteration);
  W.writeDouble(Config.MaxGradNorm);
  W.writeU64(Config.Seed);
  W.writeU32(Config.BatchWidth);
  W.writeU32(Config.CollectThreads);
  W.writeU32(Config.UpdateThreads);
}

PpoConfig ckpt::readPpoConfig(ChunkReader &R) {
  PpoConfig Config;
  Config.LearningRate = R.readDouble();
  Config.ClipRange = R.readDouble();
  Config.Gamma = R.readDouble();
  Config.Lambda = R.readDouble();
  Config.ValueCoef = R.readDouble();
  Config.EntropyCoef = R.readDouble();
  Config.UpdateEpochs = R.readU32();
  Config.MinibatchSize = R.readU32();
  Config.SamplesPerIteration = R.readU32();
  Config.MaxGradNorm = R.readDouble();
  Config.Seed = R.readU64();
  Config.BatchWidth = R.readU32();
  Config.CollectThreads = R.readU32();
  Config.UpdateThreads = R.readU32();
  return Config;
}

//===----------------------------------------------------------------------===//
// Agent parameters
//===----------------------------------------------------------------------===//

/// "" when every entry of \p Values is finite, else an error naming
/// \p What and its first non-finite element.
template <typename Vector>
static std::string nonFiniteError(const std::string &What,
                                  const Vector &Values) {
  for (size_t I = 0; I < Values.size(); ++I)
    if (!std::isfinite(Values[I]))
      return What + " holds a non-finite value (" +
             std::to_string(Values[I]) + ") at element " + std::to_string(I);
  return "";
}

/// nonFiniteError over every Adam moment, parameter by parameter (a
/// parameter's first moment before its second).
static std::string
nonFiniteMomentError(const std::vector<std::vector<double>> &First,
                     const std::vector<std::vector<double>> &Second) {
  for (size_t I = 0; I < First.size(); ++I) {
    std::string Bad =
        nonFiniteError("Adam first moment " + std::to_string(I), First[I]);
    if (Bad.empty())
      Bad = nonFiniteError("Adam second moment " + std::to_string(I),
                           Second[I]);
    if (!Bad.empty())
      return Bad;
  }
  return "";
}

/// Reads the parameter chunk into staged copies, checking the tensor
/// count, every shape and every value's finiteness against \p Params;
/// nothing is written.
static Expected<std::vector<std::vector<double>>>
stageParameters(const ArchiveReader &Reader,
                const std::vector<nn::Tensor> &Params) {
  using Staged = std::vector<std::vector<double>>;
  Expected<ChunkReader> Prm = Reader.chunk(kParamsTag);
  if (!Prm)
    return makeError<Staged>(Prm.getError());
  uint64_t ParamCount = Prm->readU64();
  if (!Prm->ok() || ParamCount != Params.size())
    return makeError<Staged>(
        "parameter chunk holds " + std::to_string(ParamCount) +
        " tensors, agent has " + std::to_string(Params.size()) +
        " (checkpoint from a different architecture?)");
  Staged NewData(Params.size());
  for (size_t I = 0; I < Params.size(); ++I) {
    unsigned Rows = Prm->readU32();
    unsigned Cols = Prm->readU32();
    NewData[I] = Prm->readDoubles();
    if (!Prm->ok())
      return makeError<Staged>("parameter chunk: " + Prm->error());
    if (Rows != Params[I].rows() || Cols != Params[I].cols() ||
        NewData[I].size() != Params[I].size())
      return makeError<Staged>(
          "parameter " + std::to_string(I) + " is " + std::to_string(Rows) +
          "x" + std::to_string(Cols) + " in the checkpoint but " +
          std::to_string(Params[I].rows()) + "x" +
          std::to_string(Params[I].cols()) +
          " in the agent (checkpoint from a different architecture?)");
    std::string Bad =
        nonFiniteError("parameter " + std::to_string(I), NewData[I]);
    if (!Bad.empty())
      return makeError<Staged>(Bad);
  }
  return NewData;
}

static void commitParameters(const std::vector<nn::Tensor> &Params,
                             const std::vector<std::vector<double>> &Staged) {
  for (size_t I = 0; I < Params.size(); ++I)
    Params[I].node()->Data.assign(Staged[I].begin(), Staged[I].end());
}

Expected<bool> mlirrl::loadAgentParameters(ActorCritic &Agent,
                                           const std::string &Path) {
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromFile(Path, CheckpointFormatVersion);
  if (!Reader)
    return makeError<bool>("checkpoint " + Path + ": " + Reader.getError());
  std::vector<nn::Tensor> Params = Agent.parameters();
  Expected<std::vector<std::vector<double>>> Staged =
      stageParameters(*Reader, Params);
  if (!Staged)
    return makeError<bool>("checkpoint " + Path + ": " + Staged.getError());
  commitParameters(Params, *Staged);
  Agent.invalidateInferenceCache();
  return true;
}

//===----------------------------------------------------------------------===//
// PpoTrainer state (declared in rl/Ppo.h)
//===----------------------------------------------------------------------===//

Expected<bool> PpoTrainer::saveState(ArchiveWriter &W) const {
  // Both loaders refuse a non-finite parameter or moment, so such state
  // is refused here, before the first byte is written.
  std::vector<nn::Tensor> Params = Agent.parameters();
  for (size_t I = 0; I < Params.size(); ++I) {
    std::string Bad =
        nonFiniteError("parameter " + std::to_string(I), Params[I].data());
    if (!Bad.empty())
      return makeError<bool>(Bad);
  }
  std::string Bad = nonFiniteMomentError(Optimizer.firstMoments(),
                                         Optimizer.secondMoments());
  if (!Bad.empty())
    return makeError<bool>(Bad);

  W.beginChunk(kConfigTag);
  ckpt::writePpoConfig(W, Config);
  W.endChunk();

  W.beginChunk(kParamsTag);
  W.writeU64(Params.size());
  for (const nn::Tensor &P : Params)
    ckpt::writeTensor(W, P);
  W.endChunk();

  W.beginChunk(kAdamTag);
  W.writeU32(Optimizer.stepCount());
  W.writeU64(Optimizer.firstMoments().size());
  for (const std::vector<double> &M : Optimizer.firstMoments())
    W.writeDoubles(M);
  for (const std::vector<double> &V : Optimizer.secondMoments())
    W.writeDoubles(V);
  W.endChunk();

  W.beginChunk(kRngTag);
  ckpt::writeRng(W, SampleRng);
  W.endChunk();

  W.beginChunk(kCountersTag);
  W.writeU64(DatasetCursor);
  W.writeU64(EpisodeCounter);
  W.writeU64(IterationsDone);
  W.endChunk();
  return true;
}

Expected<bool> PpoTrainer::restoreState(const ArchiveReader &Reader) {
  // Stage and validate everything before the commit below mutates the
  // first byte of trainer state: a failure anywhere leaves the trainer
  // exactly as it was.
  Expected<ChunkReader> Cfg = Reader.chunk(kConfigTag);
  if (!Cfg)
    return makeError<bool>(Cfg.getError());
  PpoConfig NewConfig = ckpt::readPpoConfig(*Cfg);
  if (!Cfg->ok())
    return makeError<bool>("config chunk: " + Cfg->error());

  std::vector<nn::Tensor> Params = Agent.parameters();
  Expected<std::vector<std::vector<double>>> NewData =
      stageParameters(Reader, Params);
  if (!NewData)
    return makeError<bool>(NewData.getError());

  Expected<ChunkReader> Adm = Reader.chunk(kAdamTag);
  if (!Adm)
    return makeError<bool>(Adm.getError());
  nn::Adam::State AdamState;
  AdamState.StepCount = Adm->readU32();
  uint64_t MomentCount = Adm->readU64();
  if (!Adm->ok() || MomentCount != Params.size())
    return makeError<bool>("Adam chunk holds moments for " +
                           std::to_string(MomentCount) + " parameters, " +
                           std::to_string(Params.size()) + " expected");
  AdamState.FirstMoment.resize(Params.size());
  AdamState.SecondMoment.resize(Params.size());
  for (std::vector<double> &M : AdamState.FirstMoment)
    M = Adm->readDoubles();
  for (std::vector<double> &V : AdamState.SecondMoment)
    V = Adm->readDoubles();
  if (!Adm->ok())
    return makeError<bool>("Adam chunk: " + Adm->error());
  for (size_t I = 0; I < Params.size(); ++I)
    if (AdamState.FirstMoment[I].size() != Params[I].size() ||
        AdamState.SecondMoment[I].size() != Params[I].size())
      return makeError<bool>("Adam moment " + std::to_string(I) +
                             " does not match its parameter's size");
  std::string Bad =
      nonFiniteMomentError(AdamState.FirstMoment, AdamState.SecondMoment);
  if (!Bad.empty())
    return makeError<bool>(Bad);

  Expected<ChunkReader> RngChunk = Reader.chunk(kRngTag);
  if (!RngChunk)
    return makeError<bool>(RngChunk.getError());
  Rng NewRng(0);
  ckpt::readRng(*RngChunk, NewRng);
  if (!RngChunk->ok())
    return makeError<bool>("RNG chunk: " + RngChunk->error());

  Expected<ChunkReader> Ctr = Reader.chunk(kCountersTag);
  if (!Ctr)
    return makeError<bool>(Ctr.getError());
  uint64_t NewDatasetCursor = Ctr->readU64();
  uint64_t NewEpisodeCounter = Ctr->readU64();
  uint64_t NewIterationsDone = Ctr->readU64();
  if (!Ctr->ok())
    return makeError<bool>("counter chunk: " + Ctr->error());

  // Commit. Nothing below can fail.
  Config = NewConfig;
  commitParameters(Params, *NewData);
  bool AdamOk = Optimizer.setState(std::move(AdamState));
  assert(AdamOk && "validated Adam state failed to apply");
  (void)AdamOk;
  Optimizer.setLearningRate(Config.LearningRate);
  Optimizer.zeroGrad();
  SampleRng = NewRng;
  DatasetCursor = NewDatasetCursor;
  EpisodeCounter = NewEpisodeCounter;
  IterationsDone = NewIterationsDone;
  // Thread pools are sized by the (possibly changed) config; drop them
  // so the next iteration recreates them lazily.
  Pool.reset();
  GemmPool.reset();
  // The restore rewrote the parameters: any packed f32 copy of the
  // policy is stale.
  Agent.invalidateInferenceCache();
  return true;
}

//===----------------------------------------------------------------------===//
// File-level checkpoints
//===----------------------------------------------------------------------===//

Expected<bool> mlirrl::saveCheckpoint(const PpoTrainer &Trainer,
                                      const std::string &Path,
                                      const ShardedDataset *Stream) {
  ArchiveWriter W(CheckpointFormatVersion);
  Expected<bool> Saved = Trainer.saveState(W);
  if (!Saved)
    return Saved;
  if (Stream) {
    W.beginChunk(kDatasetTag);
    W.writeU64(Stream->seed());
    W.writeU64(Stream->size());
    W.writeU64(Stream->cursor());
    W.endChunk();
  }
  return W.writeFile(Path);
}

Expected<bool> mlirrl::loadCheckpoint(PpoTrainer &Trainer,
                                      const std::string &Path,
                                      ShardedDataset *Stream) {
  Expected<ArchiveReader> Reader =
      ArchiveReader::fromFile(Path, CheckpointFormatVersion);
  if (!Reader)
    return makeError<bool>("checkpoint " + Path + ": " + Reader.getError());

  // Validate the stream chunk before restoreState mutates the trainer,
  // so a mismatched stream leaves both untouched.
  uint64_t StreamCursor = 0;
  if (Stream) {
    Expected<ChunkReader> Dset = Reader->chunk(kDatasetTag);
    if (!Dset)
      return makeError<bool>(
          "checkpoint " + Path +
          " records no dataset cursor (saved without a stream): " +
          Dset.getError());
    uint64_t Seed = Dset->readU64();
    uint64_t Size = Dset->readU64();
    StreamCursor = Dset->readU64();
    if (!Dset->ok())
      return makeError<bool>("dataset chunk: " + Dset->error());
    if (Seed != Stream->seed() || Size != Stream->size())
      return makeError<bool>(
          "checkpointed dataset stream (seed " + std::to_string(Seed) +
          ", " + std::to_string(Size) + " samples) does not match the "
          "stream being resumed (seed " + std::to_string(Stream->seed()) +
          ", " + std::to_string(Stream->size()) + " samples)");
  }

  Expected<bool> Restored = Trainer.restoreState(*Reader);
  if (!Restored)
    return Restored;
  if (Stream)
    Stream->seek(StreamCursor);
  return true;
}

//===----------------------------------------------------------------------===//
// CheckpointManager
//===----------------------------------------------------------------------===//

std::vector<std::pair<uint64_t, std::string>>
CheckpointManager::listCheckpoints() const {
  std::vector<std::pair<uint64_t, std::string>> Found;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Opts.Directory, Ec);
  if (Ec)
    return Found;
  const std::string Head = Opts.Prefix + "-";
  const std::string Tail = ".ckpt";
  for (const auto &Entry : It) {
    std::string Name = Entry.path().filename().string();
    if (Name.size() <= Head.size() + Tail.size() ||
        Name.compare(0, Head.size(), Head) != 0 ||
        Name.compare(Name.size() - Tail.size(), Tail.size(), Tail) != 0)
      continue;
    std::string Digits =
        Name.substr(Head.size(), Name.size() - Head.size() - Tail.size());
    // Checked parse (rejects non-digits and uint64 overflow outright,
    // where the old stoull would have thrown on a 20-digit run): a
    // foreign file in the checkpoint dir is skipped, never a crash.
    Expected<uint64_t> Index = parseUnsignedInteger(Digits);
    if (!Index)
      continue;
    Found.emplace_back(*Index, Entry.path().string());
  }
  std::sort(Found.begin(), Found.end());
  return Found;
}

Expected<std::string>
CheckpointManager::save(const PpoTrainer &Trainer,
                        const ShardedDataset *Stream) const {
  std::error_code Ec;
  std::filesystem::create_directories(Opts.Directory, Ec);
  if (Ec)
    return makeError<std::string>("cannot create checkpoint directory " +
                                  Opts.Directory + ": " + Ec.message());
  std::string Num = std::to_string(Trainer.iterationsDone());
  if (Num.size() < 10)
    Num.insert(0, 10 - Num.size(), '0');
  std::string Path = Opts.Directory + "/" + Opts.Prefix + "-" + Num + ".ckpt";
  Expected<bool> Written = saveCheckpoint(Trainer, Path, Stream);
  if (!Written)
    return makeError<std::string>(Written.getError());

  // Rotate: keep the KeepLast newest by index, but never the file just
  // written — a directory holding stale higher-index checkpoints from
  // an earlier run must not swallow the fresh one.
  std::vector<std::pair<uint64_t, std::string>> All = listCheckpoints();
  if (Opts.KeepLast > 0 && All.size() > Opts.KeepLast)
    for (size_t I = 0; I + Opts.KeepLast < All.size(); ++I)
      if (All[I].second != Path)
        std::filesystem::remove(All[I].second, Ec);
  return Path;
}

std::string CheckpointManager::latestPath() const {
  std::vector<std::pair<uint64_t, std::string>> All = listCheckpoints();
  return All.empty() ? std::string() : All.back().second;
}

Expected<bool> CheckpointManager::loadLatest(PpoTrainer &Trainer,
                                             ShardedDataset *Stream) const {
  std::vector<std::pair<uint64_t, std::string>> All = listCheckpoints();
  if (All.empty())
    return false;
  // Newest first; a corrupt newest checkpoint (torn write, disk error)
  // falls back to the older ones keep-last-K retention exists for. A
  // failed load leaves the trainer untouched, so trying the next is
  // safe.
  Expected<bool> LastError = makeError<bool>("no checkpoint loaded");
  for (size_t I = All.size(); I > 0; --I) {
    Expected<bool> Loaded =
        loadCheckpoint(Trainer, All[I - 1].second, Stream);
    if (Loaded)
      return Loaded;
    LastError = std::move(Loaded);
  }
  return LastError;
}
