//===- Server.cpp ---------------------------------------------------------===//

#include "serve/Server.h"

#include "env/Featurizer.h"
#include "rl/Checkpoint.h"
#include "support/Stats.h"

#include <algorithm>

using namespace mlirrl;

ScheduleServer::ScheduleServer(ServeOptions Opts)
    : Options(Opts), Run(Opts.Machine, Opts.Runner),
      Memo(Run, Opts.MemoCapacity),
      Agent(Opts.Env, Featurizer(Opts.Env).featureSize(), Opts.Net,
            Opts.Seed),
      Engine(Agent, Memo) {
  Agent.setInferenceDtype(Options.Inference);
  const unsigned Count = std::max(1u, Options.Workers);
  WorkerThreads.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
}

ScheduleServer::~ScheduleServer() { shutdown(); }

Expected<bool> ScheduleServer::loadPolicy(const std::string &Path) {
  // Exclusive: waits for the in-flight batch (which holds the lock
  // shared) to finish, blocks the next batch until the swap is done.
  // loadAgentParameters validates the parameters before mutating, so a
  // bad file leaves the serving policy untouched; a good one ends in
  // invalidateInferenceCache(), whose version stamp retires any packed
  // float snapshot a racing repack might otherwise republish.
  std::unique_lock<std::shared_mutex> Lock(PolicyLock);
  Expected<bool> Result = loadAgentParameters(Agent, Path);
  if (Result)
    PolicyReloads.fetch_add(1, std::memory_order_relaxed);
  return Result;
}

std::future<Expected<ServeResponse>>
ScheduleServer::submitAsync(const std::string &IrText) {
  // Import, admission and rejection all happen on the caller's thread:
  // the worker only ever sees verified modules, and a rejected caller
  // learns immediately instead of timing out against a full queue.
  auto RejectNow = [](std::string Reason) {
    std::promise<Expected<ServeResponse>> P;
    P.set_value(makeError<ServeResponse>(std::move(Reason)));
    return P.get_future();
  };

  Expected<Module> Imported = importModule(IrText, Options.Limits);
  if (!Imported) {
    // importModule already counted robustness.import_rejected.
    RejectedImport.fetch_add(1, std::memory_order_relaxed);
    return RejectNow("import rejected: " + Imported.getError());
  }

  std::unique_lock<std::mutex> Lock(QueueMutex);
  if (Stopping) {
    Lock.unlock();
    recordRobustnessEvent(RobustnessEvent::ServerShutdown);
    RejectedShutdown.fetch_add(1, std::memory_order_relaxed);
    return RejectNow("server is shutting down");
  }
  if (Queue.size() >= Options.QueueCapacity) {
    Lock.unlock();
    recordRobustnessEvent(RobustnessEvent::ServerQueueFull);
    RejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
    return RejectNow(
        "admission queue full (" + std::to_string(Options.QueueCapacity) +
        " requests queued); retry later");
  }
  Pending P;
  P.M = std::move(Imported.get());
  std::future<Expected<ServeResponse>> F = P.Promise.get_future();
  Queue.push_back(std::move(P));
  Lock.unlock();
  QueueCv.notify_one();
  return F;
}

Expected<ServeResponse> ScheduleServer::optimize(const std::string &IrText) {
  return submitAsync(IrText).get();
}

void ScheduleServer::serveBatch(std::vector<Pending> &Batch) {
  std::vector<const Module *> Samples;
  Samples.reserve(Batch.size());
  for (const Pending &P : Batch)
    Samples.push_back(&P.M);

  RolloutEngine::Options Opts;
  Opts.RecordSchedule = true;
  Opts.MaxGroupSteps = Options.MaxEpisodeSteps;

  // Shared: concurrent with nothing but loadPolicy's exclusive swap,
  // so the whole batch is computed under one policy version.
  std::shared_lock<std::shared_mutex> Lock(PolicyLock);
  uint64_t Version = Agent.parameterVersion();
  std::vector<RolloutEngine::Episode> Episodes = Engine.greedyGroup(Samples, Opts);
  Lock.unlock();

  // Count before fulfilling: a client woken by its future must see
  // stats() that already include its own request.
  Served.fetch_add(Batch.size(), std::memory_order_relaxed);
  Batches.fetch_add(1, std::memory_order_relaxed);
  for (size_t I = 0; I < Batch.size(); ++I) {
    ServeResponse R;
    R.Schedule = std::move(Episodes[I].Schedule);
    R.Speedup = Episodes[I].Speedup;
    R.PolicyVersion = Version;
    Batch[I].Promise.set_value(std::move(R));
  }
}

void ScheduleServer::workerLoop() {
  for (;;) {
    std::vector<Pending> Batch;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] {
        return Stopping || (!Queue.empty() && !Paused);
      });
      if (Stopping)
        return; // shutdown() rejects whatever is still queued
      unsigned Take = std::min<size_t>(Queue.size(),
                                       std::max(1u, Options.BatchWidth));
      Batch.reserve(Take);
      for (unsigned I = 0; I < Take; ++I) {
        Batch.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
    }
    serveBatch(Batch);
  }
}

void ScheduleServer::shutdown() {
  std::deque<Pending> Orphaned;
  std::vector<std::thread> ToJoin;
  {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    if (Stopping && WorkerThreads.empty() && Queue.empty())
      return;
    Stopping = true;
    Orphaned.swap(Queue);
    // Claim the threads under the lock (making repeat shutdowns no-ops)
    // but join outside it: workers must be able to take QueueMutex to
    // observe Stopping and exit.
    ToJoin.swap(WorkerThreads);
  }
  QueueCv.notify_all();
  for (std::thread &W : ToJoin)
    if (W.joinable())
      W.join();
  for (Pending &P : Orphaned) {
    recordRobustnessEvent(RobustnessEvent::ServerShutdown);
    RejectedShutdown.fetch_add(1, std::memory_order_relaxed);
    P.Promise.set_value(
        makeError<ServeResponse>("server shut down before serving"));
  }
}

ServeStats ScheduleServer::stats() const {
  ServeStats S;
  S.Served = Served.load(std::memory_order_relaxed);
  S.Batches = Batches.load(std::memory_order_relaxed);
  S.RejectedImport = RejectedImport.load(std::memory_order_relaxed);
  S.RejectedQueueFull = RejectedQueueFull.load(std::memory_order_relaxed);
  S.RejectedShutdown = RejectedShutdown.load(std::memory_order_relaxed);
  S.PolicyReloads = PolicyReloads.load(std::memory_order_relaxed);
  S.OpMemoHitRate = Memo.getOpCounters().hitRate();
  return S;
}

void ScheduleServer::pauseWorker() {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  Paused = true;
}

void ScheduleServer::resumeWorker() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Paused = false;
  }
  QueueCv.notify_all();
}
