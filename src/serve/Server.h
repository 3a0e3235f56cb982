//===- Server.h - Batched greedy-inference schedule server -------*- C++-*-===//
///
/// \file
/// A long-lived, in-process serving front end for a frozen policy: load
/// the agent parameters of a trainer checkpoint, then answer "optimize
/// this module" requests with the greedy schedule and its predicted
/// speedup.
/// Requests enter as untrusted IR text through the importModule gate
/// (caps -> parser -> verifier -> sanitizer), so a hostile module is a
/// clean rejection, never a crash.
///
/// Serving shape (mirrors the training loop's): Workers worker threads
/// (one by default) drain the admission queue in batches of up to
/// BatchWidth requests each and roll every batch as one lockstep greedy
/// episode group through the shared RolloutEngine -- one policy GEMM
/// per step for the whole batch. All requests price through one
/// lock-striped CachingEvaluator, so ops shared across requests (and
/// repeated requests, baselines included) hit its per-op table instead
/// of re-pricing. Greedy rollouts draw no RNG and a request's answer
/// never depends on which worker serves it or who shares its batch, so
/// answers are bitwise-identical whether a module is served alone,
/// inside a mixed batch, under concurrent clients, or at any worker
/// count (ServeTest pins all of these).
///
/// Admission is bounded: when the queue holds QueueCapacity requests,
/// submit rejects immediately with a reason instead of queueing
/// unboundedly (counted under robustness.server_queue_full); after
/// shutdown begins, submissions and still-queued requests reject under
/// robustness.server_shutdown. Checkpoint reloads (loadPolicy) take the
/// policy lock exclusively, so a batch is always served end-to-end by
/// one policy version -- no torn reads, no stale packed float weights
/// under F32 inference (the agent's version-stamped cache covers the
/// repack race; ServeReloadTest hammers both under threads).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_SERVE_SERVER_H
#define MLIRRL_SERVE_SERVER_H

#include "ir/Parser.h"
#include "perf/Runner.h"
#include "rl/RolloutEngine.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

namespace mlirrl {

/// Server configuration. Env/Net must match the checkpoint the server
/// loads (loadPolicy rejects architecture mismatches cleanly).
struct ServeOptions {
  EnvConfig Env;
  NetConfig Net;
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  RunnerOptions Runner;
  /// Greedy-inference element type (F32 = packed float fast path).
  InferenceDtype Inference = InferenceDtype::F64;
  /// Seeds the agent's initial parameters (served until the first
  /// loadPolicy).
  uint64_t Seed = 1234;
  /// Requests rolled together per lockstep batch (the serving-side
  /// analogue of the training batch width; 0 is treated as 1).
  unsigned BatchWidth = 8;
  /// Worker threads draining the queue (0 is treated as 1). Each worker
  /// serves whole batches independently; the policy lock, the striped
  /// memo and the engine's const rollout path make that safe, and
  /// because answers are batch- and worker-invariant, raising this
  /// changes throughput under concurrent clients, never results.
  unsigned Workers = 1;
  /// Admission bound: submissions beyond this many queued requests are
  /// rejected immediately with a reason (backpressure, not buffering).
  size_t QueueCapacity = 64;
  /// Entry budget of the shared cross-request memo.
  size_t MemoCapacity = CachingEvaluator::DefaultCapacity;
  /// Defensive cap on lockstep steps per served batch (episodes always
  /// terminate on their own; this bounds a pathological one).
  unsigned MaxEpisodeSteps = 1u << 16;
  /// Resource caps applied to incoming IR text.
  ImportLimits Limits;
};

/// One answered request.
struct ServeResponse {
  ModuleSchedule Schedule;
  /// Predicted speedup of Schedule over the unoptimized module.
  double Speedup = 1.0;
  /// The agent parameter version the schedule was computed under
  /// (bumps on every loadPolicy), so clients can tell reloads apart.
  uint64_t PolicyVersion = 0;
};

/// Monotone serving counters plus the memo hit rate.
struct ServeStats {
  uint64_t Served = 0;
  uint64_t Batches = 0;
  uint64_t RejectedImport = 0;
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedShutdown = 0;
  uint64_t PolicyReloads = 0;
  /// Hit rate of the shared CachingEvaluator's per-op table since
  /// server construction.
  double OpMemoHitRate = 0.0;
};

/// The server. Construction starts the worker threads; destruction (or
/// shutdown()) stops them and rejects everything still queued.
class ScheduleServer {
public:
  explicit ScheduleServer(ServeOptions Opts);
  ~ScheduleServer();

  ScheduleServer(const ScheduleServer &) = delete;
  ScheduleServer &operator=(const ScheduleServer &) = delete;

  /// Loads a frozen policy: the agent parameters of the trainer
  /// checkpoint at \p Path.
  /// Takes the policy lock exclusively: in-flight batches finish on
  /// the old policy first, later batches serve the new one. Validates
  /// before mutating -- on error the previous policy keeps serving.
  Expected<bool> loadPolicy(const std::string &Path);

  /// Submits one module (untrusted IR text). The import gate and the
  /// admission check run on the caller's thread, so a malformed module
  /// or a full queue fails the returned future immediately with a
  /// reason; an admitted request resolves when its batch is served.
  std::future<Expected<ServeResponse>> submitAsync(const std::string &IrText);

  /// Synchronous convenience: submit and wait.
  Expected<ServeResponse> optimize(const std::string &IrText);

  ServeStats stats() const;

  /// Stops all workers and rejects all queued requests. Idempotent;
  /// subsequent submissions reject with a shutdown reason.
  void shutdown();

  /// Test hooks: hold every worker between batches so admission
  /// behavior can be probed deterministically (a paused server still
  /// accepts and rejects at the gate, it just serves nothing).
  void pauseWorker();
  void resumeWorker();

private:
  struct Pending {
    Module M;
    std::promise<Expected<ServeResponse>> Promise;
  };

  void workerLoop();
  /// Serves one drained batch (policy lock held shared).
  void serveBatch(std::vector<Pending> &Batch);

  ServeOptions Options;
  Runner Run;
  /// The cross-request memo every served episode prices through.
  CachingEvaluator Memo;
  ActorCritic Agent;
  RolloutEngine Engine;

  /// Held shared while a batch is served, exclusively by loadPolicy.
  std::shared_mutex PolicyLock;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<Pending> Queue;
  bool Stopping = false;
  bool Paused = false;

  std::atomic<uint64_t> Served{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> RejectedImport{0};
  std::atomic<uint64_t> RejectedQueueFull{0};
  std::atomic<uint64_t> RejectedShutdown{0};
  std::atomic<uint64_t> PolicyReloads{0};

  std::vector<std::thread> WorkerThreads;
};

} // namespace mlirrl

#endif // MLIRRL_SERVE_SERVER_H
