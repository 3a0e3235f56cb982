//===- serve_smoke.cpp - End-to-end schedule-server smoke -----------------===//
//
// The serving pipeline end to end, at CI scale: train a tiny policy for
// one iteration, freeze it to a checkpoint, load it into a
// ScheduleServer, and push requests through every edge the server
// guards -- well-formed modules (served), a malformed module (rejected
// at the import gate), concurrent clients (answers must be
// bitwise-identical to the sequential ones), and an over-capacity burst
// (clean immediate rejection). Exits nonzero on any violated
// invariant. scripts/ci.sh runs it in the normal and --sanitize passes:
//
//   ./build/example_serve_smoke --requests 8 --ckpt build/serve_smoke.ckpt
//
//===----------------------------------------------------------------------===//

#include "datasets/DnnOps.h"
#include "ir/Printer.h"
#include "rl/Checkpoint.h"
#include "rl/MlirRl.h"
#include "serve/Server.h"
#include "support/Args.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace mlirrl;

namespace {

unsigned Failures = 0;

void check(bool Ok, const char *What) {
  if (Ok) {
    std::printf("  ok: %s\n", What);
  } else {
    std::printf("  FAIL: %s\n", What);
    ++Failures;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Requests = 8;
  uint64_t Seed = 42;
  std::string CkptPath = "serve_smoke.ckpt";

  for (int I = 1; I < Argc; ++I) {
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (!std::strcmp(Argv[I], "--requests"))
      Requests = static_cast<unsigned>(parseUnsignedArg(
          "--requests", Value(), std::numeric_limits<unsigned>::max()));
    else if (!std::strcmp(Argv[I], "--seed"))
      Seed = parseUnsignedArg("--seed", Value());
    else if (!std::strcmp(Argv[I], "--ckpt"))
      CkptPath = Value();
    else {
      std::fprintf(stderr, "usage: %s [--requests N] [--seed S] [--ckpt PATH]\n",
                   Argv[0]);
      return 2;
    }
  }

  // A tiny frozen policy: one laptop-scale training iteration.
  MlirRlOptions Train = MlirRlOptions::laptop();
  Train.Net.LstmHidden = 16;
  Train.Net.BackboneHidden = 16;
  Train.Ppo.SamplesPerIteration = 4;
  Train.Iterations = 1;
  Train.Seed = Seed;
  std::printf("serve_smoke: training 1 iteration...\n");
  {
    MlirRl Sys(Train);
    std::vector<Module> Data = {makeMatmulModule(96, 96, 96)};
    Sys.train(Data);
    Expected<bool> Saved = saveCheckpoint(Sys.trainer(), CkptPath);
    if (!Saved) {
      std::fprintf(stderr, "error: cannot save checkpoint: %s\n",
                   Saved.getError().c_str());
      return 1;
    }
  }

  ServeOptions Opts;
  Opts.Env = Train.Env;
  Opts.Net = Train.Net;
  Opts.Seed = Seed + 1;
  Opts.BatchWidth = 4;
  Opts.QueueCapacity = 4;
  ScheduleServer Server(Opts);

  Expected<bool> Loaded = Server.loadPolicy(CkptPath);
  check(Loaded.hasValue(), "checkpoint loads into the server");
  if (!Loaded)
    std::fprintf(stderr, "  (%s)\n", Loaded.getError().c_str());

  // N requests, one of them malformed.
  std::vector<std::string> Texts;
  for (unsigned I = 0; I < Requests; ++I) {
    switch (I % 3) {
    case 0:
      Texts.push_back(printModule(makeMatmulModule(96, 96, 96)));
      break;
    case 1:
      Texts.push_back(printModule(makeReluModule({512, 256})));
      break;
    default:
      Texts.push_back(printModule(makeMatmulModule(64, 128, 64)));
      break;
    }
  }
  std::string Malformed = "module @broken { %A = tensor<oops> ";

  unsigned ServedOk = 0;
  for (const std::string &T : Texts) {
    Expected<ServeResponse> R = Server.optimize(T);
    if (R && R->Speedup > 0.0)
      ++ServedOk;
    else if (!R)
      std::fprintf(stderr, "  (unexpected rejection: %s)\n",
                   R.getError().c_str());
  }
  check(ServedOk == Requests, "all well-formed requests served");

  Expected<ServeResponse> Bad = Server.optimize(Malformed);
  check(!Bad.hasValue(), "malformed module rejected at the import gate");

  // Concurrency determinism: the same module from two client threads
  // must answer bitwise-identically to the sequential reference.
  Expected<ServeResponse> Ref = Server.optimize(Texts[0]);
  check(Ref.hasValue(), "reference request served");
  bool ConcurrentMatch = true;
  {
    std::vector<std::thread> Clients;
    std::vector<Expected<ServeResponse>> Out(
        4, makeError<ServeResponse>("unset"));
    for (unsigned T = 0; T < Out.size(); ++T)
      Clients.emplace_back(
          [&, T] { Out[T] = Server.optimize(Texts[0]); });
    for (std::thread &C : Clients)
      C.join();
    for (const Expected<ServeResponse> &R : Out)
      if (!R || !Ref ||
          R->Schedule.toString() != Ref->Schedule.toString() ||
          R->Speedup != Ref->Speedup)
        ConcurrentMatch = false;
  }
  check(ConcurrentMatch, "concurrent answers bitwise-match sequential");

  // Over-capacity burst against a held worker: the overflowing
  // submission must reject immediately instead of hanging.
  Server.pauseWorker();
  std::vector<std::future<Expected<ServeResponse>>> Held;
  for (unsigned I = 0; I < Opts.QueueCapacity; ++I)
    Held.push_back(Server.submitAsync(Texts[I % Texts.size()]));
  auto Overflow = Server.submitAsync(Texts[0]);
  bool OverflowRejected =
      Overflow.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready &&
      !Overflow.get().hasValue();
  Server.resumeWorker();
  check(OverflowRejected, "over-capacity submission rejected immediately");
  bool HeldServed = true;
  for (auto &F : Held)
    HeldServed = HeldServed && F.get().hasValue();
  check(HeldServed, "queued requests served after resume");

  ServeStats S = Server.stats();
  std::printf("serve_smoke: served %llu in %llu batches; rejected "
              "%llu import / %llu queue-full / %llu shutdown; op memo "
              "hit rate %.2f\n",
              static_cast<unsigned long long>(S.Served),
              static_cast<unsigned long long>(S.Batches),
              static_cast<unsigned long long>(S.RejectedImport),
              static_cast<unsigned long long>(S.RejectedQueueFull),
              static_cast<unsigned long long>(S.RejectedShutdown),
              S.OpMemoHitRate);

  std::remove(CkptPath.c_str());
  if (Failures) {
    std::printf("serve_smoke: %u FAILURES\n", Failures);
    return 1;
  }
  std::printf("serve_smoke: clean\n");
  return 0;
}
