//===- main.cpp - perfbench: runs one workload of the repo benchmark ------===//
//
// Usage: perfbench --workload <train_ops|serve_repeat|env_fresh>
//                  --seed <n> --seconds <n> --trace <0|1>
//
// Runs one workload for the given number of seconds and prints one
// JSON record of raw measurements on stdout. perfbench/run.py builds
// this binary, runs it, and reduces the record to the benchmark's
// metrics line.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Args.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  RunArgs Args;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I];
    std::string Value = Argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      Args.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      Args.Seed = mlirrl::parseUnsignedArg(Flag, Value);
    else if (!std::strcmp(Flag, "--seconds"))
      Args.Seconds = static_cast<unsigned>(
          mlirrl::parseUnsignedArg(Flag, Value, 3600));
    else if (!std::strcmp(Flag, "--trace"))
      Args.Trace = mlirrl::parseUnsignedArg(Flag, Value, 1) != 0;
    else {
      std::fprintf(stderr, "error: unknown option %s\n", Flag);
      return 2;
    }
  }
  if (Args.Seconds == 0) {
    std::fprintf(stderr, "error: --seconds must be positive\n");
    return 2;
  }

  Record R;
  int Status = 2;
  if (Args.Workload == "train_ops")
    Status = runTrainOps(Args, R);
  else if (Args.Workload == "serve_repeat")
    Status = runServeRepeat(Args, R);
  else if (Args.Workload == "env_fresh")
    Status = runEnvFresh(Args, R);
  else
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Args.Workload.c_str());
  if (Status != 0)
    return Status;
  emitRecord(Args, R);
  return 0;
}
