#!/usr/bin/env bash
# Emits BENCH_trainstep.json: ns-per-train-iteration (and the matmul /
# cache counters) from bench_trainstep, as a machine-readable perf
# trajectory for future PRs to compare against.
#
# Usage: scripts/bench_json.sh [--threads|--memo|--gemm|--serve] [build-dir] [output.json]
#
#   --threads   sweep only the CollectThreads / UpdateThreads matrix
#               (the multi-core wall-clock numbers PERF.md records;
#               default output BENCH_threads.json). Run it on a
#               multi-core host -- on a 1-core box it records pool
#               overhead, which is still worth pinning.
#   --memo      sweep the striped-memo contention matrix from bench_memo
#               (shard counts x thread counts; default output
#               BENCH_memo.json). The contended_acquisitions counters
#               are meaningful even on 1 core.
#   --gemm      raw GEMM GFLOP/s from bench_gemm: each layout's one
#               path at the training shapes, plus NN square sizes for
#               both dtypes (default output BENCH_gemm.json).
#               Single-core numbers; the artifact records the compiler
#               and -march the kernels were built with, since the SIMD
#               micro-kernels' throughput is a property of both.
#   --serve     schedule-server requests/s and p50/p99 request latency
#               from bench_serve (default output BENCH_serve.json).
#               The client-thread sweep and the server-worker sweep are
#               pruned to the host's cores and the artifact records
#               nproc (and, like every artifact, the compiler/march
#               keys): on a 1-core box the sweeps measure batching +
#               admission overhead, not parallel serving.
#
# Thread sweeps wider than the host's core count are skipped: a 1-core
# box "benchmarking" 8 collector threads measures pool overhead and
# scheduler noise, not scaling, and silently recording those numbers as
# the perf trajectory misleads the next PR. The emitted JSON records
# the host's nproc so a reader can tell which sweeps a committed
# artifact could have run.
set -euo pipefail

BIN_NAME=bench_trainstep
FILTER=""
DEFAULT_OUT=BENCH_trainstep.json
NPROC=$(nproc)

# The benchmarks' thread/Threads() sweep points, pruned to the host.
threads_regex() {
  local allowed=""
  for t in 1 2 4 8; do
    if [[ "$t" -le "$NPROC" ]]; then
      allowed+="${allowed:+|}$t"
    fi
  done
  echo "($allowed)"
}

case "${1:-}" in
  --threads)
    shift
    FILTER="--benchmark_filter=(CollectThreads|UpdateThreads)/$(threads_regex)\$"
    DEFAULT_OUT=BENCH_threads.json
    ;;
  --memo)
    shift
    BIN_NAME=bench_memo
    # BM_StripedMemoLookup/<shards>/... names carry a "threads:N"
    # suffix (threads:1 included); keep host-feasible thread sweeps
    # plus the suffix-free single-thread hit/eviction benchmarks.
    FILTER="--benchmark_filter=StripedMemo.*(threads:$(threads_regex)\$|/(1|4|16|64)(/real_time)?\$)"
    DEFAULT_OUT=BENCH_memo.json
    ;;
  --gemm)
    shift
    BIN_NAME=bench_gemm
    DEFAULT_OUT=BENCH_gemm.json
    ;;
  --serve)
    shift
    BIN_NAME=bench_serve
    # Keep the single-client latency benchmark, the host-feasible
    # points of the concurrent-client thread sweep, and the
    # server-worker sweep pruned on *workers* (its 4 client threads are
    # mostly-blocked load generators; the worker count is what must not
    # exceed the cores, or the sweep reports scheduler noise as
    # scaling).
    FILTER="--benchmark_filter=(ServeLatency/real_time\$|ServeThroughput.*threads:$(threads_regex)\$|ServeWorkerSweep/workers:$(threads_regex)/)"
    DEFAULT_OUT=BENCH_serve.json
    ;;
  *)
    # Default perf-trajectory artifact: exclude the thread-sweep cases
    # this host cannot actually run (negative filter, google-benchmark
    # >= 1.6). BM_TrainIterationMemoShards pins CollectThreads=4
    # internally, so it goes too on narrower hosts.
    too_wide=""
    for t in 2 4 8; do
      if [[ "$t" -gt "$NPROC" ]]; then
        too_wide+="${too_wide:+|}$t"
      fi
    done
    if [[ -n "$too_wide" ]]; then
      EXCLUDE="(CollectThreads|UpdateThreads)/($too_wide)\$"
      if [[ "$NPROC" -lt 4 ]]; then
        EXCLUDE+="|MemoShards"
      fi
      FILTER="--benchmark_filter=-($EXCLUDE)"
    fi
    ;;
esac

BUILD_DIR=${1:-build}
OUT=${2:-$DEFAULT_OUT}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BIN="$REPO_ROOT/$BUILD_DIR/$BIN_NAME"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (configure with google-benchmark available):" >&2
  echo "  cmake -B $BUILD_DIR -S $REPO_ROOT && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

# Record the host's core count, the compiler and the -march the binary
# was built with in the artifact's "context" object (google-benchmark's
# --benchmark_context): num_cpus is already there, but the explicit key
# makes the "which sweeps could this box actually run" question
# greppable. The GEMM kernels are the obvious dependents of compiler and
# ISA flags, but the serve numbers ride the same packed/SIMD inference
# kernels, so every artifact carries the keys: comparing artifacts that
# differ in (machine, compiler, ISA flags) is meaningless either way.
# The flag splits its value on commas, so the compiler banner drops any.
CXX_BIN=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$REPO_ROOT/$BUILD_DIR/CMakeCache.txt" | head -1)
COMPILER=$("${CXX_BIN:-c++}" --version 2>/dev/null | head -1 || echo unknown)
COMPILER=${COMPILER//,/}
MARCH=native
grep -q 'MLIRRL_HAS_MARCH_NATIVE:INTERNAL=1' \
    "$REPO_ROOT/$BUILD_DIR/CMakeCache.txt" 2>/dev/null || MARCH=default

"$BIN" --benchmark_format=console \
       --benchmark_out_format=json \
       --benchmark_out="$OUT" \
       --benchmark_context="nproc=$NPROC,compiler=$COMPILER,march=$MARCH" \
       --benchmark_min_time=0.2 ${FILTER:+"$FILTER"} "${@:3}"

echo "wrote $OUT (nproc=$NPROC, $COMPILER, -march=$MARCH)"
