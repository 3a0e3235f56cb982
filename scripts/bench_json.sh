#!/usr/bin/env bash
# Records the google-benchmark rows perfbench cannot measure, as JSON
# with the host's nproc, compiler and -march in the "context" object.
# perfbench (python3 perfbench/run.py) is the benchmark of record for
# training, serving and env-step time; this script covers the rest.
#
# Usage: scripts/bench_json.sh [--threads|--gemm] [build-dir] [output.json]
#
#   --threads   (also what a bare call runs) the CollectThreads /
#               UpdateThreads train-iteration sweeps from
#               bench_trainstep (default output BENCH_threads.json).
#               Run it on a multi-core host -- on a 1-core box it
#               records pool overhead, which is still worth pinning.
#   --gemm      raw GEMM GFLOP/s from bench_gemm: each layout's one
#               path at the training shapes, plus NN square sizes for
#               both dtypes (default output BENCH_gemm.json).
#               Single-core numbers; the artifact records the compiler
#               and -march the kernels were built with, since the SIMD
#               micro-kernels' throughput is a property of both.
#
# Thread sweeps wider than the host's core count are skipped: a 1-core
# box "benchmarking" 8 collector threads measures pool overhead and
# scheduler noise, not scaling, and silently recording those numbers as
# the perf trajectory misleads the next PR. The emitted JSON records
# the host's nproc so a reader can tell which sweeps an artifact could
# have run.
set -euo pipefail

NPROC=$(nproc)

# The benchmarks' thread sweep points, pruned to the host.
threads_regex() {
  local allowed=""
  for t in 1 2 4 8; do
    if [[ "$t" -le "$NPROC" ]]; then
      allowed+="${allowed:+|}$t"
    fi
  done
  echo "($allowed)"
}

BIN_NAME=bench_trainstep
FILTER="--benchmark_filter=(CollectThreads|UpdateThreads)/$(threads_regex)\$"
DEFAULT_OUT=BENCH_threads.json
case "${1:-}" in
  --threads)
    shift
    ;;
  --gemm)
    shift
    BIN_NAME=bench_gemm
    FILTER=""
    DEFAULT_OUT=BENCH_gemm.json
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
# ISA flags, but the training sweeps ride the same packed/SIMD kernels,
# so every artifact carries the keys: comparing artifacts that
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
