#!/usr/bin/env bash
# Tier-1 verification: lint, configure, build, run the test suite, smoke
# the examples and the benchmark, and guard against build artifacts ever
# being committed again (PR 1 accidentally committed the CMake cache and
# object files).
#
#   scripts/ci.sh                    # the regular tier-1 gate
#   scripts/ci.sh --sanitize=address # + ASan/UBSan tree in build-san/
#                                    #   (full suite, fuzz, smokes)
#   scripts/ci.sh --sanitize=thread  # + TSan tree in build-tsan/
#                                    #   (concurrency-heavy subset + race
#                                    #   stress, bounded runtime)
#   scripts/ci.sh --sanitize        # alias for --sanitize=address
set -euo pipefail

cd "$(dirname "$0")/.."

sanitize=""
case "${1:-}" in
  --sanitize|--sanitize=address)
    sanitize=address
    shift
    ;;
  --sanitize=thread)
    sanitize=thread
    shift
    ;;
  --sanitize=*)
    echo "error: unknown sanitize mode '${1#--sanitize=}'" \
         "(address or thread)" >&2
    exit 2
    ;;
esac

# --- Repo-invariant lint (always, before any build) -----------------------
# Pure-Python source checks (tools/lint/lint.py): raw numeric parses,
# fatal errors in recoverable paths, unordered containers in
# determinism-critical dirs, naked mutex locks, raw RNG, duplicate
# cache-counter categories. Self-test first so a broken linter can
# never silently pass the tree.
python3 tools/lint/lint.py --self-test
python3 tools/lint/lint.py

# --- Guard: no build artifacts in the index -------------------------------
if git ls-files | grep -E '^build/|\.o$' >/dev/null; then
  echo "error: build artifacts are tracked by git:" >&2
  git ls-files | grep -E '^build/|\.o$' | head >&2
  echo "(add them to .gitignore and 'git rm --cached' them)" >&2
  exit 1
fi

# --- Tier-1 verify --------------------------------------------------------
cmake -B build -S .
cmake --build build -j "$(nproc)"

# --- Static analysis (best-effort) ----------------------------------------
# The curated .clang-tidy check set over the library sources, replaying
# the exact compile lines from the exported compile_commands.json.
# Skipped with a notice when clang-tidy is not installed (the container
# ships only GCC); the repo linter above always runs.
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t tidy_sources < <(git ls-files 'src/*.cpp')
  clang-tidy -p build --quiet "${tidy_sources[@]}"
else
  echo "note: clang-tidy not installed; skipping static-analysis pass"
fi

# --- Test-suite run + temp-dir hygiene guard ------------------------------
# Checkpoint/serialization tests create scratch files; they must stay
# under build/ (the ctest working directory). Snapshot the working tree
# before the suite and fail if anything outside build/ changed -- a
# leaked temp file would otherwise dirty every contributor checkout
# silently. --ignored=matching keeps gitignored leaks visible too
# (*.ckpt and quickstart-ckpt/ are ignored precisely because they are
# expected OUTSIDE the repo tree; build/ and bench JSON are the only
# sanctioned ignored outputs).
snapshot_tree() {
  git status --porcelain --ignored=matching | grep -vE '^!! (build|build-san|build-tsan)/|^!! BENCH_' || true
}
tree_before=$(snapshot_tree)
(cd build && ctest --output-on-failure --repeat until-pass:1 -j "$(nproc)")
tree_after=$(snapshot_tree)
if [[ "$tree_before" != "$tree_after" ]]; then
  echo "error: the test suite wrote outside build/:" >&2
  diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") >&2 || true
  exit 1
fi

# --- Incremental fast-path smoke check ------------------------------------
# One repetition of Immediate-reward episodes through the default
# (incremental) environment path: asserts the per-nest op memo hit rate
# is > 0 and that incremental stepping actually ran (nests materialized
# << ops x steps), so the ScheduleState path cannot silently regress to
# the from-scratch fallback. Also cross-checks the incremental price
# against the from-scratch oracle bitwise.
./build/example_perf_smoke

# --- Fuzz smoke -----------------------------------------------------------
# The deterministic fuzz engine at CI scale: 10k seed-derived parser
# inputs through the import gate plus 200 random-action episodes, zero
# tolerated violations. Each input is persisted to
# tests/fuzz/corpus/.inflight.mlir before it runs; a hard crash leaves
# it behind, and we promote it to a checked-in crash case so the next
# FuzzTest.CorpusReplays run covers it forever.
fuzz_corpus=tests/fuzz/corpus
if ! ./build/example_fuzz_smoke --inputs 10000 --episodes 200 \
      --corpus "$fuzz_corpus"; then
  if [[ -f "$fuzz_corpus/.inflight.mlir" ]]; then
    crash="$fuzz_corpus/crash-$(date +%Y%m%d%H%M%S).mlir"
    mv "$fuzz_corpus/.inflight.mlir" "$crash"
    echo "error: fuzz smoke died; offending input saved to $crash" >&2
  fi
  exit 1
fi

# --- Serving smoke --------------------------------------------------------
# The schedule server end to end: train one tiny iteration, freeze it
# to a checkpoint, load it into a ScheduleServer, and serve a request
# mix covering every guarded edge -- well-formed modules, a malformed
# module (import-gate rejection), concurrent clients (answers must be
# bitwise-identical to sequential serving), and an over-capacity burst
# (clean immediate rejection, never a hang). Scratch checkpoint lives
# under build/ and is removed on exit.
./build/example_serve_smoke --requests 8 --ckpt build/serve_smoke.ckpt

# --- Benchmark smoke ------------------------------------------------------
# ctest never compiles perfbench/, so a src/ API change that breaks the
# benchmark's build would pass the suite. Build it in its own tree under
# build/ (its own CMake cache) and run every workload for one traced
# second. Each result line must read "correct": true; for train_ops that
# includes its public-call replay reproducing trainIteration's losses
# bitwise.
for workload in train_ops serve_repeat env_fresh; do
  result=$(CARGO_TARGET_DIR=build/perfbench-ci python3 perfbench/run.py \
             --workload "$workload" --seed 1 --seconds 1 --trace 1 |
           tail -n 1) || true
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "error: perfbench $workload smoke failed: $result" >&2
    exit 1
  fi
done

# --- ASan/UBSan pass (opt-in: --sanitize[=address]) -----------------------
# A second tree under ASan+UBSan: the whole test suite plus a reduced
# fuzz campaign, halt-on-error. Kept out of the default gate because the
# instrumented build roughly doubles CI time. GemmTest in the suite runs
# the SIMD micro-kernels and the packed cross-checks here, which makes
# ASan the pack-arena leak and panel-overrun gate.
if [[ "$sanitize" == address ]]; then
  cmake -B build-san -S . -DMLIRRL_SANITIZE="address;undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-san -j "$(nproc)"
  (cd build-san &&
     ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
     ctest --output-on-failure -j "$(nproc)")
  ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-san/example_fuzz_smoke --inputs 2000 --episodes 50 \
    --corpus "$fuzz_corpus"
  # The incremental fast-path checks under the sanitized build as well.
  ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-san/example_perf_smoke
  # The serving path under the sanitizers (reduced request count): the
  # worker thread, promise/future handoff, and checkpoint reload are
  # the lifetime-heavy code in this tree.
  ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-san/example_serve_smoke --requests 4 \
    --ckpt build-san/serve_smoke.ckpt
fi

# --- TSan pass (opt-in: --sanitize=thread) --------------------------------
# A third tree under ThreadSanitizer, restricted to the
# concurrency-heavy subset: the striped-memo tests, the full serving
# suite (including the reload and three-way race hammers), the
# determinism matrix (thread-count sweeps), GemmTest (row-partitioned
# GEMMs over pools of 2 and 4, with thread_local pack arenas feeding the
# shared "gemm.pack_arena" counters), and the dedicated TSan stress
# test. halt_on_error=1 turns the first report into a failure;
# there is no suppression file -- the repo's benign sharing is already
# expressed as relaxed atomics, so every report is treated as a real
# bug. TSan costs roughly an order of magnitude at runtime, which is
# why this is a subset (the tests themselves also shrink iteration
# counts via support/TsanAnnotations.h) and why the whole pass runs
# under one ctest timeout per test instead of an open-ended suite.
if [[ "$sanitize" == thread ]]; then
  cmake -B build-tsan -S . -DMLIRRL_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc)"
  tsan_subset='support/TsanStressTest|support/StatsTest|perf/StripedLruTest|serve/ServeTest|serve/ServeReloadTest|serve/ServeRaceTest|rl/DeterminismMatrixTest|rl/ParallelDeterminismTest|nn/GemmTest'
  (cd build-tsan &&
     TSAN_OPTIONS=halt_on_error=1 \
     ctest --output-on-failure --timeout 900 -j "$(nproc)" \
           -R "$tsan_subset")
  # The server worker pool end to end, in reduced form.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/example_serve_smoke --requests 4 \
    --ckpt build-tsan/serve_smoke.ckpt
fi
