//===- bench_gemm.cpp - GEMM kernel throughput per layout -----------------===//
//
// GFLOP/s and time per call of the raw gemmAcc entry points (no
// autograd, no tensors), each running the one path nn/Gemm.cpp picks for
// its layout and shape. Arguments are M/N/K.
//
// The first rows are shapes PPO training runs: 32x48x48 for all three
// layouts (the 48-wide laptop nets), NN and NT at 32x512x512 and TN at
// 512x512x32 (the paper's 512-wide nets). NN keeps its square sizes for
// both dtypes, which sit on both sides of the autoPackNN shape test
// (f64 packs from 256^3, f32 from 512^3).
// Tracked through scripts/bench_json.sh --gemm (BENCH_gemm.json).
//
//===----------------------------------------------------------------------===//

#include "nn/Gemm.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

template <typename T> std::vector<T> randomData(Rng &R, size_t N) {
  std::vector<T> V(N);
  for (T &X : V)
    X = static_cast<T>(R.nextDouble(-1.0, 1.0));
  return V;
}

/// Times Gemm(M, N, K, A, B, C) over dense row-major operands with M/N/K
/// from the benchmark arguments; A holds M*K elements, B K*N, C M*N.
template <typename T, typename Entry>
void runGemm(benchmark::State &State, Entry Gemm) {
  const unsigned M = static_cast<unsigned>(State.range(0));
  const unsigned N = static_cast<unsigned>(State.range(1));
  const unsigned K = static_cast<unsigned>(State.range(2));
  Rng R(5);
  std::vector<T> A = randomData<T>(R, static_cast<size_t>(M) * K);
  std::vector<T> B = randomData<T>(R, static_cast<size_t>(K) * N);
  std::vector<T> C(static_cast<size_t>(M) * N, T(0));
  for (auto _ : State) {
    Gemm(M, N, K, A.data(), B.data(), C.data());
    benchmark::DoNotOptimize(C.data());
    benchmark::ClobberMemory();
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * M * N * K * static_cast<double>(State.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

template <typename T> void BM_GemmNN(benchmark::State &State) {
  runGemm<T>(State, [](unsigned M, unsigned N, unsigned K, const T *A,
                       const T *B, T *C) {
    gemmAccNN(M, N, K, A, K, B, N, C, N);
  });
}

// B is stored NxK.
void BM_GemmNT(benchmark::State &State) {
  runGemm<double>(State, [](unsigned M, unsigned N, unsigned K,
                            const double *A, const double *B, double *C) {
    gemmAccNT(M, N, K, A, K, B, K, C, N);
  });
}

// A is stored KxM.
void BM_GemmTN(benchmark::State &State) {
  runGemm<double>(State, [](unsigned M, unsigned N, unsigned K,
                            const double *A, const double *B, double *C) {
    gemmAccTN(M, N, K, A, M, B, N, C, N);
  });
}

void BM_GemmNNF64(benchmark::State &State) { BM_GemmNN<double>(State); }
void BM_GemmNNF32(benchmark::State &State) { BM_GemmNN<float>(State); }

} // namespace

#define GEMM_SQUARE_SIZES                                                      \
  Args({64, 64, 64})                                                           \
      ->Args({128, 128, 128})                                                  \
      ->Args({256, 256, 256})                                                  \
      ->Args({512, 512, 512})                                                  \
      ->Args({1024, 1024, 1024})

BENCHMARK(BM_GemmNNF64)
    ->ArgNames({"M", "N", "K"})
    ->Args({32, 48, 48})
    ->Args({32, 512, 512})
    ->GEMM_SQUARE_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmNNF32)
    ->ArgNames({"M", "N", "K"})
    ->GEMM_SQUARE_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmNT)
    ->ArgNames({"M", "N", "K"})
    ->Args({32, 48, 48})
    ->Args({32, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmTN)
    ->ArgNames({"M", "N", "K"})
    ->Args({32, 48, 48})
    ->Args({512, 512, 32})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
