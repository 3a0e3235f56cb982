//===- Gemm.cpp -----------------------------------------------------------===//

#include "nn/Gemm.h"

#include "nn/GemmKernel.h"
#include "support/AlignedAlloc.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// The pool minibatch-update GEMMs fan out over (see setGemmPool).
std::atomic<ThreadPool *> GemmPool{nullptr};

/// Each thread that ever runs a packed GEMM -- the caller for serial
/// calls, every pool worker for partitioned ones -- owns one arena that
/// persists across calls, so steady-state packing allocates nothing.
AlignedArena &packArena() {
  thread_local AlignedArena Arena;
  return Arena;
}

/// Pack scratch for Elems elements of T from the calling thread's
/// arena, accounted in the "gemm.pack_arena" registry category: a
/// reuse of the existing block is a hit, a (re)allocation a miss.
/// GemmTest asserts the steady state is all hits.
template <typename T> T *packScratch(size_t Elems) {
  // named() registers on first use and returns a stable reference.
  static HitMissCounters &Counters =
      CacheStatsRegistry::instance().named("gemm.pack_arena");
  bool Grew = false;
  void *P = packArena().get(Elems * sizeof(T), &Grew);
  if (Grew)
    Counters.recordMiss();
  else
    Counters.recordHit();
  return static_cast<T *>(P);
}

/// NN's one run-time kernel choice: pack once the B panel footprint
/// outgrows L2-ish residency. Below that the streaming kernel is faster
/// (the policy-size products of the laptop nets); above it packing wins
/// (the paper's 512-wide nets). Packed and streaming results are
/// bitwise-identical, so the threshold only needs to be roughly right.
template <typename T> bool autoPackNN(unsigned M, unsigned N, unsigned K) {
  return M >= detail::MR &&
         static_cast<double>(K) * N * sizeof(T) >= 512.0 * 1024.0;
}

/// Row-partitioning threshold: below this many multiply-adds the
/// parallelFor hand-off costs more than it saves.
constexpr double MinParallelWork = 64.0 * 1024.0;

/// Runs Fn(Row0, Rows) over contiguous row chunks of [0, M) on the
/// installed pool, or serially as one chunk when there is no pool or
/// the product is too small to split. Each output row is written by
/// exactly one thread and every element keeps its serial accumulation
/// order, so the result is bitwise-independent of the chunking.
template <typename RowSlice>
void forRowChunks(unsigned M, unsigned N, unsigned K, const RowSlice &Fn) {
  ThreadPool *Pool = GemmPool.load(std::memory_order_acquire);
  if (!Pool || Pool->size() <= 1 || M < 8 ||
      static_cast<double>(M) * N * K < MinParallelWork) {
    Fn(0u, M);
    return;
  }
  unsigned Chunks = std::min(Pool->size(), (M + 3) / 4);
  unsigned Rows = (M + Chunks - 1) / Chunks;
  // Round chunk sizes up to full MR register tiles so every chunk but
  // the last drives the micro-kernels tail-free (the packed drivers
  // start each chunk at row 0 of their slice). The chunk count stays a
  // pure function of (M, pool size) -- a fixed block -> thread
  // assignment -- and any row partition is bitwise-safe, so this is
  // speed-only.
  Rows = (Rows + detail::MR - 1) / detail::MR * detail::MR;
  Pool->parallelFor(Chunks, [&](size_t C) {
    unsigned Row0 = static_cast<unsigned>(C) * Rows;
    if (Row0 < M)
      Fn(Row0, std::min(Rows, M - Row0));
  });
}

/// Debug guard at the public entry points: operand base pointers must
/// exist and be element-aligned. Sub-matrix views (e.g. the per-gate
/// W + F*N slices linearSplitSparse passes) land at arbitrary element
/// offsets, so element alignment is the strongest invariant holding
/// here; the 64-byte alignment of whole tensor buffers is asserted
/// where it is guaranteed, in the Tensor arena.
template <typename T>
inline void assertOperands(unsigned M, unsigned N, unsigned K, const T *A,
                           const T *B, const T *C) {
#ifndef NDEBUG
  if (M == 0 || N == 0 || K == 0)
    return;
  assert(A && B && C && "GEMM operand is null");
  assert(reinterpret_cast<uintptr_t>(A) % alignof(T) == 0 &&
         reinterpret_cast<uintptr_t>(B) % alignof(T) == 0 &&
         reinterpret_cast<uintptr_t>(C) % alignof(T) == 0 &&
         "GEMM operand is not element-aligned");
#else
  (void)M;
  (void)N;
  (void)K;
  (void)A;
  (void)B;
  (void)C;
#endif
}

template <typename T>
void gemmAccNNImpl(unsigned M, unsigned N, unsigned K, const T *A,
                   unsigned LdA, const T *B, unsigned LdB, T *C,
                   unsigned LdC) {
  assertOperands(M, N, K, A, B, C);
  const bool Packed = autoPackNN<T>(M, N, K);
  forRowChunks(M, N, K, [&](unsigned Row0, unsigned Rows) {
    const T *Ar = A + static_cast<size_t>(Row0) * LdA;
    T *Cr = C + static_cast<size_t>(Row0) * LdC;
    if (!Packed) {
      detail::gemmNNSerial<T>(Rows, N, K, Ar, LdA, B, LdB, Cr, LdC);
      return;
    }
    // Each row chunk packs into its own thread's arena (pool workers
    // included), trading duplicated B-panel copies for zero sharing --
    // the fixed row partition alone determines who computes what.
    T *Scratch = packScratch<T>(detail::PackScratchElems);
    detail::gemmNNPackedSerial<T>(Rows, N, K, Ar, LdA, B, LdB, Cr, LdC,
                                  Scratch + detail::PackScratchAOffset,
                                  Scratch);
  });
}

} // namespace

void nn::setGemmPool(ThreadPool *Pool) {
  GemmPool.store(Pool, std::memory_order_release);
}

ThreadPool *nn::getGemmPool() {
  return GemmPool.load(std::memory_order_acquire);
}

size_t nn::gemmPackScratchCapacity() { return packArena().capacity(); }

void nn::gemmAccNN(unsigned M, unsigned N, unsigned K, const double *A,
                   unsigned LdA, const double *B, unsigned LdB, double *C,
                   unsigned LdC) {
  gemmAccNNImpl<double>(M, N, K, A, LdA, B, LdB, C, LdC);
}

void nn::gemmAccNN(unsigned M, unsigned N, unsigned K, const float *A,
                   unsigned LdA, const float *B, unsigned LdB, float *C,
                   unsigned LdC) {
  gemmAccNNImpl<float>(M, N, K, A, LdA, B, LdB, C, LdC);
}

// NT always runs the transpose-packed SIMD kernel. A streaming NT
// kernel is a latency-bound scalar dot per element; the transpose copy
// pays for itself at the shapes training runs and costs nothing
// measurable at M = 1 (PERF.md, "One GEMM path per layout").
void nn::gemmAccNT(unsigned M, unsigned N, unsigned K, const double *A,
                   unsigned LdA, const double *B, unsigned LdB, double *C,
                   unsigned LdC) {
  assertOperands(M, N, K, A, B, C);
  // An empty product touches neither C nor the pack arena.
  if (M == 0 || N == 0 || K == 0)
    return;
  forRowChunks(M, N, K, [&](unsigned Row0, unsigned Rows) {
    double *Scratch = packScratch<double>(detail::PackScratchElems);
    detail::gemmNTPackedSerial<double>(
        Rows, N, K, A + static_cast<size_t>(Row0) * LdA, LdA, B, LdB,
        C + static_cast<size_t>(Row0) * LdC, LdC,
        Scratch + detail::PackScratchAOffset, Scratch);
  });
}

// TN always runs the streaming rank-1-update kernel: its inner loop is
// already unit-stride over j, and a transpose-packed TN kernel measured
// no faster at the shapes training runs.
void nn::gemmAccTN(unsigned M, unsigned N, unsigned K, const double *A,
                   unsigned LdA, const double *B, unsigned LdB, double *C,
                   unsigned LdC) {
  assertOperands(M, N, K, A, B, C);
  // Output rows index the columns of A (stored KxM), so a row slice
  // offsets A by columns and C by rows; LdA/LdB are unchanged.
  forRowChunks(M, N, K, [&](unsigned Row0, unsigned Rows) {
    detail::gemmTNSerial<double>(Rows, N, K, A + Row0, LdA, B, LdB,
                                 C + static_cast<size_t>(Row0) * LdC, LdC);
  });
}
