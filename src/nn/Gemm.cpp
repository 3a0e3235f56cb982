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

/// The kernel dispatch override (see setGemmKernel).
std::atomic<GemmKernel> KernelKind{GemmKernel::Auto};

/// The packing dispatch override (see setGemmPacking).
std::atomic<GemmPacking> PackingMode{GemmPacking::Auto};

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
/// perf_smoke/CI assert the steady state is all hits.
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

/// Resolves the packing dispatch for one call; AutoWants is the
/// per-shape heuristic. Like simdActive(), resolved once per public
/// entry so one call never mixes paths across its row chunks.
bool packingActive(bool AutoWants) {
  switch (PackingMode.load(std::memory_order_acquire)) {
  case GemmPacking::On:
    return true;
  case GemmPacking::Off:
    return false;
  case GemmPacking::Auto:
    break;
  }
  return AutoWants;
}

/// Auto-packing heuristics. Pure speed decisions -- packed and unpacked
/// results are bitwise-identical -- so the thresholds only need to be
/// roughly right. NN packs once the B panel footprint outgrows L2-ish
/// residency (streaming B unpacked is fine below that; the tiny
/// policy-net GEMMs stay on the streaming path). NT packs aggressively:
/// its unpacked kernel is latency-bound at ~2 GFLOP/s, so the transpose
/// copy pays for itself on anything but trivial shapes. TN's unpacked
/// kernel is already unit-stride over j; packing buys contiguous A
/// groups and register-resident C rows, which needs a reasonably wide N
/// and enough k-sweep to matter.
template <typename T> bool autoPackNN(unsigned M, unsigned N, unsigned K) {
  return M >= detail::MR &&
         static_cast<double>(K) * N * sizeof(T) >= 512.0 * 1024.0;
}
template <typename T> bool autoPackNT(unsigned M, unsigned N, unsigned K) {
  return M >= 8 && static_cast<double>(N) * K >= 16.0 * 1024.0;
}
template <typename T> bool autoPackTN(unsigned M, unsigned N, unsigned K) {
  return N >= 16 && static_cast<double>(M) * K * sizeof(T) >= 256.0 * 1024.0;
}

/// Resolves the dispatch to "run the SIMD micro-kernel?" once per
/// public entry, so one gemmAcc call never mixes kernels across its
/// row chunks.
bool simdActive() {
#if MLIRRL_GEMM_HAVE_SIMD
  return KernelKind.load(std::memory_order_acquire) != GemmKernel::Scalar;
#else
  return false;
#endif
}

/// Row-partitioning threshold: below this many multiply-adds the
/// parallelFor hand-off costs more than it saves.
constexpr double MinParallelWork = 64.0 * 1024.0;

/// Runs Fn(Row0, Rows) over contiguous row chunks of [0, M) on the
/// installed pool, or serially as one chunk. Each output row is written
/// by exactly one thread and every element keeps its serial
/// accumulation order, so the result is bitwise-independent of the
/// chunking.
template <typename RowSlice>
bool parallelOverRows(unsigned M, double Work, const RowSlice &Fn) {
  ThreadPool *Pool = GemmPool.load(std::memory_order_acquire);
  if (!Pool || Pool->size() <= 1 || Work < MinParallelWork || M < 8)
    return false;
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
  return true;
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
  const bool Simd = simdActive();
  const double Work = static_cast<double>(M) * N * K;
  if (M && N && K && packingActive(autoPackNN<T>(M, N, K))) {
    // Each row chunk packs into its own thread's arena (pool workers
    // included), trading duplicated B-panel copies for zero sharing --
    // the fixed row partition alone determines who computes what.
    auto RunRows = [&](unsigned Row0, unsigned Rows) {
      T *Scratch = packScratch<T>(detail::PackScratchElems);
      T *Bp = Scratch;
      T *Ap = Scratch + detail::PackScratchAOffset;
      detail::gemmNNPackedSerial<T>(Rows, N, K,
                                    A + static_cast<size_t>(Row0) * LdA, LdA, B,
                                    LdB, C + static_cast<size_t>(Row0) * LdC,
                                    LdC, Simd, Ap, Bp);
    };
    if (!parallelOverRows(M, Work, RunRows))
      RunRows(0, M);
    return;
  }
  bool Ran = parallelOverRows(M, Work, [&](unsigned Row0, unsigned Rows) {
    detail::gemmNNSerial<T>(Rows, N, K, A + static_cast<size_t>(Row0) * LdA,
                            LdA, B, LdB, C + static_cast<size_t>(Row0) * LdC,
                            LdC, Simd);
  });
  if (!Ran)
    detail::gemmNNSerial<T>(M, N, K, A, LdA, B, LdB, C, LdC, Simd);
}

template <typename T>
void gemmAccNTImpl(unsigned M, unsigned N, unsigned K, const T *A,
                   unsigned LdA, const T *B, unsigned LdB, T *C,
                   unsigned LdC) {
  assertOperands(M, N, K, A, B, C);
  const double Work = static_cast<double>(M) * N * K;
  if (M && N && K && packingActive(autoPackNT<T>(M, N, K))) {
    const bool Simd = simdActive();
    auto RunRows = [&](unsigned Row0, unsigned Rows) {
      T *Scratch = packScratch<T>(detail::PackScratchElems);
      T *Bp = Scratch;
      T *Ap = Scratch + detail::PackScratchAOffset;
      detail::gemmNTPackedSerial<T>(Rows, N, K,
                                    A + static_cast<size_t>(Row0) * LdA, LdA, B,
                                    LdB, C + static_cast<size_t>(Row0) * LdC,
                                    LdC, Simd, Ap, Bp);
    };
    if (!parallelOverRows(M, Work, RunRows))
      RunRows(0, M);
    return;
  }
  bool Ran = parallelOverRows(M, Work, [&](unsigned Row0, unsigned Rows) {
    detail::gemmNTSerial<T>(Rows, N, K, A + static_cast<size_t>(Row0) * LdA,
                            LdA, B, LdB, C + static_cast<size_t>(Row0) * LdC,
                            LdC);
  });
  if (!Ran)
    detail::gemmNTSerial<T>(M, N, K, A, LdA, B, LdB, C, LdC);
}

template <typename T>
void gemmAccTNImpl(unsigned M, unsigned N, unsigned K, const T *A,
                   unsigned LdA, const T *B, unsigned LdB, T *C,
                   unsigned LdC) {
  assertOperands(M, N, K, A, B, C);
  // Output rows index the columns of A (stored KxM), so a row slice
  // offsets A by columns and C by rows; LdA/LdB are unchanged.
  const double Work = static_cast<double>(M) * N * K;
  if (M && N && K && packingActive(autoPackTN<T>(M, N, K))) {
    const bool Simd = simdActive();
    auto RunRows = [&](unsigned Row0, unsigned Rows) {
      T *Scratch = packScratch<T>(detail::PackScratchElems);
      T *Bp = Scratch;
      T *Ap = Scratch + detail::PackScratchAOffset;
      detail::gemmTNPackedSerial<T>(Rows, N, K, A + Row0, LdA, B, LdB,
                                    C + static_cast<size_t>(Row0) * LdC, LdC,
                                    Simd, Ap, Bp);
    };
    if (!parallelOverRows(M, Work, RunRows))
      RunRows(0, M);
    return;
  }
  bool Ran = parallelOverRows(M, Work, [&](unsigned Row0, unsigned Rows) {
    detail::gemmTNSerial<T>(Rows, N, K, A + Row0, LdA, B, LdB,
                            C + static_cast<size_t>(Row0) * LdC, LdC);
  });
  if (!Ran)
    detail::gemmTNSerial<T>(M, N, K, A, LdA, B, LdB, C, LdC);
}

} // namespace

void nn::setGemmPool(ThreadPool *Pool) {
  GemmPool.store(Pool, std::memory_order_release);
}

ThreadPool *nn::getGemmPool() {
  return GemmPool.load(std::memory_order_acquire);
}

void nn::setGemmKernel(GemmKernel Kind) {
  KernelKind.store(Kind, std::memory_order_release);
}

GemmKernel nn::getGemmKernel() {
  return KernelKind.load(std::memory_order_acquire);
}

void nn::setGemmPacking(GemmPacking Mode) {
  PackingMode.store(Mode, std::memory_order_release);
}

GemmPacking nn::getGemmPacking() {
  return PackingMode.load(std::memory_order_acquire);
}

size_t nn::gemmPackScratchCapacity() { return packArena().capacity(); }

bool nn::gemmSimdAvailable() { return MLIRRL_GEMM_HAVE_SIMD != 0; }

unsigned nn::gemmSimdLanes(size_t ElemSize) {
#if MLIRRL_GEMM_HAVE_SIMD
  switch (ElemSize) {
  case sizeof(float):
    return detail::SimdTraits<float>::Lanes;
  case sizeof(double):
    return detail::SimdTraits<double>::Lanes;
  default:
    return 1;
  }
#else
  (void)ElemSize;
  return 1;
#endif
}

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

void nn::gemmAccNT(unsigned M, unsigned N, unsigned K, const double *A,
                   unsigned LdA, const double *B, unsigned LdB, double *C,
                   unsigned LdC) {
  gemmAccNTImpl<double>(M, N, K, A, LdA, B, LdB, C, LdC);
}

void nn::gemmAccNT(unsigned M, unsigned N, unsigned K, const float *A,
                   unsigned LdA, const float *B, unsigned LdB, float *C,
                   unsigned LdC) {
  gemmAccNTImpl<float>(M, N, K, A, LdA, B, LdB, C, LdC);
}

void nn::gemmAccTN(unsigned M, unsigned N, unsigned K, const double *A,
                   unsigned LdA, const double *B, unsigned LdB, double *C,
                   unsigned LdC) {
  gemmAccTNImpl<double>(M, N, K, A, LdA, B, LdB, C, LdC);
}

void nn::gemmAccTN(unsigned M, unsigned N, unsigned K, const float *A,
                   unsigned LdA, const float *B, unsigned LdB, float *C,
                   unsigned LdC) {
  gemmAccTNImpl<float>(M, N, K, A, LdA, B, LdB, C, LdC);
}
