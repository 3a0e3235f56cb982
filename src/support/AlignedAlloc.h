//===- AlignedAlloc.h - Over-aligned STL allocator ---------------*- C++-*-===//
///
/// \file
/// A minimal std::allocator replacement with a compile-time alignment
/// guarantee, so hot numeric buffers (tensor data and gradients, the
/// forward's matrices) start on SIMD-friendly boundaries. The GEMM
/// kernels tolerate unaligned operands -- sub-matrix views and odd
/// leading dimensions are legal -- but aligned bases let full-buffer
/// elementwise sweeps and packed panels use aligned vector moves.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_SUPPORT_ALIGNEDALLOC_H
#define MLIRRL_SUPPORT_ALIGNEDALLOC_H

#include <cstddef>
#include <new>

namespace mlirrl {

/// The alignment every tensor/matrix buffer in this codebase uses: one
/// full cache line, which also covers the widest vector unit in play
/// (64-byte AVX-512 zmm loads).
inline constexpr std::size_t BufferAlignment = 64;

/// A reusable, growable scratch block at BufferAlignment: the arena the
/// GEMM pack buffers draw from (one arena per pool thread, held
/// thread_local by the owner). get() hands back the same allocation as
/// long as it is large enough, so a steady-state caller -- a training
/// loop issuing thousands of GEMMs -- performs zero per-call
/// allocations after warmup; the owner is expected to surface the
/// reuse/grow split through CacheStatsRegistry (hits = reuses,
/// misses = fresh allocations), which is what lets GemmTest assert
/// the steady state actually holds.
class AlignedArena {
public:
  AlignedArena() = default;
  ~AlignedArena() { release(); }
  AlignedArena(const AlignedArena &) = delete;
  AlignedArena &operator=(const AlignedArena &) = delete;

  /// Returns a BufferAlignment-aligned block of at least \p Bytes,
  /// reusing the current allocation when it is large enough. \p Grew
  /// (when non-null) reports whether a fresh allocation happened. The
  /// block's contents are unspecified either way -- this is scratch.
  void *get(std::size_t Bytes, bool *Grew = nullptr) {
    const bool NeedsAlloc = Bytes > Cap;
    if (NeedsAlloc) {
      release();
      Ptr = ::operator new(Bytes, std::align_val_t(BufferAlignment));
      Cap = Bytes;
    }
    if (Grew)
      *Grew = NeedsAlloc;
    return Ptr;
  }

  /// Bytes currently held (0 until the first get()).
  std::size_t capacity() const { return Cap; }

  /// Frees the held block (get() after this re-allocates).
  void release() {
    if (Ptr)
      ::operator delete(Ptr, std::align_val_t(BufferAlignment));
    Ptr = nullptr;
    Cap = 0;
  }

private:
  void *Ptr = nullptr;
  std::size_t Cap = 0;
};

template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two no smaller than alignof(T)");

  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) {}

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T *P, std::size_t) noexcept {
    ::operator delete(P, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }
};

} // namespace mlirrl

#endif // MLIRRL_SUPPORT_ALIGNEDALLOC_H
