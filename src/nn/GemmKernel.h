//===- GemmKernel.h - Dtype-generic blocked GEMM kernels ---------*- C++-*-===//
///
/// \file
/// The dtype-generic kernel layer under nn/Gemm.h: cache-blocked,
/// register-tiled accumulate kernels templated on the element type,
/// instantiated for double (training; bitwise-stable) and float (the
/// float instantiation of the graph-free forward, nn/Inference.h).
///
/// The NN (C += A.B) and packed NT (C += A.B^T) products run explicitly
/// SIMD micro-kernels built on GNU vector extensions (32-byte generic
/// vectors, lowered by the compiler to whatever the target has: AVX2,
/// SSE2, NEON, or scalar code). They widen only the *j* axis, where
/// lanes are independent accumulator chains, so every C element keeps
/// the ascending-k sequence of the portable scalar micro-kernels below;
/// those run the sub-vector j tails, and GemmTest's 0-ULP references
/// are built from them. The TN (C += A^T.B) product is a streaming
/// rank-1-update kernel whose inner loop is an elementwise update the
/// autovectorizer already handles.
///
/// NN has two drivers. gemmNNSerial streams the caller's operands;
/// gemmNNPackedSerial (GotoBLAS/BLIS structure) copies each KC x NC
/// panel of B and MC x KC panel of A into dense 64-byte-aligned scratch
/// once per cache block and runs the same micro-kernels over the packed
/// panels. Packing is a pure layout transform, so the two are
/// bitwise-identical -- GemmTest memcmps them -- and nn/Gemm.cpp picks
/// one per call shape. NT has only the packed driver: it transposes B
/// during the copy so the k-reduction walks contiguous memory.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_GEMMKERNEL_H
#define MLIRRL_NN_GEMMKERNEL_H

#include <algorithm>
#include <cstddef>

namespace mlirrl {
namespace nn {
namespace detail {

/// Cache-blocking parameters, in elements: a KC x NC panel of B stays
/// cache-resident while MC rows of A stream against it; the MR-row
/// register tile amortizes each B load over MR accumulator rows. The
/// element counts are shared by both dtypes (the float panels are half
/// the bytes, which only helps).
constexpr unsigned MC = 64;
constexpr unsigned KC = 256;
constexpr unsigned NC = 512;
constexpr unsigned MR = 4;

/// Generic SIMD vector of T: 32 bytes wide (4 doubles / 8 floats).
/// 32 beats 64 measurably on AVX-512 hardware here (GCC's 64-byte
/// lowering plus zmm frequency effects); on narrower ISAs the compiler
/// splits the vector, which costs nothing. The alignment override makes
/// loads/stores through casted pointers legal at element alignment (the
/// compiler emits unaligned moves); rows at arbitrary leading
/// dimensions are never vector-aligned.
template <typename T> struct SimdTraits {
  static constexpr unsigned Bytes = 32;
  static constexpr unsigned Lanes = Bytes / sizeof(T);
  typedef T Vec __attribute__((vector_size(Bytes), aligned(alignof(T))));
};

/// Portable scalar micro-kernel for C += A.B: C rows [i0, i0+Rows) x
/// [j0, j1) accumulate the K-panel [k0, k1). Rows <= MR; the j loop is
/// the (auto-)vectorized axis and each B row loaded from the panel
/// feeds Rows accumulator rows. It runs microNNSimd's sub-vector j
/// tails.
template <typename T>
inline void microNNScalar(unsigned Rows, unsigned j0, unsigned j1, unsigned k0,
                          unsigned k1, const T *__restrict A, unsigned LdA,
                          const T *__restrict B, unsigned LdB, T *__restrict C,
                          unsigned LdC, unsigned i0) {
  switch (Rows) {
  case 4:
    for (unsigned K = k0; K < k1; ++K) {
      const T A0 = A[(i0 + 0) * LdA + K];
      const T A1 = A[(i0 + 1) * LdA + K];
      const T A2 = A[(i0 + 2) * LdA + K];
      const T A3 = A[(i0 + 3) * LdA + K];
      const T *__restrict Bk = B + static_cast<size_t>(K) * LdB;
      T *__restrict C0 = C + static_cast<size_t>(i0 + 0) * LdC;
      T *__restrict C1 = C + static_cast<size_t>(i0 + 1) * LdC;
      T *__restrict C2 = C + static_cast<size_t>(i0 + 2) * LdC;
      T *__restrict C3 = C + static_cast<size_t>(i0 + 3) * LdC;
      for (unsigned J = j0; J < j1; ++J) {
        const T Bv = Bk[J];
        C0[J] += A0 * Bv;
        C1[J] += A1 * Bv;
        C2[J] += A2 * Bv;
        C3[J] += A3 * Bv;
      }
    }
    break;
  default:
    for (unsigned I = i0; I < i0 + Rows; ++I) {
      T *__restrict Ci = C + static_cast<size_t>(I) * LdC;
      for (unsigned K = k0; K < k1; ++K) {
        const T Av = A[I * LdA + K];
        const T *__restrict Bk = B + static_cast<size_t>(K) * LdB;
        for (unsigned J = j0; J < j1; ++J)
          Ci[J] += Av * Bk[J];
      }
    }
    break;
  }
}

/// Explicit-SIMD micro-kernel: identical accumulation semantics to
/// microNNScalar (each C element's k chain is untouched; only the j
/// axis is widened into independent lanes), so its output is required
/// to be bitwise-identical -- the j tail runs the same scalar
/// expression the scalar kernel runs.
template <typename T>
inline void microNNSimd(unsigned Rows, unsigned j0, unsigned j1, unsigned k0,
                        unsigned k1, const T *__restrict A, unsigned LdA,
                        const T *__restrict B, unsigned LdB, T *__restrict C,
                        unsigned LdC, unsigned i0) {
  using Vec = typename SimdTraits<T>::Vec;
  constexpr unsigned L = SimdTraits<T>::Lanes;
  if (Rows == MR) {
    T *__restrict C0 = C + static_cast<size_t>(i0 + 0) * LdC;
    T *__restrict C1 = C + static_cast<size_t>(i0 + 1) * LdC;
    T *__restrict C2 = C + static_cast<size_t>(i0 + 2) * LdC;
    T *__restrict C3 = C + static_cast<size_t>(i0 + 3) * LdC;
    const T *__restrict A0 = A + static_cast<size_t>(i0 + 0) * LdA;
    const T *__restrict A1 = A + static_cast<size_t>(i0 + 1) * LdA;
    const T *__restrict A2 = A + static_cast<size_t>(i0 + 2) * LdA;
    const T *__restrict A3 = A + static_cast<size_t>(i0 + 3) * LdA;
    unsigned J = j0;
    // Outer-product body: a 4-row x 2-vector C tile lives in registers
    // across the whole K panel (8 accumulators + 2 B loads + 4 A
    // broadcasts = within budget of a 16-register ISA), so C traffic
    // drops from per-k to per-panel. Holding an element's partial sum
    // in a register instead of storing/reloading it every k does not
    // reorder its k chain -- this stays bitwise-equal to the scalar
    // kernel.
    for (; J + 2 * L <= j1; J += 2 * L) {
      Vec S00 = *reinterpret_cast<const Vec *>(C0 + J);
      Vec S01 = *reinterpret_cast<const Vec *>(C0 + J + L);
      Vec S10 = *reinterpret_cast<const Vec *>(C1 + J);
      Vec S11 = *reinterpret_cast<const Vec *>(C1 + J + L);
      Vec S20 = *reinterpret_cast<const Vec *>(C2 + J);
      Vec S21 = *reinterpret_cast<const Vec *>(C2 + J + L);
      Vec S30 = *reinterpret_cast<const Vec *>(C3 + J);
      Vec S31 = *reinterpret_cast<const Vec *>(C3 + J + L);
      for (unsigned K = k0; K < k1; ++K) {
        const T *__restrict Bk = B + static_cast<size_t>(K) * LdB;
        const Vec B0 = *reinterpret_cast<const Vec *>(Bk + J);
        const Vec B1 = *reinterpret_cast<const Vec *>(Bk + J + L);
        const Vec VA0 = A0[K] - Vec{}; // broadcast
        const Vec VA1 = A1[K] - Vec{};
        const Vec VA2 = A2[K] - Vec{};
        const Vec VA3 = A3[K] - Vec{};
        S00 += VA0 * B0;
        S01 += VA0 * B1;
        S10 += VA1 * B0;
        S11 += VA1 * B1;
        S20 += VA2 * B0;
        S21 += VA2 * B1;
        S30 += VA3 * B0;
        S31 += VA3 * B1;
      }
      *reinterpret_cast<Vec *>(C0 + J) = S00;
      *reinterpret_cast<Vec *>(C0 + J + L) = S01;
      *reinterpret_cast<Vec *>(C1 + J) = S10;
      *reinterpret_cast<Vec *>(C1 + J + L) = S11;
      *reinterpret_cast<Vec *>(C2 + J) = S20;
      *reinterpret_cast<Vec *>(C2 + J + L) = S21;
      *reinterpret_cast<Vec *>(C3 + J) = S30;
      *reinterpret_cast<Vec *>(C3 + J + L) = S31;
    }
    // Single-vector j tail, accumulators still held over K.
    for (; J + L <= j1; J += L) {
      Vec S0 = *reinterpret_cast<const Vec *>(C0 + J);
      Vec S1 = *reinterpret_cast<const Vec *>(C1 + J);
      Vec S2 = *reinterpret_cast<const Vec *>(C2 + J);
      Vec S3 = *reinterpret_cast<const Vec *>(C3 + J);
      for (unsigned K = k0; K < k1; ++K) {
        const Vec Bv = *reinterpret_cast<const Vec *>(
            B + static_cast<size_t>(K) * LdB + J);
        S0 += (A0[K] - Vec{}) * Bv;
        S1 += (A1[K] - Vec{}) * Bv;
        S2 += (A2[K] - Vec{}) * Bv;
        S3 += (A3[K] - Vec{}) * Bv;
      }
      *reinterpret_cast<Vec *>(C0 + J) = S0;
      *reinterpret_cast<Vec *>(C1 + J) = S1;
      *reinterpret_cast<Vec *>(C2 + J) = S2;
      *reinterpret_cast<Vec *>(C3 + J) = S3;
    }
    // Sub-vector j tail: run the scalar micro-kernel itself, not a
    // hand-written scalar loop. Bitwise identity with the scalar kernel
    // must not hinge on the compiler contracting two different loops
    // into the same mul/fma mix, so the tail shares the scalar kernel's
    // machine code outright.
    if (J < j1)
      microNNScalar<T>(MR, J, j1, k0, k1, A, LdA, B, LdB, C, LdC, i0);
    return;
  }
  const unsigned jv = j0 + ((j1 - j0) / L) * L;
  for (unsigned I = i0; I < i0 + Rows; ++I) {
    T *__restrict Ci = C + static_cast<size_t>(I) * LdC;
    const T *__restrict Ai = A + static_cast<size_t>(I) * LdA;
    for (unsigned J = j0; J < jv; J += L) {
      Vec S = *reinterpret_cast<const Vec *>(Ci + J);
      for (unsigned K = k0; K < k1; ++K)
        S += (Ai[K] - Vec{}) *
             *reinterpret_cast<const Vec *>(B + static_cast<size_t>(K) * LdB +
                                            J);
      *reinterpret_cast<Vec *>(Ci + J) = S;
    }
  }
  if (jv < j1)
    microNNScalar<T>(Rows, jv, j1, k0, k1, A, LdA, B, LdB, C, LdC, i0);
}

/// Blocked streaming driver for C(MxN) += A(MxK) . B(KxN).
template <typename T>
void gemmNNSerial(unsigned M, unsigned N, unsigned K, const T *A, unsigned LdA,
                  const T *B, unsigned LdB, T *C, unsigned LdC) {
  for (unsigned Jj = 0; Jj < N; Jj += NC) {
    unsigned Jend = std::min(N, Jj + NC);
    for (unsigned Kk = 0; Kk < K; Kk += KC) {
      unsigned Kend = std::min(K, Kk + KC);
      for (unsigned Ii = 0; Ii < M; Ii += MC) {
        unsigned Iend = std::min(M, Ii + MC);
        unsigned I = Ii;
        for (; I + MR <= Iend; I += MR)
          microNNSimd<T>(MR, Jj, Jend, Kk, Kend, A, LdA, B, LdB, C, LdC, I);
        if (I < Iend)
          microNNSimd<T>(Iend - I, Jj, Jend, Kk, Kend, A, LdA, B, LdB, C, LdC,
                         I);
      }
    }
  }
}

/// The NT per-element k-chain: a zero-started, ascending-k multiply-add
/// chain over N elements, A unit-stride, B at stride BStride (the
/// transpose-packed panel's row stride). noinline + no-tree-vectorize
/// pin ONE scalar emission of the chain -- a straight (contracted, on
/// FMA targets) multiply-add sequence -- that every scalar NT element
/// shares. Without the pin, GCC autovectorizes this reduction in-order
/// with a target-dependent mix of separately-rounded multiplies and fma
/// remainders, which no lane-parallel kernel can reproduce bitwise;
/// with it, the SIMD kernel's per-lane chain (one vector fma per k) is
/// the exact same arithmetic. Same doctrine as microNNSimd's scalar
/// tail: bitwise parity must be a property of the binary, not of two
/// loops happening to contract alike.
template <typename T>
__attribute__((noinline, optimize("no-tree-vectorize"))) T
microNTDot(const T *__restrict A, const T *__restrict B, unsigned BStride,
           unsigned N) {
  T Acc = T(0);
  for (unsigned Kx = 0; Kx < N; ++Kx)
    Acc += A[Kx] * B[static_cast<size_t>(Kx) * BStride];
  return Acc;
}

/// C(MxN) += A^T . B with A stored KxM: a sequence of rank-1 updates.
/// Unroll k by MR so each C row load/store is amortized over MR
/// accumulated outer products; block i so the updated C panel stays
/// cache-resident across the k sweep.
template <typename T>
void gemmTNSerial(unsigned M, unsigned N, unsigned K, const T *A, unsigned LdA,
                  const T *B, unsigned LdB, T *C, unsigned LdC) {
  for (unsigned Ii = 0; Ii < M; Ii += MC) {
    unsigned Iend = std::min(M, Ii + MC);
    for (unsigned Jj = 0; Jj < N; Jj += NC) {
      unsigned Jend = std::min(N, Jj + NC);
      unsigned Kx = 0;
      for (; Kx + MR <= K; Kx += MR) {
        const T *__restrict A0 = A + static_cast<size_t>(Kx + 0) * LdA;
        const T *__restrict A1 = A + static_cast<size_t>(Kx + 1) * LdA;
        const T *__restrict A2 = A + static_cast<size_t>(Kx + 2) * LdA;
        const T *__restrict A3 = A + static_cast<size_t>(Kx + 3) * LdA;
        const T *__restrict B0 = B + static_cast<size_t>(Kx + 0) * LdB;
        const T *__restrict B1 = B + static_cast<size_t>(Kx + 1) * LdB;
        const T *__restrict B2 = B + static_cast<size_t>(Kx + 2) * LdB;
        const T *__restrict B3 = B + static_cast<size_t>(Kx + 3) * LdB;
        for (unsigned I = Ii; I < Iend; ++I) {
          const T V0 = A0[I], V1 = A1[I], V2 = A2[I], V3 = A3[I];
          // Rows fed only by zeros contribute nothing; skipping them is
          // exact and pays off in dW += X^T . dC with sparse feature
          // batches X, where entire feature columns are zero.
          if (V0 == T(0) && V1 == T(0) && V2 == T(0) && V3 == T(0))
            continue;
          T *__restrict Ci = C + static_cast<size_t>(I) * LdC;
          for (unsigned J = Jj; J < Jend; ++J)
            Ci[J] += V0 * B0[J] + V1 * B1[J] + V2 * B2[J] + V3 * B3[J];
        }
      }
      for (; Kx < K; ++Kx) {
        const T *__restrict Ak = A + static_cast<size_t>(Kx) * LdA;
        const T *__restrict Bk = B + static_cast<size_t>(Kx) * LdB;
        for (unsigned I = Ii; I < Iend; ++I) {
          const T V = Ak[I];
          // Zero rows contribute nothing; skipping them is exact and
          // pays off in the K == 1 case (dW += X^T . dC with a sparse
          // feature row X), where every zero skips a full C-row update.
          if (V == T(0))
            continue;
          T *__restrict Ci = C + static_cast<size_t>(I) * LdC;
          for (unsigned J = Jj; J < Jend; ++J)
            Ci[J] += V * Bk[J];
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Packed macro-kernel layer
//===----------------------------------------------------------------------===//

/// Packed panels pad their row stride by one cache line. Matrix sizes
/// tend to be powers of two, which makes the natural panel stride a
/// multiple of 4 KB right when the panels are widest -- every row (or
/// every k step of a transposed panel) then maps to the same L1 set and
/// the k-sweeps thrash. One line of skew spreads consecutive rows
/// across sets. Padding is invisible to results: the same elements are
/// read in the same order through the leading-dimension parameter.
constexpr unsigned packPad(size_t ElemSize) {
  return static_cast<unsigned>(64 / ElemSize);
}

/// Elements of pack scratch a packed call needs at most: one padded
/// KC x NC B panel plus one padded MC x KC A panel, with the pad sized
/// for the smallest element type (an upper bound for both dtypes).
constexpr size_t PackScratchElems =
    static_cast<size_t>(KC) * (NC + packPad(sizeof(float))) +
    static_cast<size_t>(MC) * (KC + packPad(sizeof(float)));

/// Offset of the A panel inside the scratch block (B panel first).
constexpr size_t PackScratchAOffset =
    static_cast<size_t>(KC) * (NC + packPad(sizeof(float)));

/// Straight row-major copy of the [r0,r1) x [c0,c1) block of Src
/// (leading dimension LdSrc) into the dense panel Dst with leading
/// dimension LdDst >= c1-c0. Element order is preserved; this is pure
/// layout.
template <typename T>
inline void packBlock(const T *__restrict Src, unsigned LdSrc, unsigned r0,
                      unsigned r1, unsigned c0, unsigned c1, T *__restrict Dst,
                      unsigned LdDst) {
  const unsigned W = c1 - c0;
  for (unsigned R = r0; R < r1; ++R) {
    const T *__restrict S = Src + static_cast<size_t>(R) * LdSrc + c0;
    T *__restrict D = Dst + static_cast<size_t>(R - r0) * LdDst;
    for (unsigned Col = 0; Col < W; ++Col)
      D[Col] = S[Col];
  }
}

/// Transpose-pack: the [y0,y1) x [x0,x1) block of Src lands in Dst
/// transposed, Dst[(x-x0)*LdDst + (y-y0)] = Src[y*LdSrc + x]. Reads
/// stream Src rows contiguously; writes stride, but the panel is small
/// and written once per cache block.
template <typename T>
inline void packTranspose(const T *__restrict Src, unsigned LdSrc, unsigned y0,
                          unsigned y1, unsigned x0, unsigned x1,
                          T *__restrict Dst, unsigned LdDst) {
  for (unsigned Y = y0; Y < y1; ++Y) {
    const T *__restrict S = Src + static_cast<size_t>(Y) * LdSrc;
    for (unsigned X = x0; X < x1; ++X)
      Dst[static_cast<size_t>(X - x0) * LdDst + (Y - y0)] = S[X];
  }
}

/// Packed NN driver: identical loop structure to gemmNNSerial, but each
/// (Jj, Kk) B panel and (Ii, Kk) A panel is copied into dense scratch
/// first and the *same* micro-kernels run over the packed panels with
/// block-local coordinates. Same function, same trip counts, same
/// values -- bitwise-equal to the unpacked driver by construction; what
/// changes is that every B panel load is now contiguous and the A rows
/// dense, instead of striding the caller's leading dimensions.
template <typename T>
void gemmNNPackedSerial(unsigned M, unsigned N, unsigned K, const T *A,
                        unsigned LdA, const T *B, unsigned LdB, T *C,
                        unsigned LdC, T *__restrict Ap, T *__restrict Bp) {
  constexpr unsigned Pad = packPad(sizeof(T));
  for (unsigned Jj = 0; Jj < N; Jj += NC) {
    const unsigned Jend = std::min(N, Jj + NC), NB = Jend - Jj;
    const unsigned LdBp = NB + Pad;
    for (unsigned Kk = 0; Kk < K; Kk += KC) {
      const unsigned Kend = std::min(K, Kk + KC), KB = Kend - Kk;
      const unsigned LdAp = KB + Pad;
      packBlock(B, LdB, Kk, Kend, Jj, Jend, Bp, LdBp);
      for (unsigned Ii = 0; Ii < M; Ii += MC) {
        const unsigned Iend = std::min(M, Ii + MC), MB = Iend - Ii;
        packBlock(A, LdA, Ii, Iend, Kk, Kend, Ap, LdAp);
        T *Cb = C + static_cast<size_t>(Ii) * LdC + Jj;
        unsigned I = 0;
        for (; I + MR <= MB; I += MR)
          microNNSimd<T>(MR, 0, NB, 0, KB, Ap, LdAp, Bp, LdBp, Cb, LdC, I);
        if (I < MB)
          microNNSimd<T>(MB - I, 0, NB, 0, KB, Ap, LdAp, Bp, LdBp, Cb, LdC, I);
      }
    }
  }
}

/// Packed NT micro-kernel, scalar form: C[i][j] += (sum over the packed
/// k panel of Ap[i][k] * Bp[k][j]), one microNTDot chain per element.
/// It runs microNTPackedSimd's sub-vector j tails.
template <typename T>
inline void microNTPackedScalar(unsigned Rows, unsigned NB, unsigned KB,
                                const T *__restrict Ap, unsigned LdAp,
                                const T *__restrict Bp, unsigned LdBp,
                                T *__restrict C, unsigned LdC) {
  for (unsigned I = 0; I < Rows; ++I) {
    const T *__restrict Ai = Ap + static_cast<size_t>(I) * LdAp;
    T *__restrict Ci = C + static_cast<size_t>(I) * LdC;
    for (unsigned J = 0; J < NB; ++J)
      Ci[J] += microNTDot(Ai, Bp + J, LdBp, KB);
  }
}

/// Packed NT micro-kernel, SIMD form. A scalar NT kernel is
/// latency-bound: one Acc chain per (i, j) means every fma waits on the
/// previous one. Here the j axis is widened into vector lanes
/// and an MR-row x 2-vector block of partial sums lives in registers,
/// so 8 independent accumulator chains cover the fma latency -- but
/// each *lane* still computes the exact chain the scalar kernel does:
/// zero-started, ascending k over the packed panel, one C += at the
/// end. The transpose-pack is what makes the per-k B loads contiguous
/// j-vectors instead of LdB-strided gathers.
template <typename T>
inline void microNTPackedSimd(unsigned Rows, unsigned NB, unsigned KB,
                              const T *__restrict Ap, unsigned LdAp,
                              const T *__restrict Bp, unsigned LdBp,
                              T *__restrict C, unsigned LdC) {
  using Vec = typename SimdTraits<T>::Vec;
  constexpr unsigned L = SimdTraits<T>::Lanes;
  if (Rows == MR) {
    const T *__restrict A0 = Ap;
    const T *__restrict A1 = Ap + static_cast<size_t>(LdAp);
    const T *__restrict A2 = Ap + 2 * static_cast<size_t>(LdAp);
    const T *__restrict A3 = Ap + 3 * static_cast<size_t>(LdAp);
    T *__restrict C0 = C;
    T *__restrict C1 = C + static_cast<size_t>(LdC);
    T *__restrict C2 = C + 2 * static_cast<size_t>(LdC);
    T *__restrict C3 = C + 3 * static_cast<size_t>(LdC);
    unsigned J = 0;
    for (; J + 2 * L <= NB; J += 2 * L) {
      Vec S00 = Vec{}, S01 = Vec{}, S10 = Vec{}, S11 = Vec{};
      Vec S20 = Vec{}, S21 = Vec{}, S30 = Vec{}, S31 = Vec{};
      for (unsigned Kx = 0; Kx < KB; ++Kx) {
        const T *__restrict Bk = Bp + static_cast<size_t>(Kx) * LdBp;
        const Vec B0 = *reinterpret_cast<const Vec *>(Bk + J);
        const Vec B1 = *reinterpret_cast<const Vec *>(Bk + J + L);
        const Vec VA0 = A0[Kx] - Vec{}; // broadcast
        const Vec VA1 = A1[Kx] - Vec{};
        const Vec VA2 = A2[Kx] - Vec{};
        const Vec VA3 = A3[Kx] - Vec{};
        S00 += VA0 * B0;
        S01 += VA0 * B1;
        S10 += VA1 * B0;
        S11 += VA1 * B1;
        S20 += VA2 * B0;
        S21 += VA2 * B1;
        S30 += VA3 * B0;
        S31 += VA3 * B1;
      }
      *reinterpret_cast<Vec *>(C0 + J) =
          *reinterpret_cast<const Vec *>(C0 + J) + S00;
      *reinterpret_cast<Vec *>(C0 + J + L) =
          *reinterpret_cast<const Vec *>(C0 + J + L) + S01;
      *reinterpret_cast<Vec *>(C1 + J) =
          *reinterpret_cast<const Vec *>(C1 + J) + S10;
      *reinterpret_cast<Vec *>(C1 + J + L) =
          *reinterpret_cast<const Vec *>(C1 + J + L) + S11;
      *reinterpret_cast<Vec *>(C2 + J) =
          *reinterpret_cast<const Vec *>(C2 + J) + S20;
      *reinterpret_cast<Vec *>(C2 + J + L) =
          *reinterpret_cast<const Vec *>(C2 + J + L) + S21;
      *reinterpret_cast<Vec *>(C3 + J) =
          *reinterpret_cast<const Vec *>(C3 + J) + S30;
      *reinterpret_cast<Vec *>(C3 + J + L) =
          *reinterpret_cast<const Vec *>(C3 + J + L) + S31;
    }
    for (; J + L <= NB; J += L) {
      Vec S0 = Vec{}, S1 = Vec{}, S2 = Vec{}, S3 = Vec{};
      for (unsigned Kx = 0; Kx < KB; ++Kx) {
        const Vec Bv =
            *reinterpret_cast<const Vec *>(Bp + static_cast<size_t>(Kx) * LdBp +
                                           J);
        S0 += (A0[Kx] - Vec{}) * Bv;
        S1 += (A1[Kx] - Vec{}) * Bv;
        S2 += (A2[Kx] - Vec{}) * Bv;
        S3 += (A3[Kx] - Vec{}) * Bv;
      }
      *reinterpret_cast<Vec *>(C0 + J) =
          *reinterpret_cast<const Vec *>(C0 + J) + S0;
      *reinterpret_cast<Vec *>(C1 + J) =
          *reinterpret_cast<const Vec *>(C1 + J) + S1;
      *reinterpret_cast<Vec *>(C2 + J) =
          *reinterpret_cast<const Vec *>(C2 + J) + S2;
      *reinterpret_cast<Vec *>(C3 + J) =
          *reinterpret_cast<const Vec *>(C3 + J) + S3;
    }
    // Sub-vector j tail: delegate to the scalar packed kernel so tail
    // elements share its machine code (same no-two-loops-contract-
    // differently reasoning as microNNSimd's tail).
    if (J < NB)
      microNTPackedScalar<T>(MR, NB - J, KB, Ap, LdAp, Bp + J, LdBp, C + J,
                             LdC);
    return;
  }
  for (unsigned I = 0; I < Rows; ++I) {
    const T *__restrict Ai = Ap + static_cast<size_t>(I) * LdAp;
    T *__restrict Ci = C + static_cast<size_t>(I) * LdC;
    unsigned J = 0;
    for (; J + L <= NB; J += L) {
      Vec S = Vec{};
      for (unsigned Kx = 0; Kx < KB; ++Kx)
        S += (Ai[Kx] - Vec{}) *
             *reinterpret_cast<const Vec *>(Bp +
                                            static_cast<size_t>(Kx) * LdBp + J);
      *reinterpret_cast<Vec *>(Ci + J) =
          *reinterpret_cast<const Vec *>(Ci + J) + S;
    }
    if (J < NB)
      microNTPackedScalar<T>(1, NB - J, KB, Ai, LdAp, Bp + J, LdBp, Ci + J,
                             LdC);
  }
}

/// Packed NT driver: C(MxN) += A(MxK) . B^T with B stored NxK. B is
/// transpose-packed per (Jj, Kk) block -- Bp[k][j] = B[j][k] -- so the
/// k-reduction reads contiguous j-vectors instead of LdB-strided
/// gathers; A is straight-packed dense. Per C element the accumulation
/// is: ascending KC blocks, a zero-started partial sum per block, C +=
/// per block.
template <typename T>
void gemmNTPackedSerial(unsigned M, unsigned N, unsigned K, const T *A,
                        unsigned LdA, const T *B, unsigned LdB, T *C,
                        unsigned LdC, T *__restrict Ap, T *__restrict Bp) {
  constexpr unsigned Pad = packPad(sizeof(T));
  for (unsigned Jj = 0; Jj < N; Jj += NC) {
    const unsigned Jend = std::min(N, Jj + NC), NB = Jend - Jj;
    const unsigned LdBp = NB + Pad;
    for (unsigned Kk = 0; Kk < K; Kk += KC) {
      const unsigned Kend = std::min(K, Kk + KC), KB = Kend - Kk;
      const unsigned LdAp = KB + Pad;
      packTranspose(B, LdB, Jj, Jend, Kk, Kend, Bp, LdBp);
      for (unsigned Ii = 0; Ii < M; Ii += MC) {
        const unsigned Iend = std::min(M, Ii + MC), MB = Iend - Ii;
        packBlock(A, LdA, Ii, Iend, Kk, Kend, Ap, LdAp);
        T *Cb = C + static_cast<size_t>(Ii) * LdC + Jj;
        unsigned I = 0;
        for (; I + MR <= MB; I += MR)
          microNTPackedSimd<T>(MR, NB, KB, Ap + static_cast<size_t>(I) * LdAp,
                               LdAp, Bp, LdBp,
                               Cb + static_cast<size_t>(I) * LdC, LdC);
        if (I < MB)
          microNTPackedSimd<T>(MB - I, NB, KB,
                               Ap + static_cast<size_t>(I) * LdAp, LdAp, Bp,
                               LdBp, Cb + static_cast<size_t>(I) * LdC, LdC);
      }
    }
  }
}

} // namespace detail
} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_GEMMKERNEL_H
