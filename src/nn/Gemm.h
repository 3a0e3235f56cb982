//===- Gemm.h - Blocked dense matrix kernels ---------------------*- C++-*-===//
///
/// \file
/// Cache-blocked, register-tiled GEMM kernels over raw row-major buffers,
/// shared by the autograd matmul (forward and both backward products) and
/// the fused linear layer. All kernels *accumulate* into C (C += ...),
/// which is exactly the contract gradient accumulation needs; forward
/// callers start from a zeroed buffer.
///
/// Operands are plain pointers with explicit leading dimensions so the
/// kernels run directly on TensorNode::Data / TensorNode::Grad without
/// per-element at(i,j) indexing or temporary transposed copies.
///
/// Every kernel exists for double and for float. The double kernels are
/// the training path and are bitwise-stable (same accumulation order
/// per element regardless of pool size or kernel dispatch); the float
/// NN kernel carries the float instantiation of the graph-free forward
/// (nn/Inference.h, opt-in through MlirRlOptions::Inference). The NN
/// product runs an explicitly SIMD micro-kernel when the platform has
/// one (see setGemmKernel).
/// Large calls additionally route through the packed macro-kernel
/// layer (see setGemmPacking): BLIS-style A/B panel packing into
/// per-thread aligned scratch, bitwise-identical to the streaming
/// kernels by construction.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_GEMM_H
#define MLIRRL_NN_GEMM_H

#include <cstddef>

namespace mlirrl {

class ThreadPool;

namespace nn {

/// Installs a worker pool the GEMM kernels may partition output rows
/// across (nullptr restores serial execution). Partitioning assigns
/// whole output rows to threads and leaves every element's accumulation
/// order untouched, so results are bitwise-identical for every pool
/// size -- which is what lets the PPO update parallelize its minibatch
/// GEMMs without breaking the determinism contract. The caller must
/// keep the pool alive until the setting is cleared; set/clear from one
/// thread only (kernels running concurrently read it).
void setGemmPool(ThreadPool *Pool);
ThreadPool *getGemmPool();

/// Which inner NN micro-kernel the gemmAcc entry points run. The two
/// kernels accumulate every C element over k in the same order (SIMD
/// only widens the independent j lanes), so the choice never changes
/// results -- it is a speed knob, exposed so benchmarks can measure
/// both and GemmTest can cross-check them at runtime.
enum class GemmKernel {
  Auto,   ///< Simd where compiled in, else Scalar (the default).
  Scalar, ///< Force the portable scalar micro-kernel.
  Simd,   ///< Force the vector-extension micro-kernel (no-op without it).
};

/// Sets the process-wide kernel dispatch (set from one thread only;
/// kernels running concurrently read it).
void setGemmKernel(GemmKernel Kind);
GemmKernel getGemmKernel();

/// Whether the gemmAcc entry points run the packed macro-kernel path:
/// copy each cache block of A/B into dense 64-byte-aligned scratch
/// (transposing for NT/TN so the k-reduction is contiguous) and run the
/// register kernels over the packed panels. Packing is pure layout --
/// every C element keeps the exact accumulation sequence of the
/// unpacked kernels, so like the kernel dispatch this never changes
/// results; it is a speed knob with an Auto heuristic (pack when the
/// operand footprint is large enough to amortize the copy), and On/Off
/// overrides for benchmarks and the 0-ULP cross-checks.
enum class GemmPacking {
  Auto, ///< Heuristic per call shape (the default).
  On,   ///< Always pack (any shape; correctness-complete).
  Off,  ///< Never pack -- the pre-packing streaming kernels.
};

/// Sets the process-wide packing dispatch (set from one thread only;
/// kernels running concurrently read it).
void setGemmPacking(GemmPacking Mode);
GemmPacking getGemmPacking();

/// Capacity in bytes of the calling thread's pack-scratch arena (0
/// until this thread runs its first packed GEMM). The arena grows to
/// the panel footprint once and is reused for every later packed call
/// on the thread; CacheStatsRegistry category "gemm.pack_arena" counts
/// reuses as hits and fresh allocations as misses, which is what
/// perf_smoke and CI assert on. Exposed for tests/benches.
size_t gemmPackScratchCapacity();

/// Whether the SIMD micro-kernel was compiled in (GNU vector
/// extensions; false only on compilers without them, where Simd
/// dispatch silently runs the scalar kernel).
bool gemmSimdAvailable();

/// SIMD lane count per vector for a 4/8-byte element on this build
/// (e.g. 8/4 for the 32-byte generic vectors); 1 without SIMD.
/// For benchmark/perf-log labeling.
unsigned gemmSimdLanes(size_t ElemSize);

/// C(MxN) += A(MxK) . B(KxN). Row-major with leading dimensions LdA /
/// LdB / LdC (elements per row).
void gemmAccNN(unsigned M, unsigned N, unsigned K, const double *A,
               unsigned LdA, const double *B, unsigned LdB, double *C,
               unsigned LdC);
void gemmAccNN(unsigned M, unsigned N, unsigned K, const float *A,
               unsigned LdA, const float *B, unsigned LdB, float *C,
               unsigned LdC);

/// C(MxN) += A(MxK) . B^T where B is stored row-major as NxK:
/// C[i][j] += sum_k A[i][k] * B[j][k]. This is dA += dC . B^T with
/// B passed in its stored (K-major) layout.
void gemmAccNT(unsigned M, unsigned N, unsigned K, const double *A,
               unsigned LdA, const double *B, unsigned LdB, double *C,
               unsigned LdC);
void gemmAccNT(unsigned M, unsigned N, unsigned K, const float *A,
               unsigned LdA, const float *B, unsigned LdB, float *C,
               unsigned LdC);

/// C(MxN) += A^T . B where A is stored row-major as KxM:
/// C[i][j] += sum_k A[k][i] * B[k][j]. This is dW += X^T . dC with X
/// passed in its stored layout.
void gemmAccTN(unsigned M, unsigned N, unsigned K, const double *A,
               unsigned LdA, const double *B, unsigned LdB, double *C,
               unsigned LdC);
void gemmAccTN(unsigned M, unsigned N, unsigned K, const float *A,
               unsigned LdA, const float *B, unsigned LdB, float *C,
               unsigned LdC);

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_GEMM_H
