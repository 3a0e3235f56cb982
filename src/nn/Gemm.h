//===- Gemm.h - Blocked dense matrix kernels ---------------------*- C++-*-===//
///
/// \file
/// Cache-blocked, register-tiled GEMM kernels over raw row-major buffers:
/// the dense layers' forward products (nn/Inference.h) and both backward
/// products (nn/Backward.h). All kernels *accumulate* into C (C += ...),
/// which is exactly the contract gradient accumulation needs; forward
/// callers start from a zeroed or bias-filled buffer.
///
/// Operands are plain pointers with explicit leading dimensions so the
/// kernels run directly on activation matrices and parameter gradient
/// buffers without per-element at(i,j) indexing or temporary transposed
/// copies.
///
/// The NN product exists for double (training) and float (the float
/// instantiation of the forward, nn/Inference.h); NT and TN carry only
/// the backward pass, which is double. The double kernels
/// are bitwise-stable: every element's accumulation order is fixed,
/// whatever the pool size or call shape. Each layout has one production
/// path (nn/Gemm.cpp): NT always runs a transpose-packed SIMD kernel,
/// TN a streaming rank-1-update kernel, and NN picks per call shape
/// between a streaming SIMD kernel and BLIS-style A/B panel packing
/// into per-thread aligned scratch, which is bitwise-identical to it.
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

/// Capacity in bytes of the calling thread's pack-scratch arena (0
/// until this thread runs its first packed GEMM). The arena grows to
/// the panel footprint once and is reused for every later packed call
/// on the thread; CacheStatsRegistry category "gemm.pack_arena" counts
/// reuses as hits and fresh allocations as misses, which is what
/// GemmTest asserts on. Exposed for tests.
size_t gemmPackScratchCapacity();

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

/// C(MxN) += A^T . B where A is stored row-major as KxM:
/// C[i][j] += sum_k A[k][i] * B[k][j]. This is dW += X^T . dC with X
/// passed in its stored layout.
void gemmAccTN(unsigned M, unsigned N, unsigned K, const double *A,
               unsigned LdA, const double *B, unsigned LdB, double *C,
               unsigned LdC);

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_GEMM_H
