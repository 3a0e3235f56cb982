//===- TestUtil.h - Shared bitwise-equality test helpers ---------*- C++-*-===//
///
/// \file
/// The determinism contract's measuring instruments, shared by every
/// test that checks it (VecEnvTest, BatchedForwardTest,
/// DeterminismMatrixTest, CheckpointResumeTest): bit-pattern equality
/// of doubles, ULP distances for tensor comparisons, golden-bytes
/// comparison for archives, and bitwise equality of whole training
/// histories. Also the feature-row helpers: tests build dense rows, and
/// sparse rows from dense vectors, only through denseRow and
/// sparseRowsOf.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_TESTS_TESTUTIL_H
#define MLIRRL_TESTS_TESTUTIL_H

#include "nn/Tensor.h"
#include "rl/Ppo.h"
#include "support/SparseRows.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

/// Two doubles carry the identical bit pattern (distinguishes -0.0
/// from 0.0 and NaN payloads, unlike EXPECT_EQ).
#define EXPECT_SAME_BITS(X, Y)                                              \
  EXPECT_EQ(std::bit_cast<uint64_t>(static_cast<double>(X)),                \
            std::bit_cast<uint64_t>(static_cast<double>(Y)))

namespace mlirrl {
namespace testutil {

/// Distance in units-in-the-last-place between two finite doubles of
/// the same sign ordering; 0 iff bitwise-identical.
inline uint64_t ulpDistance(double A, double B) {
  auto ToOrdered = [](double V) {
    int64_t Bits = std::bit_cast<int64_t>(V);
    return Bits < 0 ? std::numeric_limits<int64_t>::min() - Bits : Bits;
  };
  int64_t X = ToOrdered(A), Y = ToOrdered(B);
  return X < Y ? static_cast<uint64_t>(Y) - static_cast<uint64_t>(X)
               : static_cast<uint64_t>(X) - static_cast<uint64_t>(Y);
}

/// Elementwise tensor comparison within \p MaxUlps (0 = bitwise).
inline void expectTensorsWithinUlps(const nn::Tensor &A, const nn::Tensor &B,
                                    uint64_t MaxUlps = 0) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  for (unsigned R = 0; R < A.rows(); ++R)
    for (unsigned C = 0; C < A.cols(); ++C)
      EXPECT_LE(ulpDistance(A.at(R, C), B.at(R, C)), MaxUlps)
          << "element (" << R << ", " << C << "): " << A.at(R, C) << " vs "
          << B.at(R, C);
}

inline void expectTensorsBitwiseEqual(const nn::Tensor &A,
                                      const nn::Tensor &B) {
  expectTensorsWithinUlps(A, B, 0);
}

/// Golden-bytes comparison: byte count plus the first diverging offset
/// on mismatch (readable failure for archive identity checks).
inline void expectSameBytes(const std::vector<uint8_t> &A,
                            const std::vector<uint8_t> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << "archives diverge at byte " << I;
}

/// Bitwise equality of two per-iteration training histories — the
/// repo's core determinism invariant (identical rollouts and updates
/// regardless of batch width, thread counts and save/load boundaries).
inline void expectSameHistories(const std::vector<PpoIterationStats> &A,
                                const std::vector<PpoIterationStats> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (unsigned I = 0; I < A.size(); ++I) {
    EXPECT_SAME_BITS(A[I].MeanEpisodeReward, B[I].MeanEpisodeReward)
        << "iteration " << I;
    EXPECT_SAME_BITS(A[I].MeanSpeedup, B[I].MeanSpeedup) << "iteration " << I;
    EXPECT_SAME_BITS(A[I].PolicyLoss, B[I].PolicyLoss) << "iteration " << I;
    EXPECT_SAME_BITS(A[I].ValueLoss, B[I].ValueLoss) << "iteration " << I;
    EXPECT_SAME_BITS(A[I].Entropy, B[I].Entropy) << "iteration " << I;
    EXPECT_EQ(A[I].StepsCollected, B[I].StepsCollected) << "iteration " << I;
    EXPECT_SAME_BITS(A[I].MeasurementSeconds, B[I].MeasurementSeconds)
        << "iteration " << I;
  }
}

/// Bitwise equality of two parameter lists (same shapes, same bits).
inline void expectSameParameters(const std::vector<nn::Tensor> &A,
                                 const std::vector<nn::Tensor> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    expectTensorsBitwiseEqual(A[I], B[I]);
}

/// The dense form of a feature row: \p Width values, zero except at the
/// row's entries.
inline std::vector<double> denseRow(const SparseRow &Row, unsigned Width) {
  std::vector<double> Dense(Width, 0.0);
  for (const SparseEntry &E : Row)
    Dense.at(E.Col) = E.Value;
  return Dense;
}

/// Sparse rows from dense test vectors of one width: each vector's
/// nonzero values, ascending by column.
inline SparseRows sparseRowsOf(const std::vector<std::vector<double>> &Dense) {
  SparseRows X;
  X.Rows = static_cast<unsigned>(Dense.size());
  X.Cols = Dense.empty() ? 0 : static_cast<unsigned>(Dense[0].size());
  for (const std::vector<double> &Row : Dense) {
    EXPECT_EQ(Row.size(), X.Cols) << "ragged dense rows";
    SparseRow &Entries = X.RowEntries.emplace_back();
    for (unsigned J = 0; J < Row.size(); ++J)
      if (Row[J] != 0.0)
        Entries.push_back({J, Row[J]});
  }
  return X;
}

/// A feature row's invariants: columns strictly ascending and below
/// \p Width, and no +0.0 or -0.0 value.
inline void expectWellFormedRow(const SparseRow &Row, unsigned Width,
                                const std::string &What) {
  for (size_t I = 0; I < Row.size(); ++I) {
    EXPECT_LT(Row[I].Col, Width) << What << " entry " << I;
    EXPECT_NE(Row[I].Value, 0.0) << What << " entry " << I;
    if (I > 0) {
      EXPECT_LT(Row[I - 1].Col, Row[I].Col) << What << " entry " << I;
    }
  }
}

/// Two feature rows hold the same entries: columns and value bits.
inline void expectSameRow(const SparseRow &A, const SparseRow &B,
                          const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Col, B[I].Col) << What << " entry " << I;
    EXPECT_SAME_BITS(A[I].Value, B[I].Value) << What << " entry " << I;
  }
}

/// The narrow network every determinism test trains (the architecture
/// is the paper's; the width keeps test trainings subsecond).
inline NetConfig tinyNet(unsigned Hidden = 16) {
  NetConfig Net;
  Net.LstmHidden = Hidden;
  Net.BackboneHidden = Hidden;
  return Net;
}

} // namespace testutil
} // namespace mlirrl

#endif // MLIRRL_TESTS_TESTUTIL_H
