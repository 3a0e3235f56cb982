//===- AffineExpr.h - Linear affine expressions ------------------*- C++-*-===//
///
/// \file
/// Linear affine expressions over loop iterators, the building block of
/// Linalg indexing maps. An expression is sum_i Coeff_i * d_i + Constant,
/// which covers everything the paper's access matrices represent (Fig. 2:
/// array[d0, d0 + 2*d1 - 3*d2, 1 - d1]).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_IR_AFFINEEXPR_H
#define MLIRRL_IR_AFFINEEXPR_H

#include <cstdint>
#include <string>
#include <vector>

namespace mlirrl {

/// A linear expression over \c getNumDims() loop iterators.
class AffineExpr {
public:
  AffineExpr() = default;

  /// Creates the zero expression over \p NumDims iterators.
  explicit AffineExpr(unsigned NumDims)
      : Coeffs(NumDims, 0), ConstantTerm(0) {}

  /// Creates the expression \p Constant over \p NumDims iterators.
  static AffineExpr constant(int64_t Constant, unsigned NumDims);

  /// Creates the expression d_{Dim} over \p NumDims iterators.
  static AffineExpr dim(unsigned Dim, unsigned NumDims);

  unsigned getNumDims() const { return Coeffs.size(); }
  int64_t getCoeff(unsigned Dim) const;
  void setCoeff(unsigned Dim, int64_t Value);
  int64_t getConstant() const { return ConstantTerm; }
  void setConstant(int64_t Value) { ConstantTerm = Value; }
  const std::vector<int64_t> &getCoeffs() const { return Coeffs; }

  /// Evaluates the expression at iteration point \p Point.
  int64_t evaluate(const std::vector<int64_t> &Point) const;

  /// Returns true if the coefficient of \p Dim is non-zero.
  bool involvesDim(unsigned Dim) const;

  /// If the expression is exactly d_i (coefficient one, no constant, all
  /// other coefficients zero), returns i; otherwise returns -1.
  int getSingleDim() const;

  /// Returns true if every coefficient is zero (a pure constant).
  bool isConstantExpr() const;

  /// Minimum / maximum value over the box [0, Bounds_i - 1]. Linear
  /// expressions attain extrema at box corners, so this is exact.
  int64_t minOverBox(const std::vector<int64_t> &Bounds) const;
  int64_t maxOverBox(const std::vector<int64_t> &Bounds) const;

  /// Rebuilds the expression after a permutation of the iteration space:
  /// new iterator j corresponds to old iterator Perm[j].
  AffineExpr permuteDims(const std::vector<unsigned> &Perm) const;

  AffineExpr operator+(const AffineExpr &Other) const;
  AffineExpr operator-(const AffineExpr &Other) const;
  AffineExpr operator*(int64_t Scale) const;
  bool operator==(const AffineExpr &Other) const;

  /// Prints in MLIR-ish syntax, e.g. "d0 * 2 + d5 - 3".
  std::string toString() const;

private:
  std::vector<int64_t> Coeffs;
  int64_t ConstantTerm = 0;
};

} // namespace mlirrl

#endif // MLIRRL_IR_AFFINEEXPR_H
