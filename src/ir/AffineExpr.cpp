//===- AffineExpr.cpp -----------------------------------------------------===//

#include "ir/AffineExpr.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cassert>

using namespace mlirrl;

AffineExpr AffineExpr::constant(int64_t Constant, unsigned NumDims) {
  AffineExpr E(NumDims);
  E.ConstantTerm = Constant;
  return E;
}

AffineExpr AffineExpr::dim(unsigned Dim, unsigned NumDims) {
  assert(Dim < NumDims && "dim index out of range");
  AffineExpr E(NumDims);
  E.Coeffs[Dim] = 1;
  return E;
}

int64_t AffineExpr::getCoeff(unsigned Dim) const {
  assert(Dim < Coeffs.size() && "dim index out of range");
  return Coeffs[Dim];
}

void AffineExpr::setCoeff(unsigned Dim, int64_t Value) {
  assert(Dim < Coeffs.size() && "dim index out of range");
  Coeffs[Dim] = Value;
}

int64_t AffineExpr::evaluate(const std::vector<int64_t> &Point) const {
  assert(Point.size() == Coeffs.size() && "point arity mismatch");
  int64_t Value = ConstantTerm;
  for (unsigned I = 0; I < Coeffs.size(); ++I)
    Value += Coeffs[I] * Point[I];
  return Value;
}

bool AffineExpr::involvesDim(unsigned Dim) const {
  return Dim < Coeffs.size() && Coeffs[Dim] != 0;
}

int AffineExpr::getSingleDim() const {
  if (ConstantTerm != 0)
    return -1;
  int Found = -1;
  for (unsigned I = 0; I < Coeffs.size(); ++I) {
    if (Coeffs[I] == 0)
      continue;
    if (Coeffs[I] != 1 || Found != -1)
      return -1;
    Found = static_cast<int>(I);
  }
  return Found;
}

bool AffineExpr::isConstantExpr() const {
  for (int64_t C : Coeffs)
    if (C != 0)
      return false;
  return true;
}

int64_t AffineExpr::minOverBox(const std::vector<int64_t> &Bounds) const {
  assert(Bounds.size() == Coeffs.size() && "bounds arity mismatch");
  int64_t Value = ConstantTerm;
  for (unsigned I = 0; I < Coeffs.size(); ++I)
    if (Coeffs[I] < 0)
      Value += Coeffs[I] * (Bounds[I] - 1);
  return Value;
}

int64_t AffineExpr::maxOverBox(const std::vector<int64_t> &Bounds) const {
  assert(Bounds.size() == Coeffs.size() && "bounds arity mismatch");
  int64_t Value = ConstantTerm;
  for (unsigned I = 0; I < Coeffs.size(); ++I)
    if (Coeffs[I] > 0)
      Value += Coeffs[I] * (Bounds[I] - 1);
  return Value;
}

AffineExpr AffineExpr::permuteDims(const std::vector<unsigned> &Perm) const {
  assert(Perm.size() == Coeffs.size() && "permutation arity mismatch");
  AffineExpr Result(getNumDims());
  Result.ConstantTerm = ConstantTerm;
  for (unsigned NewDim = 0; NewDim < Perm.size(); ++NewDim) {
    assert(Perm[NewDim] < Coeffs.size() && "permutation entry out of range");
    Result.Coeffs[NewDim] = Coeffs[Perm[NewDim]];
  }
  return Result;
}

AffineExpr AffineExpr::operator+(const AffineExpr &Other) const {
  assert(getNumDims() == Other.getNumDims() && "dim arity mismatch");
  AffineExpr Result = *this;
  for (unsigned I = 0; I < Coeffs.size(); ++I)
    Result.Coeffs[I] += Other.Coeffs[I];
  Result.ConstantTerm += Other.ConstantTerm;
  return Result;
}

AffineExpr AffineExpr::operator-(const AffineExpr &Other) const {
  return *this + (Other * -1);
}

AffineExpr AffineExpr::operator*(int64_t Scale) const {
  AffineExpr Result = *this;
  for (int64_t &C : Result.Coeffs)
    C *= Scale;
  Result.ConstantTerm *= Scale;
  return Result;
}

bool AffineExpr::operator==(const AffineExpr &Other) const {
  return Coeffs == Other.Coeffs && ConstantTerm == Other.ConstantTerm;
}

std::string AffineExpr::toString() const {
  std::string Out;
  auto AppendTerm = [&](int64_t Coeff, const std::string &Symbol) {
    if (Coeff == 0)
      return;
    if (Out.empty()) {
      if (Coeff == -1 && !Symbol.empty())
        Out += "-";
      else if (Coeff != 1 || Symbol.empty())
        Out += formatString("%lld", static_cast<long long>(Coeff)) +
               (Symbol.empty() ? "" : " * ");
    } else {
      Out += Coeff < 0 ? " - " : " + ";
      int64_t Abs = Coeff < 0 ? -Coeff : Coeff;
      if (Abs != 1 || Symbol.empty())
        Out += formatString("%lld", static_cast<long long>(Abs)) +
               (Symbol.empty() ? "" : " * ");
    }
    Out += Symbol;
  };
  for (unsigned I = 0; I < Coeffs.size(); ++I)
    AppendTerm(Coeffs[I], formatString("d%u", I));
  if (ConstantTerm != 0 || Out.empty()) {
    if (Out.empty())
      Out = formatString("%lld", static_cast<long long>(ConstantTerm));
    else {
      Out += ConstantTerm < 0 ? " - " : " + ";
      int64_t Abs = ConstantTerm < 0 ? -ConstantTerm : ConstantTerm;
      Out += formatString("%lld", static_cast<long long>(Abs));
    }
  }
  return Out;
}
