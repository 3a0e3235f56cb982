//===- Ops.cpp ------------------------------------------------------------===//

#include "nn/Ops.h"

#include <cassert>
#include <cmath>

using namespace mlirrl;
using namespace mlirrl::nn;

/// Shared helper for elementwise binary ops.
template <typename Fwd, typename Bwd>
static Tensor elementwiseBinary(const Tensor &A, const Tensor &B,
                                const char *Name, Fwd Forward, Bwd Backward) {
  assert(A.rows() == B.rows() && A.cols() == B.cols() &&
         "elementwise shape mismatch");
  Tensor C = makeNode(A.rows(), A.cols(), {A, B}, Name);
  TensorNode &Node = *C.node();
  for (size_t I = 0; I < Node.Data.size(); ++I)
    Node.Data[I] = Forward(A.data()[I], B.data()[I]);
  Node.Backward = [Backward](TensorNode &Self) {
    TensorNode &An = *Self.Inputs[0];
    TensorNode &Bn = *Self.Inputs[1];
    for (size_t I = 0; I < Self.Data.size(); ++I) {
      auto [Da, Db] = Backward(An.Data[I], Bn.Data[I]);
      if (An.RequiresGrad)
        An.Grad[I] += Self.Grad[I] * Da;
      if (Bn.RequiresGrad)
        Bn.Grad[I] += Self.Grad[I] * Db;
    }
  };
  return C;
}

/// Shared helper for elementwise unary ops. Backward receives (x, y).
template <typename Fwd, typename Bwd>
static Tensor elementwiseUnary(const Tensor &A, const char *Name, Fwd Forward,
                               Bwd Backward) {
  Tensor C = makeNode(A.rows(), A.cols(), {A}, Name);
  TensorNode &Node = *C.node();
  for (size_t I = 0; I < Node.Data.size(); ++I)
    Node.Data[I] = Forward(A.data()[I]);
  Node.Backward = [Backward](TensorNode &Self) {
    TensorNode &An = *Self.Inputs[0];
    if (!An.RequiresGrad)
      return;
    for (size_t I = 0; I < Self.Data.size(); ++I)
      An.Grad[I] += Self.Grad[I] * Backward(An.Data[I], Self.Data[I]);
  };
  return C;
}

Tensor nn::add(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "add", [](double X, double Y) { return X + Y; },
      [](double, double) { return std::pair<double, double>{1.0, 1.0}; });
}

Tensor nn::sub(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "sub", [](double X, double Y) { return X - Y; },
      [](double, double) { return std::pair<double, double>{1.0, -1.0}; });
}

Tensor nn::hadamard(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "hadamard", [](double X, double Y) { return X * Y; },
      [](double X, double Y) { return std::pair<double, double>{Y, X}; });
}

Tensor nn::scale(const Tensor &A, double Factor) {
  return elementwiseUnary(
      A, "scale", [Factor](double X) { return X * Factor; },
      [Factor](double, double) { return Factor; });
}

Tensor nn::expOp(const Tensor &A) {
  return elementwiseUnary(
      A, "exp", [](double X) { return std::exp(X); },
      [](double, double Y) { return Y; });
}

Tensor nn::clamp(const Tensor &A, double Lo, double Hi) {
  return elementwiseUnary(
      A, "clamp",
      [Lo, Hi](double X) { return X < Lo ? Lo : (X > Hi ? Hi : X); },
      [Lo, Hi](double X, double) { return (X >= Lo && X <= Hi) ? 1.0 : 0.0; });
}

Tensor nn::minOp(const Tensor &A, const Tensor &B) {
  return elementwiseBinary(
      A, B, "min", [](double X, double Y) { return X < Y ? X : Y; },
      [](double X, double Y) {
        return X < Y ? std::pair<double, double>{1.0, 0.0}
                     : std::pair<double, double>{0.0, 1.0};
      });
}

Tensor nn::sumAll(const Tensor &A) {
  Tensor Out = makeNode(1, 1, {A}, "sum");
  double Sum = 0.0;
  for (double V : A.data())
    Sum += V;
  Out.node()->Data[0] = Sum;
  Out.node()->Backward = [](TensorNode &Self) {
    TensorNode &In = *Self.Inputs[0];
    if (!In.RequiresGrad)
      return;
    for (double &G : In.Grad)
      G += Self.Grad[0];
  };
  return Out;
}

Tensor nn::meanAll(const Tensor &A) {
  return scale(sumAll(A), 1.0 / static_cast<double>(A.size()));
}
