//===- LinalgOp.cpp -------------------------------------------------------===//

#include "ir/LinalgOp.h"

#include "support/Error.h"

#include <cassert>

using namespace mlirrl;

std::string mlirrl::getOpKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Generic:
    return "linalg.generic";
  case OpKind::Matmul:
    return "linalg.matmul";
  case OpKind::Conv2D:
    return "linalg.conv_2d";
  case OpKind::PoolingMax:
    return "linalg.pooling_max";
  case OpKind::Add:
    return "linalg.add";
  case OpKind::ReLU:
    return "linalg.relu";
  case OpKind::Sigmoid:
    return "linalg.sigmoid";
  case OpKind::Softmax:
    return "linalg.softmax";
  case OpKind::Unknown:
    return "linalg.unknown";
  }
  MLIRRL_UNREACHABLE("unknown op kind");
}

bool mlirrl::parseOpKindName(const std::string &Name, OpKind &Kind) {
  static const std::pair<const char *, OpKind> Table[] = {
      {"linalg.generic", OpKind::Generic},
      {"linalg.matmul", OpKind::Matmul},
      {"linalg.conv_2d", OpKind::Conv2D},
      {"linalg.pooling_max", OpKind::PoolingMax},
      {"linalg.add", OpKind::Add},
      {"linalg.relu", OpKind::ReLU},
      {"linalg.sigmoid", OpKind::Sigmoid},
      {"linalg.softmax", OpKind::Softmax},
      {"linalg.unknown", OpKind::Unknown},
  };
  for (const auto &[Spelling, K] : Table) {
    if (Name == Spelling) {
      Kind = K;
      return true;
    }
  }
  return false;
}

std::string mlirrl::getIteratorKindName(IteratorKind Kind) {
  return Kind == IteratorKind::Parallel ? "parallel" : "reduction";
}

LinalgOp::LinalgOp(std::string Result, OpKind Kind,
                   std::vector<int64_t> LoopBounds,
                   std::vector<IteratorKind> Iterators,
                   std::vector<OpOperand> Inputs, AffineMap OutputMap,
                   ArithCounts Arith)
    : Result(std::move(Result)), Kind(Kind), LoopBounds(std::move(LoopBounds)),
      Iterators(std::move(Iterators)), Inputs(std::move(Inputs)),
      OutputMap(std::move(OutputMap)), Arith(Arith) {
  assert(this->LoopBounds.size() == this->Iterators.size() &&
         "bounds / iterator arity mismatch");
}

int64_t LinalgOp::getLoopBound(unsigned Loop) const {
  assert(Loop < LoopBounds.size() && "loop index out of range");
  return LoopBounds[Loop];
}

IteratorKind LinalgOp::getIterator(unsigned Loop) const {
  assert(Loop < Iterators.size() && "loop index out of range");
  return Iterators[Loop];
}

unsigned LinalgOp::getNumParallelLoops() const {
  unsigned Count = 0;
  for (IteratorKind K : Iterators)
    if (K == IteratorKind::Parallel)
      ++Count;
  return Count;
}

unsigned LinalgOp::getNumReductionLoops() const {
  return getNumLoops() - getNumParallelLoops();
}

const OpOperand &LinalgOp::getInput(unsigned Idx) const {
  assert(Idx < Inputs.size() && "input index out of range");
  return Inputs[Idx];
}

int64_t LinalgOp::getIterationCount() const {
  int64_t Count = 1;
  for (int64_t Bound : LoopBounds)
    Count *= Bound;
  return Count;
}

bool LinalgOp::readsValue(const std::string &Value) const {
  for (const OpOperand &In : Inputs)
    if (In.Value == Value)
      return true;
  return false;
}
