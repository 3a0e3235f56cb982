//===- LinalgOp.h - Structured linear-algebra operations ---------*- C++-*-===//
///
/// \file
/// The central IR entity: a Linalg-style structured operation with an
/// explicit iteration space (loop bounds + iterator kinds), affine indexing
/// maps for each operand, and a summary of its scalar arithmetic body.
/// This mirrors MLIR's linalg.generic (Listing 1 of the paper) plus named
/// forms (matmul, conv_2d, pooling, add, relu, ...).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_IR_LINALGOP_H
#define MLIRRL_IR_LINALGOP_H

#include "ir/AffineMap.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mlirrl {

/// Kinds of structured operations. The featurizer collapses these into the
/// paper's six one-hot categories (generic, matmul, conv, pooling, add,
/// other/unknown); keeping richer kinds here lets dataset generators and
/// baselines pattern-match precisely.
enum class OpKind {
  Generic,
  Matmul,
  Conv2D,
  PoolingMax,
  Add,
  ReLU,
  Sigmoid,
  Softmax,
  Unknown,
};

/// The textual mnemonic ("linalg.matmul", ...).
std::string getOpKindName(OpKind Kind);

/// Parses a mnemonic back to a kind. Returns false if unrecognized.
bool parseOpKindName(const std::string &Name, OpKind &Kind);

/// Loop iterator kinds, determining parallelization legality.
enum class IteratorKind { Parallel, Reduction };

std::string getIteratorKindName(IteratorKind Kind);

/// Per-point scalar arithmetic operation counts (Sec. IV-B "Operations
/// Count"). Max is tracked for pooling/relu bodies; the featurizer exposes
/// the five counts the paper lists.
struct ArithCounts {
  int64_t Add = 0;
  int64_t Sub = 0;
  int64_t Mul = 0;
  int64_t Div = 0;
  int64_t Exp = 0;
  int64_t Max = 0;

  /// Total scalar operations per iteration point.
  int64_t total() const { return Add + Sub + Mul + Div + Exp + Max; }

  bool operator==(const ArithCounts &Other) const = default;
};

/// One operand access: the SSA value name and the indexing map describing
/// how iteration points address it.
struct OpOperand {
  std::string Value;
  AffineMap Map;
};

/// A structured operation over tensors.
class LinalgOp {
public:
  LinalgOp() = default;
  LinalgOp(std::string Result, OpKind Kind, std::vector<int64_t> LoopBounds,
           std::vector<IteratorKind> Iterators, std::vector<OpOperand> Inputs,
           AffineMap OutputMap, ArithCounts Arith);

  const std::string &getResult() const { return Result; }
  OpKind getKind() const { return Kind; }

  unsigned getNumLoops() const { return LoopBounds.size(); }
  const std::vector<int64_t> &getLoopBounds() const { return LoopBounds; }
  int64_t getLoopBound(unsigned Loop) const;
  const std::vector<IteratorKind> &getIterators() const { return Iterators; }
  IteratorKind getIterator(unsigned Loop) const;
  unsigned getNumParallelLoops() const;
  unsigned getNumReductionLoops() const;

  const std::vector<OpOperand> &getInputs() const { return Inputs; }
  unsigned getNumInputs() const { return Inputs.size(); }
  const OpOperand &getInput(unsigned Idx) const;
  const AffineMap &getOutputMap() const { return OutputMap; }

  const ArithCounts &getArith() const { return Arith; }

  /// Total iteration points of the loop nest.
  int64_t getIterationCount() const;

  /// Total scalar floating-point operations executed by the nest.
  int64_t getFlops() const { return getIterationCount() * Arith.total(); }

  /// Returns true if \p Value is read by this operation.
  bool readsValue(const std::string &Value) const;

private:
  std::string Result;
  OpKind Kind = OpKind::Generic;
  std::vector<int64_t> LoopBounds;
  std::vector<IteratorKind> Iterators;
  std::vector<OpOperand> Inputs;
  AffineMap OutputMap;
  ArithCounts Arith;
};

} // namespace mlirrl

#endif // MLIRRL_IR_LINALGOP_H
