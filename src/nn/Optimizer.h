//===- Optimizer.h - Gradient-based optimizers -------------------*- C++-*-===//
///
/// \file
/// Adam (used by PPO, as in the paper's training setup) and plain SGD,
/// plus gradient clipping by global norm for stable policy updates.
///
/// Adam::step, zeroGradients and clipGradNorm's scale pass each make one
/// pass over fixed chunks of whole rows (at most 8192 elements) of every
/// parameter, spread over the pool installed with setGemmPool
/// (nn/Gemm.h) when there is one. Each pass, and the norm, skips rows
/// that are already zero. Their results are bitwise those of a serial
/// element-by-element sweep:
///
/// - **Skipping a row is exact.** Adam::step skips a row whose gradient
///   and two moments are all +0.0: its moments stay +0.0
///   (b*0 + (1-b)*0), and its parameter step
///   lr*(0/Bias1) / (sqrt(0/Bias2) + eps) is +0.0, which leaves every
///   value, -0.0 included, unchanged. The test reads bit patterns, so a
///   -0.0 entry makes the row nonzero. Adam::step checks the identity
///   once per call on a zeroed element and sweeps every row when a
///   hyperparameter breaks it (eps = 0 makes 0/0). zeroGradients fills
///   only rows with a nonzero bit. The clip's scale pass skips rows of
///   +0.0 and -0.0 when the scale maps both to themselves, and scales
///   every row when it does not (a negative bound flips their signs).
/// - **Chunks fix the result for any thread count.** The chunking
///   depends only on the parameter shapes, chunks are disjoint (so a
///   parameter list must not name a tensor twice), and an element's
///   arithmetic reads only its own entries, so no assignment of chunks
///   to threads can change a bit. Adam's SIMD body repeats the
///   scalar element expression lane for lane (same operands, same
///   rounding and fused multiply-add points); the scalar loop runs the
///   sub-vector tails and targets without a vector square root.
/// - **The norm is one serial sum that skips ±0.0 rows.** It runs on
///   the calling thread, in parameter order, through one out-of-line
///   loop, `SumSq += G * G`. A tensor whose row length is not a
///   multiple of 8 goes through that loop whole. Any other tensor goes
///   through it row by row, and a row whose entries are all ±0.0 is
///   skipped. Skipping it is exact: its squares are +0.0, and adding
///   +0.0 to a sum of squares, which starts at +0.0, changes nothing.
///   Splitting a tensor into rows is exact too, because every element
///   is still added the way the whole-tensor loop adds it:
///   - At -O3 with -march=native on an AVX-512 host, GCC 12 vectorizes
///     the loop into an 8-wide body and a 4-wide epilogue that add
///     rounded squares in order, then adds the last N mod 4 elements by
///     fused multiply-add. In a tensor whose rows are a multiple of 8
///     long, neither the tensor nor a row has such a tail, so every
///     element is added as a rounded square either way.
///   - At -O2 GCC 12 emits one chain of fused multiply-adds, which
///     splits anywhere.
///
///   Another compiler or flag set may emit the loop differently.
///   OptimizerTest compares the norm with the whole-tensor loop on rows
///   where a fused and a rounded square round the sum differently, so
///   a split that changes how an element is added fails it. A reordered
///   or parallel sum would change the norm's rounding, and with it the
///   clip scale and every later step.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_OPTIMIZER_H
#define MLIRRL_NN_OPTIMIZER_H

#include "nn/Tensor.h"

#include <map>
#include <vector>

namespace mlirrl {
namespace nn {

/// Zeroes gradients of all parameters.
void zeroGradients(const std::vector<Tensor> &Params);

/// Scales gradients so their global L2 norm is at most \p MaxNorm.
/// Returns the pre-clip norm.
double clipGradNorm(const std::vector<Tensor> &Params, double MaxNorm);

/// Adam optimizer with per-parameter first/second moment state.
class Adam {
public:
  explicit Adam(std::vector<Tensor> Params, double LearningRate = 1e-3,
                double Beta1 = 0.9, double Beta2 = 0.999,
                double Epsilon = 1e-8);

  /// Applies one update from the accumulated gradients.
  void step();

  /// Zeroes all parameter gradients.
  void zeroGrad();

  void setLearningRate(double Lr) { LearningRate = Lr; }

  /// The serializable optimizer state (moments + step count), captured
  /// and restored by rl/Checkpoint so a resumed training's bias
  /// correction and moment decay continue bitwise.
  struct State {
    unsigned StepCount = 0;
    std::vector<std::vector<double>> FirstMoment, SecondMoment;
  };

  State getState() const {
    return State{StepCount, FirstMoment, SecondMoment};
  }

  /// Copy-free views for the checkpoint save path (getState deep-copies
  /// megabytes of moments; serialization only needs to read them).
  unsigned stepCount() const { return StepCount; }
  const std::vector<std::vector<double>> &firstMoments() const {
    return FirstMoment;
  }
  const std::vector<std::vector<double>> &secondMoments() const {
    return SecondMoment;
  }

  /// Restores a captured state. Returns false (and changes nothing)
  /// when the moment shapes do not match the parameter list.
  bool setState(State S) {
    if (S.FirstMoment.size() != Params.size() ||
        S.SecondMoment.size() != Params.size())
      return false;
    for (size_t I = 0; I < Params.size(); ++I)
      if (S.FirstMoment[I].size() != Params[I].size() ||
          S.SecondMoment[I].size() != Params[I].size())
        return false;
    StepCount = S.StepCount;
    FirstMoment = std::move(S.FirstMoment);
    SecondMoment = std::move(S.SecondMoment);
    return true;
  }

private:
  std::vector<Tensor> Params;
  double LearningRate, Beta1, Beta2, Epsilon;
  unsigned StepCount = 0;
  std::vector<std::vector<double>> FirstMoment, SecondMoment;
};

/// Plain SGD (used in tests as a reference).
class Sgd {
public:
  explicit Sgd(std::vector<Tensor> Params, double LearningRate = 1e-2);
  void step();
  void zeroGrad();

private:
  std::vector<Tensor> Params;
  double LearningRate;
};

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_OPTIMIZER_H
