//===- Backward.h - Explicit backward of the network forward -----*- C++-*-===//
///
/// \file
/// The gradients of the nn/Inference.h forward, for the PPO update: the
/// dense layer, the ReLU backbone, the LSTM over sparse rows, and the
/// masked categorical heads' log-probability and entropy. Each reads the
/// activations its forward recorded and accumulates (+=) into gradient
/// buffers; a layer's parameter gradients are its tensors' own.
///
/// The gradients' bits fix every training trajectory, so the order of
/// every accumulation and the rounding point of every elementwise step
/// are part of the contract: a buffer that takes several contributions
/// takes them in one fixed order, and products that are rounded before
/// they are summed are written in passes of their own, because under FMA
/// contraction a + b * c does not round like a + (b * c rounded).
/// tests/nn/GradCheckTest checks the math; the determinism matrix and
/// the benchmark's train_ops speedup pin the bits.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_BACKWARD_H
#define MLIRRL_NN_BACKWARD_H

#include "nn/Inference.h"
#include "nn/Lstm.h"

#include <vector>

namespace mlirrl {
namespace nn {

/// The backward of Y = X . W + b over \p M rows of \p L: dX += dY . W^T
/// (skipped when \p DX is null), dW += X^T . dY, db += column sums of dY.
void linearBackward(unsigned M, const double *X, const double *DY,
                    const Linear &L, double *DX);

/// The backward of mlpForward from its output's gradient, given the
/// tape it recorded; returns its input's gradient.
Mat<double> mlpBackward(const std::vector<Mat<double>> &Tape,
                        Mat<double> DOut, const Mlp &Backbone);

/// The backward of lstmForward from the final hidden state's gradient,
/// given the tape it recorded.
void lstmBackward(const std::vector<LstmStep<double>> &Tape, Mat<double> DH,
                  const LstmCell &Cell);

/// logSoftmaxRow of every row; \p Masks holds one mask row per logits
/// row, or is empty for none.
Mat<double> logSoftmaxRows(const Mat<double> &Logits,
                           const std::vector<const double *> &Masks);

/// The entropy -sum_j p_j log p_j of every row of a log-softmax.
std::vector<double> entropyRows(const Mat<double> &LogP);

/// DLogits += the logits gradient of sum_r DPick[r] * LogP[r][Picks[r]]
/// over the rows whose pick is not -1 (a head the row does not use).
void pickBackward(const Mat<double> &LogP,
                  const std::vector<const double *> &Masks,
                  const std::vector<int> &Picks, const double *DPick,
                  Mat<double> &DLogits);

/// DLogits += the logits gradient of sum_r DEntropy[r] * entropy of row
/// r; rows with DEntropy[r] == 0 contribute nothing.
void entropyBackward(const Mat<double> &LogP,
                     const std::vector<const double *> &Masks,
                     const std::vector<double> &DEntropy,
                     Mat<double> &DLogits);

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_BACKWARD_H
