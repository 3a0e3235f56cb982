//===- Lstm.h - LSTM cell -----------------------------------------*- C++-*-===//
///
/// \file
/// A standard LSTM cell. The paper feeds the producer and consumer
/// representation vectors sequentially into an LSTM with 512 units and
/// uses the final hidden state as the producer-consumer embedding
/// (Sec. V-A1). The cell owns the gate parameters; lstmForward
/// (nn/Inference.h) and lstmBackward (nn/Backward.h) run it over
/// batches of sparse feature rows (support/SparseRows.h).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_LSTM_H
#define MLIRRL_NN_LSTM_H

#include "nn/Layers.h"

#include <array>

namespace mlirrl {
namespace nn {

/// One LSTM cell's gates.
class LstmCell {
public:
  LstmCell() = default;
  LstmCell(unsigned In, unsigned Hidden, Rng &Rng);

  /// The input, forget, cell and output gates, each over [x, h].
  std::array<const Linear *, 4> gates() const {
    return {&InputGate, &ForgetGate, &CellGate, &OutputGate};
  }
  /// The gates' (weight, bias) pairs, in gates() order.
  std::vector<Tensor> parameters() const;
  unsigned hiddenSize() const { return Hidden; }
  /// Width of one input row; the gates read [x, h], inputSize() +
  /// hiddenSize() wide.
  unsigned inputSize() const { return InputGate.inFeatures() - Hidden; }

private:
  unsigned Hidden = 0;
  // Gate layers over the concatenated [x, h] input.
  Linear InputGate, ForgetGate, CellGate, OutputGate;
};

} // namespace nn
} // namespace mlirrl

#endif // MLIRRL_NN_LSTM_H
