//===- Lstm.h - LSTM cell -----------------------------------------*- C++-*-===//
///
/// \file
/// A standard LSTM cell. The paper feeds the producer and consumer
/// representation vectors sequentially into an LSTM with 512 units and
/// uses the final hidden state as the producer-consumer embedding
/// (Sec. V-A1).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_NN_LSTM_H
#define MLIRRL_NN_LSTM_H

#include "nn/Layers.h"

namespace mlirrl {
namespace nn {

/// One LSTM cell over compressed sparse input batches (observation
/// features are ~97% zeros).
class LstmCell {
public:
  LstmCell() = default;
  LstmCell(unsigned In, unsigned Hidden, Rng &Rng);

  /// Runs a sequence of [B x In] input batches from a zero state and
  /// returns the final hidden state (the embedding), one row per batch
  /// element. Rows never interact, so row r of a batched run is
  /// bitwise-identical to a width-1 run of that sequence.
  Tensor runSequenceSparse(
      const std::vector<std::shared_ptr<const SparseRows>> &Sequence) const;

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
