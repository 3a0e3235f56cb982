//===- SparseRows.h - Feature rows as their nonzero entries ------*- C++-*-===//
///
/// \file
/// The one form of a feature row, from the featurizer to the LSTM gates:
/// its nonzero (column, value) pairs in ascending column order. An
/// observation's rows are ~97% zeros (padding, masking, one-hot slabs),
/// so every layer stores and reads only the nonzeros, and a gate's
/// product over them accumulates k ascending exactly as the dense
/// product does.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_SUPPORT_SPARSEROWS_H
#define MLIRRL_SUPPORT_SPARSEROWS_H

#include <vector>

namespace mlirrl {

/// One nonzero of a feature row.
struct SparseEntry {
  unsigned Col = 0;
  double Value = 0.0;
};

/// A feature row's nonzero entries, strictly ascending by column; no
/// entry holds +0.0 or -0.0.
using SparseRow = std::vector<SparseEntry>;

/// A batch of rows, each Cols wide: the input an LSTM step reads.
struct SparseRows {
  unsigned Rows = 0;
  unsigned Cols = 0;
  std::vector<SparseRow> RowEntries;
};

} // namespace mlirrl

#endif // MLIRRL_SUPPORT_SPARSEROWS_H
