//===- Featurizer.h - State representation (Fig. 1) --------------*- C++-*-===//
///
/// \file
/// Builds the representation vector of a Linalg operation exactly as the
/// paper's Fig. 1 pipeline does: operation-type one-hot, loop ranges
/// (upper bound + iterator type), vectorization pre-condition flag,
/// indexing maps as D x (N+1) access matrices, arithmetic operation
/// counts, and the one-hot action history of Appendix A (a tau x N x M
/// slab for tiled transformations and a tau x N x N slab for
/// interchange).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_ENV_FEATURIZER_H
#define MLIRRL_ENV_FEATURIZER_H

#include "env/Config.h"
#include "ir/LinalgOp.h"
#include "support/SparseRows.h"
#include "transforms/Schedule.h"

#include <vector>

namespace mlirrl {

/// The recorded action history of one operation (Appendix A): for each
/// time step, the tile sizes chosen per loop (index into the candidate
/// set) or the interchange placement, or nothing.
struct ActionHistory {
  struct Entry {
    TransformKind Kind = TransformKind::NoTransformation;
    /// For tiled kinds: per-level tile candidate index (size N).
    std::vector<unsigned> TileSizeIdx;
    /// For interchange: Placement[i] = loop placed at position i; during
    /// level-pointer sub-steps this is partially filled (the paper feeds
    /// the partial permutation back so the agent knows the stage).
    std::vector<int> Placement;
    bool Used = false;
  };
  std::vector<Entry> Entries;

  /// Records a completed tiled transformation at step \p Step.
  void recordTiled(unsigned Step, TransformKind Kind,
                   std::vector<unsigned> TileSizeIdx);
  /// Records (possibly partially) an interchange at step \p Step.
  void recordInterchange(unsigned Step, std::vector<int> Placement);

  void ensureSize(unsigned Steps);
};

/// Computes feature rows of fixed layout from (operation, history).
///
/// The layout is a static prefix (operation type, loop ranges,
/// vectorization flag, access matrices, arithmetic counts -- a function
/// of the operation alone) followed by the action-history slabs. A row
/// is written as its nonzero entries, ascending by column
/// (support/SparseRows.h): that is the only form an observation's rows
/// take, from here to the LSTM gates. The split is exposed so the
/// environment can cache the static prefix per operation and append
/// only the history entries (delta featurization); featurize() itself
/// is the concatenation, so both paths produce bitwise-identical rows.
class Featurizer {
public:
  explicit Featurizer(EnvConfig Config);

  /// Total feature row width (fixed across operations).
  unsigned featureSize() const;

  /// Width of the operation-only prefix (featureSize() minus the
  /// history slabs).
  unsigned staticFeatureSize() const;

  /// Featurizes one operation with its action history.
  SparseRow featurize(const LinalgOp &Op, const ActionHistory &History) const;

  /// The operation-only prefix (sections 1-5 of the layout). Never
  /// empty: the operation-type one-hot always holds a 1.
  SparseRow featurizeStatic(const LinalgOp &Op) const;

  /// Appends the history slabs' entries (section 6) to \p Out, which
  /// must hold a static prefix. An empty history appends nothing.
  void appendHistory(const ActionHistory &History, SparseRow &Out) const;

private:
  EnvConfig Config;
};

} // namespace mlirrl

#endif // MLIRRL_ENV_FEATURIZER_H
