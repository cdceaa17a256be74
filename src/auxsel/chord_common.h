#ifndef PEERCACHE_AUXSEL_CHORD_COMMON_H_
#define PEERCACHE_AUXSEL_CHORD_COMMON_H_

#include <cstdint>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/status.h"

namespace peercache::auxsel {

/// Preprocessed Chord selection instance, in the paper's "zero-node" frame
/// (Sec. V): every id is shifted by -self_id so the selecting node sits at 0
/// and peers become successors 1..n sorted by clockwise id distance.
///
/// All arrays are 1-indexed over successor positions; index 0 is the
/// zero-node itself. Core neighbors that are not in V are added as
/// zero-frequency successors (they carry no cost but shorten routes).
struct ChordInstance {
  int bits = 0;
  int n = 0;                      ///< Number of successors.
  std::vector<uint64_t> ids;      ///< ids[1..n]: shifted ids, ascending.
  std::vector<uint64_t> orig_id;  ///< orig_id[1..n]: unshifted ids.
  std::vector<double> freq;       ///< freq[1..n].
  std::vector<int> delay_bound;   ///< delay_bound[1..n]; negative = none.
  std::vector<bool> is_core;      ///< is_core[1..n].
  std::vector<double> F;          ///< F[m] = Σ_{l<=m} freq[l]; F[0] = 0.
  /// core_serve[l]: hop estimate from the nearest core at-or-before l to l
  /// (0 when l itself is core); `bits` when no core precedes l.
  std::vector<int> core_serve;
  /// B[m] = Σ_{l<=m} freq[l]·core_serve[l] — the cost of nodes 1..m served
  /// by core neighbors only (paper's C_0). B[0] = 0.
  std::vector<double> B;
  /// next_core[j] = smallest core index > j, or n+1 if none; j in 0..n.
  std::vector<int> next_core;
  /// Candidate (non-core) successor indices, ascending.
  std::vector<int> candidates;
  /// candidates_upto[m] = number of candidates <= m, m in 0..n; a
  /// candidate j is candidates[candidates_upto[j] - 1].
  std::vector<int> candidates_upto;

  /// Clockwise hop estimate from successor j to successor m (j <= m):
  /// bitlen(ids[m] - ids[j]).
  int Hop(int j, int m) const;

  /// Cost s(j, m) of paper Eq. 8/10: total weighted distance of successors
  /// in (j, m] when an auxiliary pointer sits at j and core neighbors are
  /// in place (no other auxiliary pointer in (j, m]). O(m - j).
  double SlowS(int j, int m) const;
};

/// Builds the instance from the input's SortedView rotated at self_id, which
/// is the clockwise order: one O(n log n) sort, then O(n).
Result<ChordInstance> BuildChordInstance(const SelectionInput& input);

/// Reconstructs a Selection from chosen successor indices.
Selection MakeChordSelection(const SelectionInput& input,
                             const ChordInstance& inst,
                             const std::vector<int>& chosen_indices);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_CHORD_COMMON_H_
