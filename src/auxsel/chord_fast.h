#ifndef PEERCACHE_AUXSEL_CHORD_FAST_H_
#define PEERCACHE_AUXSEL_CHORD_FAST_H_

#include <cstddef>
#include <vector>

#include "auxsel/chord_common.h"
#include "auxsel/selection_types.h"
#include "common/status.h"

namespace peercache::auxsel {

/// The preprocessed state of the paper's accelerated Chord selection
/// (Sec. V-B): the zero-node-frame ChordInstance plus the jump tables
/// p_j(r) / W_j(r) for every candidate. Building it is one O(n log n) sort
/// and an O(n·b) pointer sweep; solving the DP on top is O(n·k·log n).
///
/// The plan is exposed (rather than hidden inside SelectChordFast) so an
/// incremental maintainer can keep it alive across churn rounds:
///
///  * frequency-only deltas leave `ids`, `candidates`, `next_core`,
///    `core_serve`, and every jump pointer p_j(r) untouched — those depend
///    only on membership and core flags. `RefreshWeights` rebuilds just the
///    weight planes (freq/F/B and W_j) over the stored pointers, then
///    `Solve` re-runs the DP;
///  * membership or core-set deltas invalidate the ring geometry, so the
///    maintainer rebuilds the plan with `Build`.
class ChordFastPlan {
 public:
  ChordFastPlan() = default;

  /// Builds instance + jump tables from an input. O(n log n + n·b).
  static Result<ChordFastPlan> Build(const SelectionInput& input);

  /// Reloads frequencies (and delay bounds) from `input` into the existing
  /// geometry, recomputing F, B, and the W_j planes over the stored jump
  /// pointers. Requires the same membership and core flags the plan was
  /// built with, and a positive frequency on every candidate; otherwise
  /// returns InvalidArgument and leaves the plan as it was.
  /// O(n log n + n·b).
  Status RefreshWeights(const SelectionInput& input);

  /// Runs the concave-QI layered DP (paper Eq. 7) and reconstructs the
  /// selection. O(n·k·log n). `input` must be the instance this plan
  /// currently reflects.
  Result<Selection> Solve(const SelectionInput& input) const;

  /// s(j, m) of paper Eq. 8/10 in O(1); j must be a candidate, j <= m.
  double S(int j, int m) const;

  const ChordInstance& instance() const { return inst_; }

 private:
  /// Fills candidate j's row. `reach[r]` holds the previous candidate's
  /// p(r) and advances to p_j(r).
  void BuildRow(size_t row, int j, std::vector<int>& reach);
  void RefreshRow(size_t row, int j);

  ChordInstance inst_;
  size_t stride_ = 0;      ///< bits + 1 (row width of p_/w_).
  std::vector<int> p_;     ///< p_j(r), one row per candidate, row-major.
  std::vector<double> w_;  ///< W_j(r), same layout.
};

/// The paper's accelerated Chord selection (Sec. V-B), O(n·(b + k·log n))
/// time after one O(n log n) sort, and O(n·b) space.
///
/// Two ingredients, exactly as the paper prescribes:
///
/// 1. *Jump tables.* For every candidate j, p_j(r) is the farthest successor
///    within hop estimate r of j, and W_j(r) the weighted distance of all
///    successors in (j, p_j(r)] (paper Eq. 9). With the core-split of paper
///    Eq. 10 handled through the cores-only prefix cost B, any s(j, m)
///    evaluates in O(1). p_j(r) never decreases in j, so one forward sweep
///    per r fills every row: O(n·b) in all.
///
/// 2. *Concave DP.* s(j, m) satisfies the concave (inverse) quadrangle
///    inequality — s(j,m') − s(j,m) = Σ_{l∈(m,m']} f_l·serve(j,l) is
///    nonincreasing in j because serve(j,l) is — so every DP layer of
///    recurrence Eq. 7 is a totally monotone row-minimum problem. We solve
///    each layer with divide-and-conquer argmin monotonicity (O(n log n)
///    evaluations), reading each row's eligible candidates from the
///    instance's `candidates_upto` in O(1). The paper cites SMAWK ([9])
///    here; measured on these layers it returned the same argmins but
///    evaluated s() more often (2.7k vs 1.9k per layer at n = 250), because
///    ineligible candidates (cand > m) already keep the divide-and-conquer's
///    column ranges narrow.
///
/// Cost-equal to SelectChordDp on every input (enforced by property tests).
/// Equivalent to ChordFastPlan::Build + Solve.
Result<Selection> SelectChordFast(const SelectionInput& input);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_CHORD_FAST_H_
