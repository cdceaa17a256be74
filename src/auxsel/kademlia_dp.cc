#include "auxsel/kademlia_dp.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace peercache::auxsel {

namespace {

/// Per-budget optimum for one trie subtree under *exact*-j semantics:
/// cost[j] is the minimal uncovered-subtree mass at or below this vertex
/// when exactly j candidates are chosen inside it (so j >= 1 implies the
/// subtree is covered), and sets[j] is a witness. Entries exist for
/// j = 0 .. min(k, candidates in range).
struct Table {
  std::vector<double> cost;
  std::vector<std::vector<uint64_t>> sets;
};

class Solver {
 public:
  /// `elements` is the input's SortedView.
  Solver(std::vector<ViewEntry> elements, int bits, int k)
      : elements_(std::move(elements)), bits_(bits), k_(k) {
    const size_t n = elements_.size();
    freq_prefix_.assign(n + 1, 0.0);
    core_prefix_.assign(n + 1, 0);
    cand_prefix_.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      freq_prefix_[i + 1] = freq_prefix_[i] + elements_[i].frequency;
      core_prefix_[i + 1] = core_prefix_[i] + (elements_[i].is_core ? 1 : 0);
      cand_prefix_[i + 1] = cand_prefix_[i] + (elements_[i].is_core ? 0 : 1);
    }
  }

  std::vector<uint64_t> Solve() {
    if (elements_.empty()) return {};
    Table root = SolveRange(0, elements_.size(), bits_, /*is_root=*/true);
    size_t best_j = 0;
    for (size_t j = 1; j < root.cost.size(); ++j) {
      if (root.cost[j] < root.cost[best_j]) best_j = j;  // ties: fewer
    }
    std::vector<uint64_t> chosen = std::move(root.sets[best_j]);
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  }

 private:
  /// The subtree spanning elements [lo, hi) whose ids still disagree on
  /// the low `height` bits. `is_root` suppresses the vertex's own
  /// uncovered-mass term (Eq. 1 charges the b levels below the root).
  Table SolveRange(size_t lo, size_t hi, int height, bool is_root) {
    const double freq = freq_prefix_[hi] - freq_prefix_[lo];
    const bool has_core = core_prefix_[hi] > core_prefix_[lo];
    const int cap =
        std::min(k_, static_cast<int>(cand_prefix_[hi] - cand_prefix_[lo]));

    if (hi - lo == 1) {
      // A singleton collapses its whole descending chain: height + 1
      // vertices (this one plus one per remaining bit) all carry the same
      // frequency mass and the same coverage state.
      const int chain = height + (is_root ? 0 : 1);
      Table t;
      t.cost.push_back(has_core ? 0.0 : chain * freq);
      t.sets.emplace_back();
      if (cap >= 1) {
        t.cost.push_back(0.0);
        t.sets.push_back({elements_[lo].id});
      }
      return t;
    }

    // Split at the highest bit the range still disagrees on. Ranges with
    // >= 2 distinct ids always split before height reaches 0.
    const int bit = height - 1;
    const size_t mid = SplitPoint(lo, hi, bit);
    if (mid == lo || mid == hi) {
      // Unary chain vertex: all ids agree on this bit too; descend and
      // charge this vertex's own uncovered mass on the way back up (the
      // root carries no such charge — Eq. 1 counts the b levels below it).
      Table t = SolveRange(lo, hi, bit, /*is_root=*/false);
      if (!is_root && !has_core) t.cost[0] += freq;
      return t;
    }

    Table left = SolveRange(lo, mid, bit, /*is_root=*/false);
    Table right = SolveRange(mid, hi, bit, /*is_root=*/false);
    Table t;
    t.cost.assign(static_cast<size_t>(cap) + 1, 0.0);
    t.sets.assign(static_cast<size_t>(cap) + 1, {});
    for (int j = 0; j <= cap; ++j) {
      bool found = false;
      for (size_t j1 = 0; j1 < left.cost.size(); ++j1) {
        const size_t j2 = static_cast<size_t>(j) - j1;
        if (j1 > static_cast<size_t>(j) || j2 >= right.cost.size()) continue;
        const double cost = left.cost[j1] + right.cost[j2];
        if (!found || cost < t.cost[static_cast<size_t>(j)]) {
          found = true;
          t.cost[static_cast<size_t>(j)] = cost;
          t.sets[static_cast<size_t>(j)] = left.sets[j1];
          t.sets[static_cast<size_t>(j)].insert(
              t.sets[static_cast<size_t>(j)].end(), right.sets[j2].begin(),
              right.sets[j2].end());
        }
      }
    }
    if (!is_root && !has_core) t.cost[0] += freq;  // j = 0 leaves T uncovered
    return t;
  }

  /// First index in [lo, hi) whose id has `bit` set. The range shares all
  /// bits above `bit` and is id-sorted, so this is a clean split point.
  size_t SplitPoint(size_t lo, size_t hi, int bit) const {
    const uint64_t probe = uint64_t{1} << bit;
    size_t a = lo, b = hi;
    while (a < b) {
      const size_t m = a + (b - a) / 2;
      if ((elements_[m].id & probe) != 0) {
        b = m;
      } else {
        a = m + 1;
      }
    }
    return a;
  }

  std::vector<ViewEntry> elements_;
  int bits_;
  int k_;
  std::vector<double> freq_prefix_;
  std::vector<size_t> core_prefix_;
  std::vector<size_t> cand_prefix_;
};

}  // namespace

Result<Selection> SelectKademliaDp(const SelectionInput& input) {
  auto view = SortedView(input);
  if (!view.ok()) return view.status();
  Selection sel;
  sel.chosen = Solver(std::move(view).value(), input.bits, input.k).Solve();
  sel.cost = EvaluateKademliaCost(input, sel.chosen);
  return sel;
}

}  // namespace peercache::auxsel
