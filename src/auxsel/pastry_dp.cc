#include "auxsel/pastry_dp.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>
#include <vector>

#include "auxsel/pastry_trie_builder.h"
#include "trie/binary_trie.h"

namespace peercache::auxsel {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-vertex DP table: cost[j] is the optimal edge-penalty cost within the
/// subtree using exactly j auxiliary pointers (j <= candidate count), with
/// sets[j] the witnessing pointer ids. Costs exclude the vertex's own
/// incoming edge; parents add it via WithEdge.
struct Table {
  std::vector<double> cost;
  std::vector<std::vector<uint64_t>> sets;
};

class PastryDpSolver {
 public:
  PastryDpSolver(const trie::BinaryTrie& trie, int k,
                 const std::vector<int>& marked)
      : trie_(trie), k_(k), marked_(marked.begin(), marked.end()) {}

  /// Solves the subtree rooted at v. Recursion depth is bounded by the
  /// number of bits (compressed-trie path length), so plain recursion is
  /// safe.
  Table Solve(int v) {
    if (trie_.IsLeaf(v)) return SolveLeaf(v);
    const int c0 = trie_.Child(v, 0);
    const int c1 = trie_.Child(v, 1);
    if (c0 == trie::BinaryTrie::kNil || c1 == trie::BinaryTrie::kNil) {
      // Only the root can have a single child.
      int c = (c0 != trie::BinaryTrie::kNil) ? c0 : c1;
      assert(c != trie::BinaryTrie::kNil);
      Table ct = Solve(c);
      return ApplyEdge(c, std::move(ct));
    }
    Table t0 = ApplyEdge(c0, Solve(c0));
    Table t1 = ApplyEdge(c1, Solve(c1));
    const int cap0 = static_cast<int>(t0.cost.size()) - 1;
    const int cap1 = static_cast<int>(t1.cost.size()) - 1;
    const int jmax = std::min(k_, cap0 + cap1);
    Table out;
    out.cost.assign(static_cast<size_t>(jmax) + 1, kInf);
    out.sets.resize(static_cast<size_t>(jmax) + 1);
    for (int j = 0; j <= jmax; ++j) {
      int best_i = -1;
      double best = kInf;
      const int ilo = std::max(0, j - cap1);
      const int ihi = std::min(j, cap0);
      for (int i = ilo; i <= ihi; ++i) {
        double c = t0.cost[i] + t1.cost[j - i];
        if (c < best) {
          best = c;
          best_i = i;
        }
      }
      out.cost[static_cast<size_t>(j)] = best;
      if (best_i >= 0 && best < kInf) {
        auto& set = out.sets[static_cast<size_t>(j)];
        set = t0.sets[static_cast<size_t>(best_i)];
        const auto& other = t1.sets[static_cast<size_t>(j - best_i)];
        set.insert(set.end(), other.begin(), other.end());
      }
    }
    return out;
  }

  /// Adds child c's incoming-edge penalty (paper Eq. 3's indicator term) and
  /// the QoS infeasibility mark to its table, producing the contribution as
  /// seen by the parent.
  Table ApplyEdge(int c, Table t) {
    const bool has_neighbor = trie_.SubtreeHasNeighbor(c);
    if (!has_neighbor && !t.cost.empty()) {
      if (marked_.count(c)) {
        t.cost[0] = kInf;  // QoS: this subtree must receive a pointer
      } else {
        t.cost[0] += trie_.EdgeLength(c) * trie_.SubtreeFrequency(c);
      }
    }
    return t;
  }

 private:
  Table SolveLeaf(int v) {
    const trie::LeafInfo& leaf = trie_.LeafAt(v);
    Table t;
    if (leaf.is_core || leaf.preselected) {
      t.cost = {0.0};
      t.sets = {{}};
    } else if (k_ == 0) {
      t.cost = {0.0};
      t.sets = {{}};
    } else {
      t.cost = {0.0, 0.0};
      t.sets = {{}, {leaf.id}};
    }
    return t;
  }

  const trie::BinaryTrie& trie_;
  const int k_;
  std::unordered_set<int> marked_;
};

Result<Selection> SelectPastryDpImpl(const SelectionInput& input,
                                     bool honor_qos) {
  auto trie_r = BuildSelectionTrie(input);
  if (!trie_r.ok()) return trie_r.status();
  const trie::BinaryTrie& trie = trie_r.value();

  Selection sel;
  if (trie.root() == trie::BinaryTrie::kNil) {
    sel.cost = 0.0;
    return sel;
  }

  std::vector<int> marked;
  if (honor_qos) marked = QosConstraintVertices(trie, input);

  PastryDpSolver solver(trie, input.k, marked);
  Table root = solver.Solve(trie.root());
  // The root itself can be a constraint vertex (delay bound >= bits); its
  // "edge" has length 0 but the infeasibility mark still applies.
  root = solver.ApplyEdge(trie.root(), std::move(root));

  int best_j = -1;
  double best = kInf;
  for (size_t j = 0; j < root.cost.size(); ++j) {
    if (root.cost[j] < best) {  // strict: prefer fewer pointers on ties
      best = root.cost[j];
      best_j = static_cast<int>(j);
    }
  }
  if (best_j < 0 || best == kInf) {
    return Status::Infeasible("QoS delay bounds cannot be met with k pointers");
  }
  sel.chosen = root.sets[static_cast<size_t>(best_j)];
  std::sort(sel.chosen.begin(), sel.chosen.end());
  sel.cost = EvaluatePastryCost(input, sel.chosen);
  return sel;
}

}  // namespace

Result<Selection> SelectPastryDp(const SelectionInput& input) {
  return SelectPastryDpImpl(input, /*honor_qos=*/false);
}

Result<Selection> SelectPastryDpQos(const SelectionInput& input) {
  return SelectPastryDpImpl(input, /*honor_qos=*/true);
}

}  // namespace peercache::auxsel
