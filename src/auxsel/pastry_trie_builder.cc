#include "auxsel/pastry_trie_builder.h"

#include <algorithm>
#include <unordered_set>

namespace peercache::auxsel {

Result<trie::BinaryTrie> BuildSelectionTrie(const SelectionInput& input) {
  auto view = SortedView(input);
  if (!view.ok()) return view.status();
  std::vector<trie::LeafInfo> leaves;
  leaves.reserve(view->size());
  for (const ViewEntry& e : view.value()) {
    trie::LeafInfo leaf;
    leaf.id = e.id;
    leaf.frequency = e.frequency;
    leaf.is_core = e.is_core;
    leaf.delay_bound = e.delay_bound;
    leaves.push_back(leaf);
  }
  return trie::BinaryTrie::FromSortedLeaves(input.bits, leaves);
}

std::vector<int> QosConstraintVertices(const trie::BinaryTrie& trie,
                                       const SelectionInput& input) {
  std::unordered_set<int> marked;
  for (const PeerFreq& p : input.peers) {
    if (p.delay_bound < 0) continue;
    // The distance estimate is capped at `bits`, so a bound of `bits` or
    // more is satisfied vacuously (even by an empty neighbor set).
    if (p.delay_bound >= trie.bits()) continue;
    int leaf = trie.FindLeaf(p.id);
    if (leaf == trie::BinaryTrie::kNil) continue;
    const int min_depth = trie.bits() - p.delay_bound;
    int v = leaf;
    // Climb to the shallowest vertex still deep enough; a nonpositive
    // min_depth climbs all the way to the root.
    while (trie.Parent(v) != trie::BinaryTrie::kNil &&
           trie.Depth(trie.Parent(v)) >= min_depth) {
      v = trie.Parent(v);
    }
    marked.insert(v);
  }
  std::vector<int> out(marked.begin(), marked.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace peercache::auxsel
