#ifndef PEERCACHE_AUXSEL_PASTRY_GREEDY_H_
#define PEERCACHE_AUXSEL_PASTRY_GREEDY_H_

#include <cstdint>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/status.h"
#include "trie/binary_trie.h"

namespace peercache::auxsel {

/// One marginal gain: choosing `id` as the next auxiliary pointer inside a
/// subtree reduces the subtree's Eq. 1 cost by `gain`.
struct GainEntry {
  double gain = 0.0;
  uint64_t id = 0;
};

/// The optimal O(n·k) greedy selector of paper Sec. IV-B, in incremental
/// form (Sec. IV-C).
///
/// Every trie vertex caches the marginal-gain sequence of optimally placing
/// 1, 2, ..., k pointers in its subtree (sorted nonincreasing — this is the
/// paper's property (P)/Lemma 4.1: optimal pointer sets are nested and have
/// diminishing returns). A parent's sequence is the 2-way merge of its
/// children's sequences, with the child's incoming-edge penalty credited to
/// the first pointer placed in a subtree that contains no core neighbor
/// (paper Eq. 4 in prefix-sum form). The root's first j entries therefore
/// witness the optimal j-pointer selection for every j <= k simultaneously.
///
/// Mutations (peer join/leave, popularity change — Sec. IV-C) recompute only
/// the gain lists on the root path of the touched leaf: O(b·k) per update.
class PastryGainTree {
 public:
  /// Creates an empty gain tree over `bits`-bit ids with pointer budget k.
  PastryGainTree(int bits, int k);

  /// Builds the tree for an input: the bottom-up BuildSelectionTrie, then
  /// every gain list once in post-order. O(n log n) for the sort, then
  /// O(n·k). Fails as ValidateInput does.
  static Result<PastryGainTree> FromInput(const SelectionInput& input);

  int k() const { return k_; }
  const trie::BinaryTrie& trie() const { return trie_; }

  /// Adds a peer (or core neighbor). O(b·k).
  Status AddPeer(uint64_t id, double frequency, bool is_core = false);
  /// Removes a peer entirely. O(b·k).
  Status RemovePeer(uint64_t id);
  /// Updates a peer's observed frequency. O(b·k).
  Status UpdateFrequency(uint64_t id, double frequency);
  /// Flags a peer as a core neighbor (or clears the flag). O(b·k).
  Status SetCore(uint64_t id, bool is_core);
  /// Flags a peer as preselected: it counts as a neighbor but is excluded
  /// from further candidacy (used by the QoS forcing pass). O(b·k).
  Status SetPreselected(uint64_t id, bool preselected);

  /// The optimal auxiliary set: ids of the root's gain list (size
  /// min(k, #candidates)), best first.
  std::vector<uint64_t> SelectAuxiliary() const;

  /// Gain list cached at a vertex (as exported to its parent: the first
  /// entry includes the vertex's incoming-edge credit). Test/QoS accessor.
  const std::vector<GainEntry>& GainsAt(int vertex) const {
    return lists_[static_cast<size_t>(vertex)];
  }

  /// Total gain of the selected set: Cost(∅) - Cost(selected).
  double TotalGain() const;

  /// Recomputes every vertex from scratch and verifies the cached lists
  /// match. Test helper; O(n·k).
  Status CheckConsistency();

 private:
  void EnsureCapacity();
  /// Recomputes both children of `parent` (whose incoming edges may have
  /// changed after a structural mutation), then the path from `parent` to
  /// the root. With a kNil parent, recomputes from `fallback_leaf` instead.
  void RefreshChildrenThenPath(int parent, int fallback_leaf);
  /// Recomputes lists_ from `v` up to the root.
  void RecomputePath(int v);
  /// Recomputes one vertex's exported list from its children (or leaf).
  void RecomputeVertex(int v);
  void RecomputeAll();

  trie::BinaryTrie trie_;
  int k_;
  std::vector<std::vector<GainEntry>> lists_;
};

/// One-shot greedy selection (paper Sec. IV-B): builds a gain tree from the
/// input and reads off the top-k set. Guaranteed cost-equal to
/// SelectPastryDp; O(n·k) after one O(n log n) sort.
Result<Selection> SelectPastryGreedy(const SelectionInput& input);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_PASTRY_GREEDY_H_
