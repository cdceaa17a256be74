#ifndef PEERCACHE_AUXSEL_PASTRY_TRIE_BUILDER_H_
#define PEERCACHE_AUXSEL_PASTRY_TRIE_BUILDER_H_

#include "auxsel/selection_types.h"
#include "common/status.h"
#include "trie/binary_trie.h"

namespace peercache::auxsel {

/// Builds the selection trie for a SelectionInput: every peer of V becomes a
/// leaf with its frequency and delay bound; every core neighbor becomes (or
/// is flagged on) a leaf with is_core set. Core ids equal to self_id are
/// ignored. Fails as ValidateInput does. Built bottom-up from the input's
/// SortedView: one O(n log n) sort, then each vertex once.
Result<trie::BinaryTrie> BuildSelectionTrie(const SelectionInput& input);

/// Maps each QoS-constrained peer to its constraint vertex: the shallowest
/// trie vertex on the peer's root path whose depth >= bits - delay_bound
/// (paper Sec. IV-D: "the subtree of height x that contains the leaf must
/// have a neighbor"). Returns the distinct constraint vertex handles; a
/// bound >= bits constrains nothing (any neighbor anywhere satisfies it) and
/// maps to the root.
std::vector<int> QosConstraintVertices(const trie::BinaryTrie& trie,
                                       const SelectionInput& input);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_PASTRY_TRIE_BUILDER_H_
