#ifndef PEERCACHE_AUXSEL_KADEMLIA_DP_H_
#define PEERCACHE_AUXSEL_KADEMLIA_DP_H_

#include "auxsel/selection_types.h"
#include "common/status.h"

namespace peercache::auxsel {

/// Exact dynamic program for Kademlia auxiliary-neighbor selection under
/// the XOR distance estimate d_wv = bitlen(w XOR v) (paper Eq. 1 applied
/// to the Kademlia geometry).
///
/// Because bitlen(w XOR v) = b - lcp(w, v), the cost decomposes over the
/// binary id trie exactly as in the Pastry case: Eq. 1 equals
///
///   F(V) + Σ_u [subtree(u) ∩ (N ∪ A) = ∅] · F(subtree(u))
///
/// summed over all non-root trie vertices u. This implementation exploits
/// the decomposition directly on the id-sorted element array — every trie
/// subtree is a contiguous range, split at each level by one bit — with no
/// materialized trie, so it shares no code with the Pastry gain tree
/// (pastry_greedy.h) that selects for Kademlia and that it serves as the
/// differential reference for. O(n·k²).
Result<Selection> SelectKademliaDp(const SelectionInput& input);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_KADEMLIA_DP_H_
