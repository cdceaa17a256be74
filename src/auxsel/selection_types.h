#ifndef PEERCACHE_AUXSEL_SELECTION_TYPES_H_
#define PEERCACHE_AUXSEL_SELECTION_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace peercache::auxsel {

/// One peer the selecting node has seen queries for (an element of the
/// paper's set V), with its observed access frequency.
struct PeerFreq {
  uint64_t id = 0;
  double frequency = 0.0;
  /// QoS delay bound in hops (paper Secs. IV-D, V-C): queries to this peer
  /// must be answerable within this many hops. Negative = unconstrained.
  int delay_bound = -1;
};

/// Input to every auxiliary-neighbor selection algorithm.
///
/// `peers` is V: it must not contain `self_id`, and ids must be distinct.
/// `core_ids` is N_s, the core neighbors installed by the underlying DHT;
/// core ids may or may not also appear in `peers` (a core neighbor the node
/// has seen queries for carries a frequency; one it hasn't contributes no
/// cost but still shortens other peers' routes).
struct SelectionInput {
  int bits = 32;                   ///< Id length b.
  uint64_t self_id = 0;            ///< The node running the selection (s).
  std::vector<PeerFreq> peers;     ///< V with frequencies.
  std::vector<uint64_t> core_ids;  ///< N_s.
  int k = 0;                       ///< Number of auxiliary pointers to pick.
};

/// Output of a selection algorithm.
struct Selection {
  /// Chosen auxiliary neighbor ids, |chosen| <= k (fewer only when V has
  /// fewer than k eligible candidates).
  std::vector<uint64_t> chosen;
  /// Paper Eq. 1 cost of N_s ∪ chosen over V: Σ_v f_v (1 + d(v, N ∪ A)).
  double cost = 0.0;
};

/// Validates a SelectionInput: ids in range, peers distinct, self excluded,
/// k >= 0, frequencies finite and nonnegative. O(|V| log |V|); with empty
/// `peers`, the node's own fields (bits, k, self_id, core ids) in O(|N|).
Status ValidateInput(const SelectionInput& input);

/// Validates a peer pool shared by many selecting nodes, once: bits in
/// [1, 64], every id below 2^bits, ids distinct, frequencies finite and
/// nonnegative. Fails with ValidateInput's InvalidArgument for the same
/// faults; the pool may hold the selecting nodes themselves.
/// O(|pool| log |pool|).
Status ValidatePool(std::span<const PeerFreq> pool, int bits);

/// One element of V ∪ N_s: a peer, a core neighbor, or a core the node has
/// also seen queries for. A core outside V has frequency 0 and no bound.
struct ViewEntry {
  uint64_t id = 0;
  double frequency = 0.0;
  int delay_bound = -1;
  bool is_core = false;
};

/// The validated input as V ∪ N_s in ascending id order, self excluded: a
/// repeated core, or a core that is also a peer, is one entry that keeps the
/// peer's frequency and delay bound. Fails as ValidateInput does. Every
/// selector builds its structure from this view in one ordered pass.
/// O((|V| + |N|) log (|V| + |N|)).
Result<std::vector<ViewEntry>> SortedView(const SelectionInput& input);

// The Eq. 1 evaluators below sum Σ_v f_v (1 + min_{w ∈ N ∪ aux} d(w, v))
// over `input.peers` in input order, with d(v, ∅) = b. Each sorts N ∪ aux
// once and finds every peer's nearest neighbour by binary search, so an
// evaluation costs O((|V| + |W|) log |W|) for W = N ∪ aux; a peer whose
// frequency compares equal to 0 adds +0.0 and is skipped. Every value is
// bit-identical to the O(|V| · |W|) scan over all of W
// (selection_types_test keeps that scan as the oracle).

/// Eq. 1 for Pastry's distance estimate d_wv = b - lcp(w, v). The w sharing
/// the longest prefix with v is v's predecessor or successor in id order.
/// Selectors compute the same value internally via the trie decomposition.
double EvaluatePastryCost(const SelectionInput& input,
                          const std::vector<uint64_t>& aux);

/// Eq. 1 for Chord's distance estimate d_wv = bitlen((v - w) mod 2^b) for
/// w clockwise between self and v, and d_wv = b for a neighbor past v,
/// matching the Chord routing policy. The best w is the one with the largest
/// cw(self, w) <= cw(self, v).
double EvaluateChordCost(const SelectionInput& input,
                         const std::vector<uint64_t>& aux);

/// Eq. 1 for Kademlia's distance estimate d_wv = bitlen(w XOR v), smallest
/// at v's predecessor or successor in id order. Since bitlen(w XOR v) =
/// b - lcp(w, v), this is the Pastry estimate re-derived in the XOR metric —
/// the identity that lets the trie-shaped selection machinery serve both
/// geometries (see docs/ALGORITHMS.md).
double EvaluateKademliaCost(const SelectionInput& input,
                            const std::vector<uint64_t>& aux);

/// True iff every delay bound in `input.peers` is met by N ∪ aux under the
/// Pastry distance estimate. The three QoS checks find each bounded peer's
/// nearest neighbour as the evaluators do.
bool PastryQosSatisfied(const SelectionInput& input,
                        const std::vector<uint64_t>& aux);

/// True iff every delay bound in `input.peers` is met by N ∪ aux under the
/// Chord distance estimate.
bool ChordQosSatisfied(const SelectionInput& input,
                       const std::vector<uint64_t>& aux);

/// True iff every delay bound in `input.peers` is met by N ∪ aux under the
/// Kademlia XOR distance estimate.
bool KademliaQosSatisfied(const SelectionInput& input,
                          const std::vector<uint64_t>& aux);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_SELECTION_TYPES_H_
