#ifndef PEERCACHE_AUXSEL_SELECTION_TYPES_H_
#define PEERCACHE_AUXSEL_SELECTION_TYPES_H_

#include <cstdint>
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
/// k >= 0, frequencies finite and nonnegative. O(|V| log |V|).
Status ValidateInput(const SelectionInput& input);

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

/// Evaluates paper Eq. 1 for Pastry's distance estimate d_uv = b - lcp(u,v):
/// Σ_v f_v (1 + min_{w ∈ N ∪ aux} (b - lcp(v, w))), with the convention
/// d(v, ∅) = b. O(|V| · (|N| + |aux|)) reference implementation used by
/// tests and for reporting; selectors compute the same value internally via
/// the trie decomposition.
double EvaluatePastryCost(const SelectionInput& input,
                          const std::vector<uint64_t>& aux);

/// Evaluates paper Eq. 1 for Chord's distance estimate
/// d_wv = bitlen((v - w) mod 2^b): Σ_v f_v (1 + min_{w ∈ N ∪ aux} d_wv),
/// with d(v, ∅) = b. Neighbors clockwise past v contribute bitlen close to b
/// and lose the min automatically, matching the Chord routing policy.
double EvaluateChordCost(const SelectionInput& input,
                         const std::vector<uint64_t>& aux);

/// Evaluates paper Eq. 1 for Kademlia's distance estimate
/// d_wv = bitlen(w XOR v): Σ_v f_v (1 + min_{w ∈ N ∪ aux} d_wv), with
/// d(v, ∅) = b. Since bitlen(w XOR v) = b - lcp(w, v), this is the Pastry
/// estimate re-derived in the XOR metric — the identity that lets the
/// trie-shaped selection machinery serve both geometries (see
/// docs/ALGORITHMS.md).
double EvaluateKademliaCost(const SelectionInput& input,
                            const std::vector<uint64_t>& aux);

/// True iff every delay bound in `input.peers` is met by N ∪ aux under the
/// Pastry distance estimate.
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
