#ifndef PEERCACHE_AUXSEL_OBLIVIOUS_H_
#define PEERCACHE_AUXSEL_OBLIVIOUS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/random.h"
#include "common/status.h"

namespace peercache::auxsel {

/// The frequency-oblivious draw of paper Sec. VI-A, shared by the three
/// Select*Oblivious selectors below and by the experiment engine, which
/// draws from its round's shared pool without copying it. With k = r·log n
/// the paper picks r auxiliary neighbors uniformly at random from each
/// nonempty distance slice; the draw generalizes that to any k by picking
/// one random candidate per nonempty slice, round after round, until k are
/// placed.
///
/// The candidates are the peers of `pool` other than `self_id` and the ids
/// in `excluded` (the core neighbors, and under padding the picks already
/// made). Slices are indexed 0 … bits:
///  * Chord: bitlen(cw(self, v)) − 1, the arc (2^i, 2^{i+1}] clockwise;
///  * Pastry: lcp(self, v);
///  * Kademlia: bitlen(self XOR v) − 1, Pastry's classes in mirrored
///    order, so its picks differ from Pastry's on the same input.
///
/// The RNG contract, on which thread-count invariance and every committed
/// oblivious number rest:
///  * each slice holds its candidates in pool order;
///  * every slice is shuffled, in ascending slice order, by Rng::Shuffle
///    (slices the round-robin never reaches included; an empty or
///    one-element slice draws nothing);
///  * round r takes element r of every slice longer than r, in slice
///    order, until k are picked;
///  * the picks are returned sorted.
///
/// Preconditions, checked by the callers (ValidateInput per selector call;
/// in the engine, the round's pool once and each node's own fields):
/// bits in [1, 64], k >= 0, self_id and every pool id below 2^bits, pool
/// ids distinct. Under them the draw cannot fail and never returns self,
/// an excluded id or a repeat. O(|pool| · log |excluded| + bits · rounds).
std::vector<uint64_t> DrawChordOblivious(std::span<const PeerFreq> pool,
                                         uint64_t self_id,
                                         std::span<const uint64_t> excluded,
                                         int k, int bits, Rng& rng);
std::vector<uint64_t> DrawPastryOblivious(std::span<const PeerFreq> pool,
                                          uint64_t self_id,
                                          std::span<const uint64_t> excluded,
                                          int k, int bits, Rng& rng);
std::vector<uint64_t> DrawKademliaOblivious(
    std::span<const PeerFreq> pool, uint64_t self_id,
    std::span<const uint64_t> excluded, int k, int bits, Rng& rng);

/// The frequency-oblivious baseline for Chord: ValidateInput, then
/// DrawChordOblivious over `input.peers` excluding the core neighbors, then
/// the Eq. 1 cost of the picks.
Result<Selection> SelectChordOblivious(const SelectionInput& input, Rng& rng);

/// The frequency-oblivious baseline for Pastry: r random auxiliary
/// neighbors per prefix-match length (DrawPastryOblivious), priced by
/// EvaluatePastryCost.
Result<Selection> SelectPastryOblivious(const SelectionInput& input, Rng& rng);

/// The frequency-oblivious baseline for Kademlia: r random auxiliary
/// neighbors per XOR-distance order of magnitude (DrawKademliaOblivious),
/// one random draw per nonempty k-bucket-shaped class, round-robin until k
/// picks, priced by EvaluateKademliaCost.
Result<Selection> SelectKademliaOblivious(const SelectionInput& input,
                                          Rng& rng);

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_OBLIVIOUS_H_
