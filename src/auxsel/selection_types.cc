#include "auxsel/selection_types.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/bits.h"
#include "common/ring_id.h"

namespace peercache::auxsel {

namespace {

/// Eq. 1's sum over `input.peers` in input order, where best(v) is
/// min_{w ∈ N ∪ aux} d(w, v) with d(v, ∅) = b. The sum starts at +0.0 and
/// never holds -0.0, so a peer whose frequency compares equal to 0 adds
/// nothing to it: skipping that peer moves no bit.
template <typename BestFn>
double SumCost(const SelectionInput& input, const BestFn& best) {
  double total = 0;
  for (const PeerFreq& peer : input.peers) {
    if (peer.frequency == 0) continue;
    total += peer.frequency * (1.0 + best(peer.id));
  }
  return total;
}

template <typename BestFn>
bool BoundsMet(const SelectionInput& input, const BestFn& best) {
  for (const PeerFreq& peer : input.peers) {
    if (peer.delay_bound >= 0 && best(peer.id) > peer.delay_bound) {
      return false;
    }
  }
  return true;
}

/// Chord's best(v): Chord forwards only to neighbors between the source and
/// the target (clockwise), so a neighbor past v serves it at the cap b, and
/// bitlen(cw(self, v) - cw(self, w)) grows with the gap. The best w is the
/// one with the largest cw(self, w) <= cw(self, v).
auto ChordBest(const SelectionInput& input, const std::vector<uint64_t>& aux) {
  const IdSpace space(input.bits);
  const uint64_t self = input.self_id;
  std::vector<uint64_t> reach;
  reach.reserve(input.core_ids.size() + aux.size());
  for (uint64_t w : input.core_ids) {
    reach.push_back(space.ClockwiseDistance(self, w));
  }
  for (uint64_t w : aux) reach.push_back(space.ClockwiseDistance(self, w));
  std::sort(reach.begin(), reach.end());
  return [space, self, bits = input.bits, reach = std::move(reach)](
             uint64_t v) {
    const uint64_t sv = space.ClockwiseDistance(self, v);
    const auto past = std::upper_bound(reach.begin(), reach.end(), sv);
    return past == reach.begin() ? bits : BitLength(sv - *std::prev(past));
  };
}

/// The prefix metrics' best(v): the w sharing the longest prefix with v
/// (equally, the smallest bitlen(w XOR v)) is v's predecessor or successor
/// in id order, and `distance(w, v)` prices the two.
template <typename DistanceFn>
auto PrefixBest(const SelectionInput& input, const std::vector<uint64_t>& aux,
                DistanceFn distance) {
  std::vector<uint64_t> ids = input.core_ids;
  ids.insert(ids.end(), aux.begin(), aux.end());
  std::sort(ids.begin(), ids.end());
  return [bits = input.bits, ids = std::move(ids), distance](uint64_t v) {
    int best = bits;
    const auto at = std::lower_bound(ids.begin(), ids.end(), v);
    if (at != ids.end()) best = std::min(best, distance(*at, v));
    if (at != ids.begin()) best = std::min(best, distance(*std::prev(at), v));
    return best;
  };
}

/// Pastry's d_wv = b - lcp(w, v).
auto PastryDistance(int bits) {
  return [bits](uint64_t w, uint64_t v) {
    return bits - CommonPrefixLength(w, v, bits);
  };
}

/// Kademlia's d_wv, deliberately phrased in the XOR metric rather than via
/// lcp, so the differential tests pin the bitlen(w ^ v) = b - lcp(w, v)
/// identity instead of assuming it.
int KademliaDistance(uint64_t w, uint64_t v) { return BitLength(w ^ v); }

Status CheckBits(int bits) {
  if (bits < 1 || bits > 64) {
    return Status::InvalidArgument("bits must be in [1, 64]");
  }
  return Status::Ok();
}

/// One peer's own checks: id below 2^bits (`mask`), frequency finite and
/// nonnegative.
Status CheckPeer(const PeerFreq& p, uint64_t mask) {
  if ((p.id & ~mask) != 0) {
    return Status::InvalidArgument("peer id out of range");
  }
  if (p.frequency < 0 || !std::isfinite(p.frequency)) {
    return Status::InvalidArgument("frequency must be finite and >= 0");
  }
  return Status::Ok();
}

/// Distinct peer ids, found as adjacent equal ids in a sorted copy.
Status CheckDistinct(std::span<const PeerFreq> peers) {
  std::vector<uint64_t> ids;
  ids.reserve(peers.size());
  for (const PeerFreq& p : peers) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::InvalidArgument("duplicate peer id");
  }
  return Status::Ok();
}

/// Every check of ValidateInput except the distinctness of peers.
Status ValidateFields(const SelectionInput& input) {
  if (Status s = CheckBits(input.bits); !s.ok()) return s;
  if (input.k < 0) return Status::InvalidArgument("k must be >= 0");
  const uint64_t mask = LowBitMask(input.bits);
  if ((input.self_id & ~mask) != 0) {
    return Status::InvalidArgument("self_id out of range");
  }
  for (const PeerFreq& p : input.peers) {
    // self_id is in range, so testing it before the range check keeps the
    // first failing check's message.
    if (p.id == input.self_id) {
      return Status::InvalidArgument("peers must not contain self_id");
    }
    if (Status s = CheckPeer(p, mask); !s.ok()) return s;
  }
  for (uint64_t c : input.core_ids) {
    if ((c & ~mask) != 0) {
      return Status::InvalidArgument("core id out of range");
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateInput(const SelectionInput& input) {
  if (Status s = ValidateFields(input); !s.ok()) return s;
  return CheckDistinct(input.peers);
}

Status ValidatePool(std::span<const PeerFreq> pool, int bits) {
  if (Status s = CheckBits(bits); !s.ok()) return s;
  const uint64_t mask = LowBitMask(bits);
  for (const PeerFreq& p : pool) {
    if (Status s = CheckPeer(p, mask); !s.ok()) return s;
  }
  return CheckDistinct(pool);
}

Result<std::vector<ViewEntry>> SortedView(const SelectionInput& input) {
  if (Status s = ValidateFields(input); !s.ok()) return s;
  std::vector<ViewEntry> view;
  view.reserve(input.peers.size() + input.core_ids.size());
  for (const PeerFreq& p : input.peers) {
    view.push_back(ViewEntry{p.id, p.frequency, p.delay_bound, false});
  }
  for (uint64_t c : input.core_ids) {
    if (c != input.self_id) view.push_back(ViewEntry{c, 0.0, -1, true});
  }
  // Peers sort before cores of the same id, so each run of equal ids starts
  // with its peer entry, if any, and a second peer in a run is a duplicate.
  std::sort(view.begin(), view.end(),
            [](const ViewEntry& a, const ViewEntry& b) {
              return a.id != b.id ? a.id < b.id : a.is_core < b.is_core;
            });
  size_t kept = 0;
  for (const ViewEntry& e : view) {
    if (kept > 0 && view[kept - 1].id == e.id) {
      if (!e.is_core) return Status::InvalidArgument("duplicate peer id");
      view[kept - 1].is_core = true;
      continue;
    }
    view[kept++] = e;
  }
  view.resize(kept);
  return view;
}

double EvaluatePastryCost(const SelectionInput& input,
                          const std::vector<uint64_t>& aux) {
  return SumCost(input, PrefixBest(input, aux, PastryDistance(input.bits)));
}

double EvaluateChordCost(const SelectionInput& input,
                         const std::vector<uint64_t>& aux) {
  return SumCost(input, ChordBest(input, aux));
}

double EvaluateKademliaCost(const SelectionInput& input,
                            const std::vector<uint64_t>& aux) {
  return SumCost(input, PrefixBest(input, aux, KademliaDistance));
}

bool PastryQosSatisfied(const SelectionInput& input,
                        const std::vector<uint64_t>& aux) {
  return BoundsMet(input, PrefixBest(input, aux, PastryDistance(input.bits)));
}

bool ChordQosSatisfied(const SelectionInput& input,
                       const std::vector<uint64_t>& aux) {
  return BoundsMet(input, ChordBest(input, aux));
}

bool KademliaQosSatisfied(const SelectionInput& input,
                          const std::vector<uint64_t>& aux) {
  return BoundsMet(input, PrefixBest(input, aux, KademliaDistance));
}

}  // namespace peercache::auxsel
