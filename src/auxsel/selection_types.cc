#include "auxsel/selection_types.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/ring_id.h"

namespace peercache::auxsel {

namespace {

/// Shared evaluator skeleton: distance_fn(w, v) estimates hops from neighbor
/// w to destination v; d(v, ∅) = bits.
template <typename DistanceFn>
double EvaluateCost(const SelectionInput& input,
                    const std::vector<uint64_t>& aux, DistanceFn distance) {
  std::vector<uint64_t> neighbors = input.core_ids;
  neighbors.insert(neighbors.end(), aux.begin(), aux.end());
  double total = 0;
  for (const PeerFreq& peer : input.peers) {
    int best = input.bits;
    for (uint64_t w : neighbors) {
      best = std::min(best, distance(w, peer.id));
      if (best == 0) break;
    }
    total += peer.frequency * (1.0 + best);
  }
  return total;
}

template <typename DistanceFn>
bool QosSatisfied(const SelectionInput& input,
                  const std::vector<uint64_t>& aux, DistanceFn distance) {
  std::vector<uint64_t> neighbors = input.core_ids;
  neighbors.insert(neighbors.end(), aux.begin(), aux.end());
  for (const PeerFreq& peer : input.peers) {
    if (peer.delay_bound < 0) continue;
    int best = input.bits;
    for (uint64_t w : neighbors) {
      best = std::min(best, distance(w, peer.id));
    }
    if (best > peer.delay_bound) return false;
  }
  return true;
}

/// Every check of ValidateInput except the distinctness of peers.
Status ValidateFields(const SelectionInput& input) {
  if (input.bits < 1 || input.bits > 64) {
    return Status::InvalidArgument("bits must be in [1, 64]");
  }
  if (input.k < 0) return Status::InvalidArgument("k must be >= 0");
  const uint64_t mask = LowBitMask(input.bits);
  if ((input.self_id & ~mask) != 0) {
    return Status::InvalidArgument("self_id out of range");
  }
  for (const PeerFreq& p : input.peers) {
    if ((p.id & ~mask) != 0) {
      return Status::InvalidArgument("peer id out of range");
    }
    if (p.id == input.self_id) {
      return Status::InvalidArgument("peers must not contain self_id");
    }
    if (p.frequency < 0 || !std::isfinite(p.frequency)) {
      return Status::InvalidArgument("frequency must be finite and >= 0");
    }
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
  std::vector<uint64_t> ids;
  ids.reserve(input.peers.size());
  for (const PeerFreq& p : input.peers) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::InvalidArgument("duplicate peer id");
  }
  return Status::Ok();
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
  const int bits = input.bits;
  return EvaluateCost(input, aux, [bits](uint64_t w, uint64_t v) {
    return bits - CommonPrefixLength(w, v, bits);
  });
}

double EvaluateChordCost(const SelectionInput& input,
                         const std::vector<uint64_t>& aux) {
  IdSpace space(input.bits);
  // Chord's routing policy only forwards to neighbors between the source
  // and the target (clockwise); a neighbor past the target cannot serve it,
  // so its distance is the no-neighbor cap.
  const uint64_t self = input.self_id;
  const int bits = input.bits;
  return EvaluateCost(input, aux, [&space, self, bits](uint64_t w, uint64_t v) {
    const uint64_t sv = space.ClockwiseDistance(self, v);
    const uint64_t sw = space.ClockwiseDistance(self, w);
    if (sw > sv) return bits;
    return BitLength(sv - sw);
  });
}

double EvaluateKademliaCost(const SelectionInput& input,
                            const std::vector<uint64_t>& aux) {
  // Deliberately phrased in the XOR metric rather than via lcp, so the
  // differential tests pin the bitlen(w ^ v) = b - lcp(w, v) identity
  // instead of assuming it.
  return EvaluateCost(input, aux, [](uint64_t w, uint64_t v) {
    return BitLength(w ^ v);
  });
}

bool PastryQosSatisfied(const SelectionInput& input,
                        const std::vector<uint64_t>& aux) {
  const int bits = input.bits;
  return QosSatisfied(input, aux, [bits](uint64_t w, uint64_t v) {
    return bits - CommonPrefixLength(w, v, bits);
  });
}

bool ChordQosSatisfied(const SelectionInput& input,
                       const std::vector<uint64_t>& aux) {
  IdSpace space(input.bits);
  const uint64_t self = input.self_id;
  const int bits = input.bits;
  return QosSatisfied(input, aux, [&space, self, bits](uint64_t w, uint64_t v) {
    const uint64_t sv = space.ClockwiseDistance(self, v);
    const uint64_t sw = space.ClockwiseDistance(self, w);
    if (sw > sv) return bits;
    return BitLength(sv - sw);
  });
}

bool KademliaQosSatisfied(const SelectionInput& input,
                          const std::vector<uint64_t>& aux) {
  return QosSatisfied(input, aux, [](uint64_t w, uint64_t v) {
    return BitLength(w ^ v);
  });
}

}  // namespace peercache::auxsel
