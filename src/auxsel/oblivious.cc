#include "auxsel/oblivious.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/bits.h"
#include "common/ring_id.h"

namespace peercache::auxsel {

namespace {

/// Whether the sorted, nonempty `set` holds `id`. The search is branch-free
/// (a conditional move per step): the pool arrives in random id order, so a
/// branching search would mispredict about once per step, which measured
/// twice the cost of the rest of the draw.
bool SortedContains(const std::vector<uint64_t>& set, uint64_t id) {
  const uint64_t* base = set.data();
  for (size_t n = set.size(); n > 1;) {
    // If id is present it lies in [base, base + n), also after this step.
    const size_t half = n / 2;
    base = base[half] <= id ? base + half : base;
    n -= half;
  }
  return *base == id;
}

/// The one draw: slice_of(v) names candidate v's slice in [0, bits]. The
/// candidates are counting-sorted by slice into one flat buffer, stable in
/// pool order, so slice s is slices[begin[s], begin[s + 1]).
template <typename SliceFn>
std::vector<uint64_t> Draw(std::span<const PeerFreq> pool, uint64_t self_id,
                           std::span<const uint64_t> excluded, int k, int bits,
                           Rng& rng, SliceFn slice_of) {
  assert(bits >= 1 && bits <= 64 && k >= 0);
  std::vector<uint64_t> skip(excluded.begin(), excluded.end());
  skip.push_back(self_id);
  std::sort(skip.begin(), skip.end());

  std::vector<uint64_t> candidates;
  candidates.reserve(pool.size());
  std::array<size_t, 66> begin{};
  for (const PeerFreq& p : pool) {
    if (SortedContains(skip, p.id)) continue;
    candidates.push_back(p.id);
    const int slice = slice_of(p.id);
    assert(slice >= 0 && slice <= bits);
    ++begin[static_cast<size_t>(slice) + 1];
  }
  const size_t n_slices = static_cast<size_t>(bits) + 1;
  for (size_t s = 0; s < n_slices; ++s) begin[s + 1] += begin[s];
  std::vector<uint64_t> slices(candidates.size());
  std::array<size_t, 66> next = begin;
  for (uint64_t id : candidates) {
    slices[next[static_cast<size_t>(slice_of(id))]++] = id;
  }
  for (size_t s = 0; s < n_slices; ++s) {
    rng.Shuffle(std::span<uint64_t>(slices).subspan(begin[s],
                                                    begin[s + 1] - begin[s]));
  }

  const size_t want = static_cast<size_t>(k);
  std::vector<uint64_t> chosen;
  chosen.reserve(want);
  for (size_t round = 0; chosen.size() < want; ++round) {
    const size_t before = chosen.size();
    for (size_t s = 0; s < n_slices && chosen.size() < want; ++s) {
      if (begin[s] + round < begin[s + 1]) {
        chosen.push_back(slices[begin[s] + round]);
      }
    }
    if (chosen.size() == before) break;  // every slice is exhausted
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

/// A public selector: the per-call validation, the draw over the input's
/// peers excluding its cores, and the Eq. 1 cost of the picks.
template <typename DrawFn, typename CostFn>
Result<Selection> Select(const SelectionInput& input, Rng& rng, DrawFn draw,
                         CostFn cost) {
  if (Status s = ValidateInput(input); !s.ok()) return s;
  Selection sel;
  sel.chosen = draw(input.peers, input.self_id, input.core_ids, input.k,
                    input.bits, rng);
  sel.cost = cost(input, sel.chosen);
  return sel;
}

}  // namespace

std::vector<uint64_t> DrawChordOblivious(std::span<const PeerFreq> pool,
                                         uint64_t self_id,
                                         std::span<const uint64_t> excluded,
                                         int k, int bits, Rng& rng) {
  const IdSpace space(bits);
  return Draw(pool, self_id, excluded, k, bits, rng, [&](uint64_t v) {
    // v != self, so the distance is >= 1 and the slice lies in [0, bits).
    return BitLength(space.ClockwiseDistance(self_id, v)) - 1;
  });
}

std::vector<uint64_t> DrawPastryOblivious(std::span<const PeerFreq> pool,
                                          uint64_t self_id,
                                          std::span<const uint64_t> excluded,
                                          int k, int bits, Rng& rng) {
  return Draw(pool, self_id, excluded, k, bits, rng, [&](uint64_t v) {
    return CommonPrefixLength(self_id, v, bits);
  });
}

std::vector<uint64_t> DrawKademliaOblivious(
    std::span<const PeerFreq> pool, uint64_t self_id,
    std::span<const uint64_t> excluded, int k, int bits, Rng& rng) {
  return Draw(pool, self_id, excluded, k, bits, rng, [&](uint64_t v) {
    // v != self, so the XOR is nonzero and the slice lies in [0, bits).
    return BitLength(self_id ^ v) - 1;
  });
}

Result<Selection> SelectChordOblivious(const SelectionInput& input, Rng& rng) {
  return Select(input, rng, DrawChordOblivious, EvaluateChordCost);
}

Result<Selection> SelectPastryOblivious(const SelectionInput& input,
                                        Rng& rng) {
  return Select(input, rng, DrawPastryOblivious, EvaluatePastryCost);
}

Result<Selection> SelectKademliaOblivious(const SelectionInput& input,
                                          Rng& rng) {
  return Select(input, rng, DrawKademliaOblivious, EvaluateKademliaCost);
}

}  // namespace peercache::auxsel
