#include "auxsel/chord_common.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bits.h"
#include "common/ring_id.h"

namespace peercache::auxsel {

int ChordInstance::Hop(int j, int m) const {
  assert(j >= 0 && j <= m && m <= n);
  if (j == 0) return BitLength(ids[static_cast<size_t>(m)]);
  return BitLength(ids[static_cast<size_t>(m)] - ids[static_cast<size_t>(j)]);
}

double ChordInstance::SlowS(int j, int m) const {
  assert(j >= 1 && j <= m && m <= n);
  double total = 0;
  const int nc = next_core[static_cast<size_t>(j)];
  for (int l = j + 1; l <= m; ++l) {
    int d = (l < nc) ? Hop(j, l) : core_serve[static_cast<size_t>(l)];
    total += freq[static_cast<size_t>(l)] * d;
  }
  return total;
}

Result<ChordInstance> BuildChordInstance(const SelectionInput& input) {
  auto view_r = SortedView(input);
  if (!view_r.ok()) return view_r.status();
  std::vector<ViewEntry> ring = std::move(view_r).value();
  // The ids above self, then the ids below it, both ascending: the
  // clockwise order from self.
  std::rotate(ring.begin(),
              std::upper_bound(ring.begin(), ring.end(), input.self_id,
                               [](uint64_t id, const ViewEntry& e) {
                                 return id < e.id;
                               }),
              ring.end());
  IdSpace space(input.bits);

  ChordInstance inst;
  inst.bits = input.bits;
  inst.n = static_cast<int>(ring.size());
  const size_t sz = static_cast<size_t>(inst.n) + 1;
  inst.ids.assign(sz, 0);
  inst.orig_id.assign(sz, 0);
  inst.freq.assign(sz, 0);
  inst.delay_bound.assign(sz, -1);
  inst.is_core.assign(sz, false);
  for (size_t l = 1; l < sz; ++l) {
    const ViewEntry& e = ring[l - 1];
    inst.ids[l] = space.ClockwiseDistance(input.self_id, e.id);
    inst.orig_id[l] = e.id;
    inst.freq[l] = e.frequency;
    inst.delay_bound[l] = e.delay_bound;
    inst.is_core[l] = e.is_core;
  }

  // Prefix sums and core-service tables.
  inst.F.assign(sz, 0);
  inst.core_serve.assign(sz, 0);
  inst.B.assign(sz, 0);
  inst.next_core.assign(sz + 1, inst.n + 1);
  inst.candidates_upto.assign(sz, 0);
  int last_core = 0;  // 0 = none yet
  for (int l = 1; l <= inst.n; ++l) {
    const size_t ul = static_cast<size_t>(l);
    inst.F[ul] = inst.F[ul - 1] + inst.freq[ul];
    if (inst.is_core[ul]) last_core = l;
    inst.core_serve[ul] =
        (last_core == 0) ? inst.bits : inst.Hop(last_core, l);
    inst.B[ul] = inst.B[ul - 1] + inst.freq[ul] * inst.core_serve[ul];
    if (!inst.is_core[ul]) inst.candidates.push_back(l);
    inst.candidates_upto[ul] = static_cast<int>(inst.candidates.size());
  }
  for (int j = inst.n - 1; j >= 0; --j) {
    const size_t uj = static_cast<size_t>(j);
    inst.next_core[uj] =
        inst.is_core[uj + 1] ? j + 1 : inst.next_core[uj + 1];
  }
  return inst;
}

Selection MakeChordSelection(const SelectionInput& input,
                             const ChordInstance& inst,
                             const std::vector<int>& chosen_indices) {
  Selection sel;
  sel.chosen.reserve(chosen_indices.size());
  for (int idx : chosen_indices) {
    sel.chosen.push_back(inst.orig_id[static_cast<size_t>(idx)]);
  }
  std::sort(sel.chosen.begin(), sel.chosen.end());
  sel.cost = EvaluateChordCost(input, sel.chosen);
  return sel;
}

}  // namespace peercache::auxsel
