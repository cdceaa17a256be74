#include "chord/chord_network.h"

#include <algorithm>

#include "common/bits.h"

namespace peercache::chord {

static_assert(overlay::Overlay<ChordNetwork>,
              "ChordNetwork must satisfy the Overlay concept");

Result<uint64_t> ChordNetwork::ResponsibleNode(uint64_t key) const {
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  // Predecessor assignment: the last live node at-or-before the key.
  const size_t pos = store_.UpperBoundLive(key);
  if (pos == 0) return live.back();  // wrap
  return live[pos - 1];
}

Status ChordNetwork::BeginResponsible(uint64_t key,
                                      ResponsibleCursor& cursor) const {
  cursor = ResponsibleCursor{};
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  cursor.key = key;
  cursor.lo = 0;
  cursor.hi = live.size();
  cursor.done = false;
  return Status::Ok();
}

void ChordNetwork::StepResponsible(ResponsibleCursor& cursor) const {
  if (cursor.done) return;
  const std::vector<uint64_t>& live = store_.live_ids();
  // One probe of the upper-bound bisection: first index with id > key.
  const size_t mid = cursor.lo + (cursor.hi - cursor.lo) / 2;
  if (live[mid] <= cursor.key) {
    cursor.lo = mid + 1;
  } else {
    cursor.hi = mid;
  }
  if (cursor.lo < cursor.hi) return;
  // The bounds met at the unique upper bound: the predecessor owns the key
  // (wrapping), exactly ResponsibleNode's answer.
  cursor.result = cursor.lo == 0 ? live.back() : live[cursor.lo - 1];
  cursor.done = true;
}

Status ChordNetwork::StabilizeNode(uint64_t id) {
  if (!store_.IsAlive(id)) return Status::NotFound("node not alive");
  ChordNode& node = *store_.Get(id);
  overlay::FlatTableArena& tables = store_.tables();

  // Fingers (paper's variant): for each i, the numerically smallest live
  // node in (id + 2^i, id + 2^{i+1}].
  scratch_.clear();
  for (int i = 0; i < params_.bits; ++i) {
    // (id + 2^i, id + 2^{i+1}]: first live node clockwise from id + 2^i + 1.
    const uint64_t start = space_.Add(id, (uint64_t{1} << i) + 1);
    const uint64_t end = space_.Add(id, LowBitMask(i + 1) + 1);  // + 2^{i+1}
    uint64_t candidate = store_.FirstLiveAtOrAfter(start);
    if (candidate == id) continue;  // wrapped all the way around
    // Membership check: candidate within (id + 2^i, id + 2^{i+1}]?
    if (space_.InClockwiseRangeExclIncl(space_.Add(id, uint64_t{1} << i),
                                        candidate, end)) {
      scratch_.push_back(candidate);
    }
  }
  tables.Assign(node.fingers, scratch_);

  // Successor list: the next successor_list_size live nodes clockwise.
  scratch_.clear();
  if (store_.live_count() > 1) {
    uint64_t cursor = store_.FirstLiveAtOrAfter(space_.Add(id, 1));
    for (int i = 0;
         i < params_.successor_list_size && cursor != id;
         ++i) {
      scratch_.push_back(cursor);
      cursor = store_.FirstLiveAtOrAfter(space_.Add(cursor, 1));
    }
  }
  tables.Assign(node.successors, scratch_);

  // Prune dead auxiliaries (stale-entry removal).
  tables.EraseIf(node.auxiliaries,
                 [this](uint64_t a) { return !IsAlive(a); });
  return Status::Ok();
}

std::vector<uint64_t> ChordNetwork::CoreNeighborIds(uint64_t id) const {
  const ChordNode* node = GetNode(id);
  if (node == nullptr) return {};
  const auto fingers = Fingers(*node);
  const auto successors = Successors(*node);
  std::vector<uint64_t> out(fingers.begin(), fingers.end());
  out.insert(out.end(), successors.begin(), successors.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

template <typename Usable>
overlay::RankedHop ChordNetwork::Rank(const ChordNode& node, uint64_t current,
                                      uint64_t key, bool /*latch*/,
                                      const Usable& usable) const {
  // Paper's policy: among usable table entries between current and the
  // key (clockwise), pick the one closest to the key. With no fault plan
  // `usable` is liveness ("ping before forwarding"). It is a pure function
  // of the entry, so it runs last, only on an entry that would become the
  // new best: the argmin is the same as filtering first. `current` itself
  // never beats the starting bound.
  overlay::RankedHop best{current, space_.ClockwiseDistance(current, key),
                          HopEntryKind::kFinger};
  auto consider = [&](uint64_t w, HopEntryKind kind) {
    if (!space_.InClockwiseRangeExclIncl(current, w, key)) return;
    const uint64_t remaining = space_.ClockwiseDistance(w, key);
    if (remaining >= best.remaining || !usable(w, false)) return;
    best.remaining = remaining;
    best.next = w;
    best.kind = kind;
  };
  for (uint64_t w : Fingers(node)) consider(w, HopEntryKind::kFinger);
  for (uint64_t w : Successors(node)) consider(w, HopEntryKind::kSuccessor);
  for (uint64_t w : Auxiliaries(node)) consider(w, HopEntryKind::kAuxiliary);
  return best;
}

}  // namespace peercache::chord

namespace peercache::overlay {
template class RouteKernel<chord::ChordNetwork>;
}  // namespace peercache::overlay
