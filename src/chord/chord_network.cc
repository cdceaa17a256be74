#include "chord/chord_network.h"

#include <algorithm>

#include "common/bits.h"

namespace peercache::chord {

static_assert(overlay::Overlay<ChordNetwork>,
              "ChordNetwork must satisfy the Overlay concept");

namespace {

/// First q in [lo, hi] with pred(q), for a predicate monotone in q that
/// holds at hi: probes lo, lo + 1, lo + 3, lo + 7, ... and then bisects the
/// last gap, so an answer d positions past lo costs O(log d) probes.
template <typename Pred>
size_t GallopToFirst(size_t lo, size_t hi, const Pred& pred) {
  if (pred(lo)) return lo;
  size_t below = lo;  // pred(below) is false
  for (size_t step = 1;; step *= 2) {
    const size_t probe = std::min(below + step, hi);
    if (pred(probe)) {
      hi = probe;
      break;
    }
    below = probe;
  }
  while (hi - below > 1) {
    const size_t mid = below + (hi - below) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      below = mid;
    }
  }
  return hi;
}

}  // namespace

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

void ChordNetwork::BuildCoreTables(size_t pos, ChordNode& node,
                                   Sweep& sweep) {
  const std::vector<uint64_t>& live = store_.live_ids();
  const size_t n = live.size();
  const uint64_t after = space_.Add(live[pos], 1);
  overlay::FlatTableArena& tables = store_.tables();
  auto at = [&](size_t q) { return live[q < n ? q : q - n]; };
  // Clockwise distance from id + 1: strictly increasing over
  // q = pos + 1 .. pos + n, and the whole mask at q = pos + n (the node).
  auto gap = [&](size_t q) { return space_.ClockwiseDistance(after, at(q)); };

  // Fingers (paper's variant): for each i, the first live node clockwise in
  // (id + 2^i, id + 2^{i+1}], i.e. the first position whose gap reaches
  // 2^i, kept when its gap stays below 2^{i+1}. Reaching the node itself
  // means the interval and every later one are empty.
  scratch_.clear();
  size_t q = pos + 1;
  for (int i = 0; i < params_.bits; ++i) {
    const size_t i_pos = static_cast<size_t>(i);
    q = std::max(q, sweep[i_pos]);
    const uint64_t target = uint64_t{1} << i;
    q = GallopToFirst(q, pos + n, [&](size_t p) { return gap(p) >= target; });
    sweep[i_pos] = q;
    if (q < pos + n && gap(q) <= LowBitMask(i + 1)) scratch_.push_back(at(q));
  }
  tables.Assign(node.fingers, scratch_);

  // Successor list: the next successor_list_size live nodes clockwise,
  // short of the node itself.
  scratch_.clear();
  for (int j = 1;
       j <= params_.successor_list_size && static_cast<size_t>(j) < n; ++j) {
    scratch_.push_back(at(pos + static_cast<size_t>(j)));
  }
  tables.Assign(node.successors, scratch_);
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
