#include "pastry/pastry_network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.h"

namespace peercache::pastry {

static_assert(overlay::Overlay<PastryNetwork>,
              "PastryNetwork must satisfy the Overlay concept");

namespace {

double EuclideanDistance(const Coord& a, const Coord& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

void PastryNetwork::BuildCoreTables(size_t pos, PastryNode& node,
                                    Sweep& sweep) {
  overlay::FlatTableArena& tables = store_.tables();
  const std::vector<uint64_t>& live = store_.live_ids();
  const size_t n = live.size();
  const Coord self = coords_[store_.live_slot(pos)];

  // Routing rows with proximity neighbor selection (FreePastry's table
  // construction: the underlay-closest candidate per row). Row r's
  // candidates are prefix class r, the live ids sharing exactly the first r
  // bits with the node: a contiguous range of the sorted live array. The
  // range is scanned in ascending id order with a strict `<`, so the first
  // of equally close candidates wins; a positive stabilize_sample probes
  // only the indices lo + (i * len) / sample instead (large-n builds).
  // Candidate live[i]'s coordinates are coords_[live_slot(i)]: no index
  // probe. CoreTables.PastryExactRowsAndLeafSetsMatchDefinition and
  // CoreTables.PastrySampledRowsProbeTheDocumentedIndices pin both rules.
  scratch_.assign(static_cast<size_t>(params_.bits), kNoEntry);
  const size_t sample =
      static_cast<size_t>(std::max(params_.stabilize_sample, 0));
  sweep.Walk(live, pos, params_.bits, [&](int r, size_t lo, size_t hi) {
    uint64_t best = kNoEntry;
    double best_dist = 0.0;
    auto probe = [&](size_t i) {
      const double d = EuclideanDistance(self, coords_[store_.live_slot(i)]);
      if (best == kNoEntry || d < best_dist) {
        best = live[i];
        best_dist = d;
      }
    };
    const size_t len = hi - lo;
    if (sample == 0 || len <= sample) {
      for (size_t i = lo; i < hi; ++i) probe(i);
    } else {
      // lo + (k * len) / sample for k = 0 .. sample - 1, stepped: each step
      // adds the quotient len / sample, and the remainder len % sample
      // accumulates into one extra index whenever it reaches `sample`.
      const size_t quotient = len / sample;
      const size_t remainder = len % sample;
      size_t i = lo;
      size_t carry = 0;
      for (size_t k = 0; k < sample; ++k) {
        probe(i);
        i += quotient;
        carry += remainder;
        if (carry >= sample) {
          carry -= sample;
          ++i;
        }
      }
    }
    scratch_[static_cast<size_t>(r)] = best;
  });
  tables.Assign(node.routing_rows, scratch_);

  // Leaf set: numerically nearest live ids, leaf_set_half per side, with
  // the two sides kept separate so the router can compute the contiguous
  // coverage arc exactly. On a ring too small for both sides the
  // predecessor side stops where it meets the successor side.
  auto at = [&](size_t q) { return live[q < n ? q : q - n]; };
  const size_t half = static_cast<size_t>(std::max(params_.leaf_set_half, 0));
  const size_t succ_count = std::min(half, n - 1);
  scratch_.clear();
  for (size_t j = 1; j <= succ_count; ++j) scratch_.push_back(at(pos + j));
  tables.Assign(node.leaf_succ, scratch_);

  scratch_.clear();
  for (size_t j = 1; j <= std::min(half, n - 1 - succ_count); ++j) {
    scratch_.push_back(at(pos + n - j));
  }
  tables.Assign(node.leaf_pred, scratch_);
}

std::vector<uint64_t> PastryNetwork::CoreNeighborIds(uint64_t id) const {
  const PastryNode* node = GetNode(id);
  if (node == nullptr) return {};
  std::vector<uint64_t> out;
  for (uint64_t w : RoutingRows(*node)) {
    if (w != kNoEntry) out.push_back(w);
  }
  const auto succ = LeafSucc(*node);
  const auto pred = LeafPred(*node);
  out.insert(out.end(), succ.begin(), succ.end());
  out.insert(out.end(), pred.begin(), pred.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<uint64_t> PastryNetwork::ResponsibleNode(uint64_t key) const {
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  // Numerically closest on the ring; the clockwise-nearer (lower distance)
  // wins, exact ties go to the smaller id.
  const size_t pos = store_.LowerBoundLive(key);
  const uint64_t succ = (pos == live.size()) ? live.front() : live[pos];
  const uint64_t pred = (pos == 0) ? live.back() : live[pos - 1];
  const uint64_t d_succ = space_.ClockwiseDistance(key, succ);
  const uint64_t d_pred = space_.ClockwiseDistance(pred, key);
  if (d_succ < d_pred) return succ;
  if (d_pred < d_succ) return pred;
  return std::min(pred, succ);
}

Status PastryNetwork::BeginResponsible(uint64_t key,
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

void PastryNetwork::StepResponsible(ResponsibleCursor& cursor) const {
  if (cursor.done) return;
  const std::vector<uint64_t>& live = store_.live_ids();
  // One probe of the lower-bound bisection: first index with id >= key.
  const size_t mid = cursor.lo + (cursor.hi - cursor.lo) / 2;
  if (live[mid] < cursor.key) {
    cursor.lo = mid + 1;
  } else {
    cursor.hi = mid;
  }
  if (cursor.lo < cursor.hi) return;
  // The bounds met at the unique insertion point; replay ResponsibleNode's
  // succ/pred tie-break verbatim.
  const size_t pos = cursor.lo;
  const uint64_t succ = (pos == live.size()) ? live.front() : live[pos];
  const uint64_t pred = (pos == 0) ? live.back() : live[pos - 1];
  const uint64_t d_succ = space_.ClockwiseDistance(cursor.key, succ);
  const uint64_t d_pred = space_.ClockwiseDistance(pred, cursor.key);
  cursor.result = d_succ < d_pred   ? succ
                  : d_pred < d_succ ? pred
                                    : std::min(pred, succ);
  cursor.done = true;
}

template <typename Usable>
overlay::RankedHop PastryNetwork::Rank(const PastryNode& node,
                                       uint64_t current, uint64_t key,
                                       bool latch,
                                       const Usable& usable) const {
  overlay::RankedHop out{current, 0, HopEntryKind::kRoutingRow};
  auto ring_distance = [this](uint64_t a, uint64_t b) {
    return std::min(space_.ClockwiseDistance(a, b),
                    space_.ClockwiseDistance(b, a));
  };
  // Trace metric: prefix digits still to resolve after landing on `w`.
  auto prefix_remaining = [this, key](uint64_t w) {
    return static_cast<uint64_t>(params_.bits -
                                 CommonPrefixLength(w, key, params_.bits));
  };
  const int current_lcp = CommonPrefixLength(current, key, params_.bits);
  if (current_lcp == params_.bits) return out;  // exact hit

  const auto rows = RoutingRows(node);
  const auto succ = LeafSucc(node);
  const auto pred = LeafPred(node);
  const auto aux = Auxiliaries(node);

  // `usable` is a pure function of the entry, so every rule below tests
  // distance or prefix first and calls it last, only on an entry that would
  // change the outcome: the choices are the same as filtering first.
  //
  // Rule R1 (leaf-set delivery): if the key falls within the span of this
  // node's usable leaf set, the numerically closest member (or this node)
  // answers directly. This is Pastry's termination rule and guarantees the
  // route cannot oscillate around power-of-two id boundaries. The hop is
  // final, so its candidates ignore drop exclusions: settling for the
  // second-closest member after a drop would deliver at the wrong node.
  auto usable_leaf = [&usable](uint64_t w) { return usable(w, true); };
  // A side's span covers the key iff some usable member on it lies at least
  // as far as the key, or the key lies at distance 0 (an out-of-space key
  // congruent to this node; exact hits returned above). Only members that
  // reach the key are probed, from the far end inward.
  auto side_covers = [&](std::span<const uint64_t> side, bool clockwise) {
    const uint64_t reach = clockwise ? space_.ClockwiseDistance(current, key)
                                     : space_.ClockwiseDistance(key, current);
    if (reach == 0) return true;
    for (auto it = side.rbegin(); it != side.rend(); ++it) {
      const uint64_t d = clockwise ? space_.ClockwiseDistance(current, *it)
                                   : space_.ClockwiseDistance(*it, current);
      if (d >= reach && usable_leaf(*it)) return true;
    }
    return false;
  };
  if (side_covers(succ, true) || side_covers(pred, false)) {
    uint64_t closest = current;
    uint64_t closest_dist = ring_distance(current, key);
    auto consider_leaf = [&](uint64_t w) {
      const uint64_t d = ring_distance(w, key);
      if (d > closest_dist || (d == closest_dist && w >= closest)) return;
      if (!usable_leaf(w)) return;
      closest_dist = d;
      closest = w;
    };
    for (uint64_t w : succ) consider_leaf(w);
    for (uint64_t w : pred) consider_leaf(w);
    if (closest != current) {
      out = {closest, prefix_remaining(closest), HopEntryKind::kLeafSet,
             /*final_hop=*/true};
    }
    return out;
  }

  // Rule R2 (prefix routing): best strictly-longer prefix match with the
  // key; ties on prefix length break by underlay proximity to the current
  // node (FreePastry's locality-aware choice among equal-progress
  // candidates). Skipped once the route has latched numeric mode. The
  // first candidate always has l > best_lcp (== current_lcp), so the tests
  // below are the "longer prefix, or equal prefix and nearer" rule. An id
  // the network never held has no coordinates and ranks last on proximity.
  uint64_t next = kNoEntry;
  int best_lcp = current_lcp;
  double best_prox = 0;
  HopEntryKind next_kind = HopEntryKind::kRoutingRow;
  if (!latch) {
    const Coord here = *CoordOf(current);
    auto consider_prefix = [&](uint64_t w, HopEntryKind kind) {
      if (w == kNoEntry || w == current) return;
      const int l = CommonPrefixLength(w, key, params_.bits);
      if (l <= current_lcp || l < best_lcp) return;
      const Coord* there = CoordOf(w);
      const double d = there == nullptr
                           ? std::numeric_limits<double>::infinity()
                           : EuclideanDistance(here, *there);
      if (l == best_lcp && d >= best_prox) return;
      if (!usable(w, false)) return;
      next = w;
      best_lcp = l;
      best_prox = d;
      next_kind = kind;
    };
    for (uint64_t w : rows) consider_prefix(w, HopEntryKind::kRoutingRow);
    for (uint64_t w : succ) consider_prefix(w, HopEntryKind::kLeafSet);
    for (uint64_t w : pred) consider_prefix(w, HopEntryKind::kLeafSet);
    for (uint64_t w : aux) consider_prefix(w, HopEntryKind::kAuxiliary);
  }

  // Rule R3 ("rare case" fallback): the numerically closest entry that is
  // strictly closer to the key than this node. Taking such a hop latches
  // numeric mode for the rest of the route.
  bool numeric = false;
  if (next == kNoEntry) {
    numeric = true;
    uint64_t best_dist = ring_distance(current, key);
    auto consider_numeric = [&](uint64_t w, HopEntryKind kind) {
      if (w == kNoEntry || w == current) return;
      const uint64_t d = ring_distance(w, key);
      if (d >= best_dist || !usable(w, false)) return;
      best_dist = d;
      next = w;
      next_kind = kind;
    };
    for (uint64_t w : rows) consider_numeric(w, HopEntryKind::kRoutingRow);
    for (uint64_t w : succ) consider_numeric(w, HopEntryKind::kLeafSet);
    for (uint64_t w : pred) consider_numeric(w, HopEntryKind::kLeafSet);
    for (uint64_t w : aux) consider_numeric(w, HopEntryKind::kAuxiliary);
  }

  // Nothing usable makes progress: deliver here.
  if (next == kNoEntry) return out;
  return {next, prefix_remaining(next), next_kind, /*final_hop=*/false,
          /*sets_latch=*/numeric};
}

}  // namespace peercache::pastry

namespace peercache::overlay {
template class RouteKernel<pastry::PastryNetwork>;
}  // namespace peercache::overlay
