#include "kademlia/kademlia_network.h"

#include <algorithm>
#include <cassert>

#include "common/bits.h"

namespace peercache::kademlia {

static_assert(overlay::Overlay<KademliaNetwork>,
              "KademliaNetwork must satisfy the Overlay concept");

namespace {

/// Emits the `k` ids of live[lo, hi) XOR-closest to `self` as index ranges
/// of `live`, in index order, by descending the implicit binary trie of the
/// sorted range. Precondition: every id in [lo, hi) agrees with every other
/// above `bit`. At a split, the half agreeing with `self` at `bit` is
/// uniformly XOR-closer than the other half: when it holds at least `k`
/// ids the answer lies inside it, and otherwise it is kept whole and the
/// other half supplies the rest. So the emitted ids are exactly the `k`
/// XOR-closest, the set the naive model of
/// FlatTables.KademliaFlatBucketsMatchNaiveModel keeps, found in
/// O(k + log^2 range) without sorting.
template <typename Emit>
void EmitXorClosest(const std::vector<uint64_t>& live, size_t lo, size_t hi,
                    int bit, uint64_t self, size_t k, const Emit& emit) {
  if (k == 0) return;
  if (hi - lo <= k) {
    emit(lo, hi);
    return;
  }
  assert(bit >= 0);  // distinct ids agreeing above `bit` must split by it
  const uint64_t boundary =
      (live[lo] | (uint64_t{1} << bit)) & ~LowBitMask(bit);
  const size_t mid = static_cast<size_t>(
      std::lower_bound(live.begin() + static_cast<std::ptrdiff_t>(lo),
                       live.begin() + static_cast<std::ptrdiff_t>(hi),
                       boundary) -
      live.begin());
  if (((self >> bit) & 1) != 0) {  // the upper half [mid, hi) is nearer
    if (hi - mid >= k) {
      EmitXorClosest(live, mid, hi, bit - 1, self, k, emit);
      return;
    }
    EmitXorClosest(live, lo, mid, bit - 1, self, k - (hi - mid), emit);
    emit(mid, hi);
  } else {  // the lower half [lo, mid) is nearer
    if (mid - lo >= k) {
      EmitXorClosest(live, lo, mid, bit - 1, self, k, emit);
      return;
    }
    emit(lo, mid);
    EmitXorClosest(live, mid, hi, bit - 1, self, k - (mid - lo), emit);
  }
}

}  // namespace

Result<uint64_t> KademliaNetwork::ResponsibleNode(uint64_t key) const {
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  // Bit descent over the sorted live array: the candidates form a range
  // sharing the prefix fixed so far; at each bit prefer the half agreeing
  // with the key (ids with that bit set sort above the half-boundary).
  size_t lo = 0, hi = live.size();
  uint64_t prefix = 0;
  for (int i = params_.bits - 1; i >= 0 && hi - lo > 1; --i) {
    const uint64_t boundary = prefix | (uint64_t{1} << i);
    const size_t mid = static_cast<size_t>(
        std::lower_bound(live.begin() + static_cast<std::ptrdiff_t>(lo),
                         live.begin() + static_cast<std::ptrdiff_t>(hi),
                         boundary) -
        live.begin());
    const bool key_bit = ((key >> i) & 1) != 0;
    if (key_bit ? mid < hi : mid == lo) {
      lo = mid;  // take the upper (bit-set) half
      prefix = boundary;
    } else {
      hi = mid;  // take the lower (bit-clear) half
    }
  }
  return live[lo];
}

Status KademliaNetwork::BeginResponsible(uint64_t key,
                                         ResponsibleCursor& cursor) const {
  cursor = ResponsibleCursor{};
  const std::vector<uint64_t>& live = store_.live_ids();
  if (live.empty()) return Status::FailedPrecondition("empty overlay");
  cursor.key = key;
  cursor.lo = 0;
  cursor.hi = live.size();
  cursor.prefix = 0;
  cursor.bit = params_.bits - 1;
  cursor.done = false;
  return Status::Ok();
}

void KademliaNetwork::StepResponsible(ResponsibleCursor& cursor) const {
  if (cursor.done) return;
  const std::vector<uint64_t>& live = store_.live_ids();
  // One level of ResponsibleNode's bit descent: split the candidate range
  // at the half-boundary for this bit and keep the half agreeing with the
  // key (ids with the bit set sort above the boundary).
  if (cursor.bit >= 0 && cursor.hi - cursor.lo > 1) {
    const uint64_t boundary = cursor.prefix | (uint64_t{1} << cursor.bit);
    const size_t mid = static_cast<size_t>(
        std::lower_bound(
            live.begin() + static_cast<std::ptrdiff_t>(cursor.lo),
            live.begin() + static_cast<std::ptrdiff_t>(cursor.hi),
            boundary) -
        live.begin());
    const bool key_bit = ((cursor.key >> cursor.bit) & 1) != 0;
    if (key_bit ? mid < cursor.hi : mid == cursor.lo) {
      cursor.lo = mid;  // take the upper (bit-set) half
      cursor.prefix = boundary;
    } else {
      cursor.hi = mid;  // take the lower (bit-clear) half
    }
    --cursor.bit;
    if (cursor.bit >= 0 && cursor.hi - cursor.lo > 1) return;
  }
  cursor.result = live[cursor.lo];
  cursor.done = true;
}

void KademliaNetwork::BuildCoreTables(size_t pos, KademliaNode& node,
                                      Sweep& sweep) {
  const std::vector<uint64_t>& live = store_.live_ids();
  const uint64_t id = live[pos];

  // Buckets: bucket c's candidates are prefix class c, the live ids
  // sharing exactly the first c bits with the node: a contiguous range of
  // the sorted live array. A range that fits keeps every member; an
  // over-full range keeps the bucket_size XOR-closest, emitted in id
  // order. The walk ends at the last non-empty class, so trailing empty
  // buckets are not materialized.
  scratch_entries_.clear();
  scratch_ends_.clear();
  const size_t bucket_size = static_cast<size_t>(params_.bucket_size);
  auto append = [&](size_t lo, size_t hi) {
    scratch_entries_.insert(scratch_entries_.end(),
                            live.begin() + static_cast<std::ptrdiff_t>(lo),
                            live.begin() + static_cast<std::ptrdiff_t>(hi));
  };
  sweep.Walk(live, pos, params_.bits, [&](int c, size_t lo, size_t hi) {
    EmitXorClosest(live, lo, hi, params_.bits - 2 - c, id, bucket_size,
                   append);
    scratch_ends_.push_back(scratch_entries_.size());
  });
  store_.tables().Assign(node.bucket_entries, scratch_entries_);
  store_.tables().Assign(node.bucket_ends, scratch_ends_);
}

std::vector<uint64_t> KademliaNetwork::CoreNeighborIds(uint64_t id) const {
  const KademliaNode* node = GetNode(id);
  if (node == nullptr) return {};
  const auto entries = BucketEntries(*node);
  std::vector<uint64_t> out(entries.begin(), entries.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

template <typename Usable>
overlay::RankedHop KademliaNetwork::Rank(const KademliaNode& node,
                                         uint64_t current, uint64_t key,
                                         bool /*latch*/,
                                         const Usable& usable) const {
  // Greedy XOR descent: among usable table entries strictly closer to the
  // key than the current node, pick the closest. With no fault plan
  // `usable` is liveness ("ping before forwarding"). It is a pure function
  // of the entry, so it runs last, only on an entry that would become the
  // new best: the argmin is the same as filtering first. `current` itself
  // is never strictly closer than the starting bound.
  overlay::RankedHop best{current, current ^ key, HopEntryKind::kBucket};
  auto consider = [&](uint64_t w, HopEntryKind kind) {
    const uint64_t remaining = w ^ key;
    if (remaining >= best.remaining || !usable(w, false)) return;
    best.remaining = remaining;
    best.next = w;
    best.kind = kind;
  };
  for (uint64_t w : BucketEntries(node)) consider(w, HopEntryKind::kBucket);
  for (uint64_t w : Auxiliaries(node)) consider(w, HopEntryKind::kAuxiliary);
  return best;
}

}  // namespace peercache::kademlia

namespace peercache::overlay {
template class RouteKernel<kademlia::KademliaNetwork>;
}  // namespace peercache::overlay
