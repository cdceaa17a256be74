#ifndef PEERCACHE_KADEMLIA_KADEMLIA_NETWORK_H_
#define PEERCACHE_KADEMLIA_KADEMLIA_NETWORK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/flat_table_arena.h"
#include "common/overlay.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"

namespace peercache::kademlia {

/// Kademlia simulator parameters. Real deployments use 160-bit ids; the
/// simulator truncates to the repo-wide id width so workloads, telemetry,
/// and the selection trie are shared with the other backends.
struct KademliaParams {
  /// Id length b; the paper's experiments use 32-bit ids.
  int bits = 32;
  /// Capacity of each k-bucket (Kademlia's `k` parameter, renamed to avoid
  /// colliding with the paper's auxiliary budget k). Bucket i keeps at most
  /// this many live nodes sharing exactly i prefix bits with the owner,
  /// preferring the XOR-closest ones.
  int bucket_size = 8;
  /// Capacity of each node's frequency table; 0 = unbounded exact counts.
  size_t frequency_capacity = 0;
  /// Bounded-memory sketch mode for per-node frequency tables
  /// (auxsel::FreqSketchParams); disabled by default.
  auxsel::FreqSketchParams freq_sketch;
  /// Safety cap on route length before a lookup is declared failed.
  int max_route_hops = 256;
};

/// Outcome of one simulated lookup — the shared overlay type
/// (common/route_result.h).
using RouteResult = overlay::RouteResult;

/// Per-node protocol state. Bucket snapshots are ids captured at the
/// node's last stabilization and go stale under churn, exactly like the
/// Chord finger tables and Pastry routing rows.
///
/// The buckets are flattened into one arena slice: `bucket_entries` holds
/// every member cpl-major (bucket 0 first, id-sorted within a bucket) and
/// `bucket_ends[i]` is the end offset of bucket i within it, so the hot
/// routing scan walks one contiguous span. Read through
/// KademliaNetwork::Bucket/BucketCount/BucketEntries. Trailing empty
/// buckets are not materialized: bucket_ends stops at the last non-empty
/// class, the shape the naive model of
/// FlatTables.KademliaFlatBucketsMatchNaiveModel builds.
struct KademliaNode {
  uint64_t id = 0;
  /// Core neighbors: bucket i holds up to bucket_size live nodes w with
  /// lcp(id, w) == i (equivalently: the top set bit of id XOR w is bit
  /// bits-1-i), XOR-closest to `id` first retained, stored id-sorted.
  overlay::FlatList bucket_entries;
  overlay::FlatList bucket_ends;
  /// Auxiliary neighbors installed by an auxiliary-selection algorithm.
  overlay::FlatList auxiliaries;
  /// Access frequencies of responsible peers for queries this node
  /// originated (feeds auxiliary selection).
  auxsel::FrequencyTable frequencies;

  explicit KademliaNode(size_t freq_capacity,
                     const auxsel::FreqSketchParams& sketch = {})
      : frequencies(freq_capacity, sketch) {}
};

/// God's-eye iterative Kademlia overlay: nodes, XOR routing, stabilization.
///
/// Routing is greedy in the XOR metric: the next hop is the live table
/// entry (bucket or auxiliary) minimizing `entry XOR key`, and the query
/// is answered once no entry is strictly closer than the current node.
/// Dead entries are skipped at use time ("ping before forwarding"), so
/// stale buckets degrade routes rather than black-holing them. Keys are
/// owned by the live node XOR-closest to them.
///
/// Capacity-truncated buckets cannot stall a fresh-table route: at node f,
/// every entry of bucket m is of the form "agrees with f above bit
/// bits-1-m, differs there", so all of bucket m's entries are XOR-closer
/// to the key exactly when f disagrees with the key at that bit — the
/// retention policy may drop individual nodes but never an entire useful
/// distance class. Greedy descent therefore strictly shrinks the XOR
/// distance each hop and terminates at the global minimizer, which is why
/// stable-mode delivery is exact (see docs/ALGORITHMS.md).
class KademliaNetwork : public overlay::OverlayBase<KademliaNetwork,
                                                     KademliaNode,
                                                     KademliaParams> {
 public:
  explicit KademliaNetwork(const KademliaParams& params)
      : OverlayBase(params) {}

  /// The core table slices a forgetting RemoveNode releases.
  static constexpr overlay::FlatList KademliaNode::*kCoreTables[] = {
      &KademliaNode::bucket_entries, &KademliaNode::bucket_ends};

  /// Bucket views: `BucketCount` is the number of materialized distance
  /// classes (trailing empty classes absent), `Bucket(node, i)` the
  /// id-sorted members of class i, `BucketEntries` the whole flattened
  /// cpl-major span the routing loop walks.
  size_t BucketCount(const KademliaNode& node) const {
    return node.bucket_ends.size;
  }
  std::span<const uint64_t> BucketEntries(const KademliaNode& node) const {
    return store_.tables().View(node.bucket_entries);
  }
  std::span<const uint64_t> Bucket(const KademliaNode& node, size_t i) const {
    const auto ends = store_.tables().View(node.bucket_ends);
    const size_t begin = i == 0 ? 0 : static_cast<size_t>(ends[i - 1]);
    return BucketEntries(node).subspan(begin,
                                       static_cast<size_t>(ends[i]) - begin);
  }

  /// Ground truth: the live node XOR-closest to `key`. Found by a bit
  /// descent over the sorted live-id array (the XOR minimizer is not a
  /// numeric neighbor in general), O(bits · log n). Fails if the overlay
  /// is empty.
  Result<uint64_t> ResponsibleNode(uint64_t key) const;

  /// The kernel's ranking step (overlay::RouteKernel): greedy XOR descent
  /// over `node`'s usable entries, the one XOR-closest to the key if it is
  /// strictly closer than `current` (else `next == current`). No latch;
  /// the trace metric is the XOR distance remaining. Defined in
  /// kademlia_network.cc, where the kernel is instantiated.
  template <typename Usable>
  overlay::RankedHop Rank(const KademliaNode& node, uint64_t current,
                          uint64_t key, bool latch,
                          const Usable& usable) const;

  /// Prefetches `node`'s table slices (the batched engine's second stage).
  void PrefetchTables(const KademliaNode& node) const {
    const overlay::FlatTableArena& tables = store_.tables();
    tables.Prefetch(node.bucket_entries);
    tables.Prefetch(node.auxiliaries);
  }

  /// Step-wise ground-truth resolution for RunBatchedResponsible: the same
  /// bit descent as ResponsibleNode over the sorted live array, advanced
  /// one outer bit level per step. Identical answer by construction.
  struct ResponsibleCursor {
    uint64_t key = 0;
    size_t lo = 0;  ///< candidate range sharing the prefix fixed so far
    size_t hi = 0;
    uint64_t prefix = 0;
    int bit = -1;  ///< next bit level to resolve
    bool done = true;
    uint64_t result = 0;
  };

  /// Positions `cursor` for `key`. Fails (cursor stays done) only when the
  /// overlay is empty — the same precondition as ResponsibleNode.
  Status BeginResponsible(uint64_t key, ResponsibleCursor& cursor) const;

  /// Resolves one bit level; finishes when the range collapses or the bits
  /// run out. No-op when the cursor is done.
  void StepResponsible(ResponsibleCursor& cursor) const;

  /// Prefetches the next level's boundary search region.
  void PrefetchResponsible(const ResponsibleCursor& cursor) const {
    const std::vector<uint64_t>& live = store_.live_ids();
    if (cursor.lo < cursor.hi) {
      __builtin_prefetch(&live[cursor.lo + (cursor.hi - cursor.lo) / 2], 0,
                         1);
    }
  }

  /// Builds the core-neighbor list (all bucket entries, deduplicated) used
  /// as N_s for auxiliary selection at this node.
  std::vector<uint64_t> CoreNeighborIds(uint64_t id) const;

 private:
  friend OverlayBase;

  /// Stabilization sweep state: bucket c's candidates are prefix class c.
  using Sweep = overlay::PrefixClassWalk;

  /// Rebuilds the buckets of the live node at `pos` (OverlayBase's
  /// stabilization step).
  void BuildCoreTables(size_t pos, KademliaNode& node, Sweep& sweep);

  std::vector<uint64_t> scratch_entries_;  // stabilize buffers (serial)
  std::vector<uint64_t> scratch_ends_;
};

}  // namespace peercache::kademlia

namespace peercache::overlay {
extern template class RouteKernel<kademlia::KademliaNetwork>;
}  // namespace peercache::overlay

#endif  // PEERCACHE_KADEMLIA_KADEMLIA_NETWORK_H_
