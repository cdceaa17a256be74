#ifndef PEERCACHE_KADEMLIA_KADEMLIA_NETWORK_H_
#define PEERCACHE_KADEMLIA_KADEMLIA_NETWORK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/flat_table_arena.h"
#include "common/node_store.h"
#include "common/ring_id.h"
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
  /// Total bucket entries materialized per node across every distance
  /// class; 0 (the default) keeps each class at bucket_size — the
  /// historical tables. When positive, stabilization sizes every class's
  /// candidate range first without copying (lazy materialization), floors
  /// each non-empty class at one entry — the truncation-safety argument
  /// below needs a representative per useful distance class, never a
  /// particular one, so stable-mode routing stays exact — and spends the
  /// remaining budget on the longest-shared-prefix (XOR-closest) classes
  /// first. Shrinks the ~4.4 KB/node footprint at n = 2^20 (ROADMAP
  /// scale-frontier headroom).
  int bucket_capacity = 0;
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
/// buckets are not materialized (bucket_ends stops at the last non-empty
/// class), matching the historical vector-of-vectors shape.
struct KademliaNode {
  uint64_t id = 0;
  bool alive = false;
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
class KademliaNetwork {
 public:
  using NodeType = KademliaNode;

  explicit KademliaNetwork(const KademliaParams& params);

  const KademliaParams& params() const { return params_; }
  const IdSpace& space() const { return space_; }

  /// Adds a live node with the given id and builds its buckets from the
  /// current live membership. Other nodes learn of it only when they next
  /// stabilize. Fails on duplicate live id.
  Status AddNode(uint64_t id);

  /// Bulk join for large builds: inserts every id as a live node WITHOUT
  /// stabilizing (callers run StabilizeAll once after). Fails before any
  /// mutation on invalid ids.
  Status BulkAdd(const std::vector<uint64_t>& ids);

  /// Crashes a node: it disappears immediately; other nodes' bucket
  /// entries pointing at it become stale until their next stabilization.
  /// Node state (frequency history) is retained for a later rejoin unless
  /// `forget_state` is set.
  Status RemoveNode(uint64_t id, bool forget_state = false);

  /// Rejoins a previously crashed node: fresh buckets, empty auxiliaries,
  /// retained frequency history.
  Status RejoinNode(uint64_t id);

  bool IsAlive(uint64_t id) const { return store_.IsAlive(id); }
  size_t live_count() const { return store_.live_count(); }
  std::vector<uint64_t> LiveNodeIds() const;

  /// Mutable node state (must exist). Nullptr if unknown.
  KademliaNode* GetNode(uint64_t id) { return store_.Get(id); }
  const KademliaNode* GetNode(uint64_t id) const { return store_.Get(id); }

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
  std::span<const uint64_t> Auxiliaries(const KademliaNode& node) const {
    return store_.tables().View(node.auxiliaries);
  }

  /// Auxiliary list of `id` (empty when the node is unknown).
  std::span<const uint64_t> AuxiliarySpan(uint64_t id) const {
    const KademliaNode* node = store_.Get(id);
    return node == nullptr ? std::span<const uint64_t>{} : Auxiliaries(*node);
  }

  /// Removes every occurrence of `entry` from `id`'s auxiliary list.
  void EraseAuxiliary(uint64_t id, uint64_t entry) {
    if (KademliaNode* node = store_.Get(id)) {
      store_.tables().EraseValue(node->auxiliaries, entry);
    }
  }

  /// Footprint accounting (node records + indices + routing arena).
  overlay::StoreMemoryStats MemoryUsage() const {
    return store_.MemoryUsage();
  }

  /// Ground truth: the live node XOR-closest to `key`. Found by a bit
  /// descent over the sorted live-id array (the XOR minimizer is not a
  /// numeric neighbor in general), O(bits · log n). Fails if the overlay
  /// is empty.
  Result<uint64_t> ResponsibleNode(uint64_t key) const;

  /// Routes a lookup for `key` from `origin` over current (possibly stale)
  /// tables into a caller-owned result through overlay::RouteKernel. Does
  /// not record frequencies; callers decide what to observe. `out` is
  /// cleared first but keeps its path capacity, so a reused RouteResult
  /// makes the steady-state lookup path allocation-free. `options` carries
  /// the optional trace (XOR distance remaining per hop), fault plan and
  /// latency model (see overlay::RouteOptions).
  Status LookupInto(uint64_t origin, uint64_t key, RouteResult& out,
                    const overlay::RouteOptions& options = {}) const;

  /// By-value convenience form of LookupInto.
  Result<RouteResult> Lookup(uint64_t origin, uint64_t key,
                             const overlay::RouteOptions& options = {}) const;

  /// The kernel's ranking step (overlay::RouteKernel): greedy XOR descent
  /// over `node`'s usable entries, the one XOR-closest to the key if it is
  /// strictly closer than `current` (else `next == current`). No latch.
  /// Defined in kademlia_network.cc, where the kernel is instantiated.
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

  /// Rebuilds `id`'s buckets from live membership (periodic
  /// stabilization). Dead auxiliaries are pruned (the paper's "stale
  /// auxiliary entries are marked/removed; fixed at the next selection").
  Status StabilizeNode(uint64_t id);

  /// Stabilizes every live node.
  void StabilizeAll();

  /// Installs auxiliary neighbors on a node (ids need not be alive; dead
  /// ones are simply useless until pruned). Serial-only: writes the arena.
  Status SetAuxiliaries(uint64_t id, std::vector<uint64_t> auxiliaries);

  /// Builds the core-neighbor list (all bucket entries, deduplicated) used
  /// as N_s for auxiliary selection at this node.
  std::vector<uint64_t> CoreNeighborIds(uint64_t id) const;

 private:
  KademliaParams params_;
  IdSpace space_;
  overlay::NodeStore<KademliaNode> store_;  // all nodes ever seen
  std::vector<uint64_t> scratch_entries_;   // stabilize buffers (serial)
  std::vector<uint64_t> scratch_ends_;
  std::vector<uint64_t> scratch_bucket_;
};

}  // namespace peercache::kademlia

namespace peercache::overlay {
extern template class RouteKernel<kademlia::KademliaNetwork>;
}  // namespace peercache::overlay

#endif  // PEERCACHE_KADEMLIA_KADEMLIA_NETWORK_H_
