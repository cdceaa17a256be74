#ifndef PEERCACHE_PASTRY_PASTRY_NETWORK_H_
#define PEERCACHE_PASTRY_PASTRY_NETWORK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/flat_table_arena.h"
#include "common/node_store.h"
#include "common/overlay.h"
#include "common/random.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"

namespace peercache::pastry {

/// Pastry simulator parameters.
struct PastryParams {
  /// Id length b, with 1-bit digits (the paper's exposition and its 32-bit
  /// binary-id experiments).
  int bits = 32;
  /// Leaf-set entries kept on each side of the node.
  int leaf_set_half = 4;
  /// Capacity of each node's frequency table; 0 = unbounded exact counts.
  size_t frequency_capacity = 0;
  /// Bounded-memory sketch mode for per-node frequency tables
  /// (auxsel::FreqSketchParams); disabled by default.
  auxsel::FreqSketchParams freq_sketch;
  /// Safety cap on route length.
  int max_route_hops = 256;
  /// Routing-row candidate probes per row during stabilization. 0 (the
  /// default) scans every candidate, so each row holds the underlay-closest
  /// member of its class, as
  /// CoreTables.PastryExactRowsAndLeafSetsMatchDefinition checks. A
  /// positive value probes that many evenly spaced candidates per row
  /// instead (CoreTables.PastrySampledRowsProbeTheDocumentedIndices),
  /// turning the O(n) per-node row fill into O(bits * sample) for
  /// million-node builds at the cost of slightly farther row entries.
  int stabilize_sample = 0;
};

/// Outcome of one simulated lookup — the shared overlay type
/// (common/route_result.h).
using RouteResult = overlay::RouteResult;

/// Network-proximity coordinates (FreePastry's locality-aware routing picks
/// the physically closest candidate; we model the underlay as a unit square
/// with Euclidean distance). PastryNetwork keeps one per node, indexed by
/// the node's NodeStore slot.
struct Coord {
  double x = 0;
  double y = 0;
};

/// Per-node Pastry state. Tables are FlatList slices into the network's
/// FlatTableArena; read them through PastryNetwork::RoutingRows/LeafSucc/
/// LeafPred/Auxiliaries. The leaf set is the two sides; the router scans
/// the successor side first, then the predecessor side.
struct PastryNode {
  uint64_t id = 0;
  /// routing_rows[i]: a node sharing exactly the first i bits with `id`
  /// (and thus differing at bit i), or kNoEntry when row i is empty.
  /// Always exactly params().bits entries once stabilized.
  overlay::FlatList routing_rows;
  /// Successor-side leaf members in clockwise order from this node.
  overlay::FlatList leaf_succ;
  /// Predecessor-side leaf members in counterclockwise order.
  overlay::FlatList leaf_pred;
  /// Auxiliary neighbors installed by a selection algorithm.
  overlay::FlatList auxiliaries;
  auxsel::FrequencyTable frequencies;

  explicit PastryNode(size_t freq_capacity,
                     const auxsel::FreqSketchParams& sketch = {})
      : frequencies(freq_capacity, sketch) {}
};

/// God's-eye Pastry overlay simulator with FreePastry-style locality-aware
/// routing.
///
/// Routing policy: forward to the known entry (routing row, leaf set, or
/// auxiliary) whose id shares the longest prefix with the key, provided it
/// is strictly longer than the current node's; ties on prefix length break
/// by underlay proximity to the current node (the FreePastry behaviour the
/// paper credits for Fig. 4's trend). When no entry improves the prefix,
/// fall back to the numerically closest entry that is numerically closer to
/// the key (standard Pastry rule); delivery happens at the numerically
/// closest live node.
///
/// Node state lives in the overlay::NodeStore of the shared membership
/// layer (overlay::OverlayBase, common/overlay.h): the liveness probes in
/// the routing loop and the sorted-ring scans in stabilization and delivery
/// walk flat id-sorted arrays, and routing tables are contiguous arena
/// slices (common/flat_table_arena.h).
class PastryNetwork
    : public overlay::OverlayBase<PastryNetwork, PastryNode, PastryParams> {
 public:
  static constexpr uint64_t kNoEntry = ~uint64_t{0};

  /// `seed` drives the underlay coordinates, drawn in slot order: a new id
  /// draws its own when first added (in `ids` order within a BulkAdd), and
  /// a departed id re-added keeps the ones it had.
  PastryNetwork(const PastryParams& params, uint64_t seed)
      : OverlayBase(params), coord_rng_(seed) {}

  /// The core table slices a forgetting RemoveNode releases.
  static constexpr overlay::FlatList PastryNode::*kCoreTables[] = {
      &PastryNode::routing_rows, &PastryNode::leaf_succ,
      &PastryNode::leaf_pred};

  /// Underlay coordinates of `id` (fixed when the id is first added,
  /// retained across departures); nullptr if the id was never added.
  const Coord* CoordOf(uint64_t id) const {
    const uint32_t slot = store_.SlotOf(id);
    return slot == overlay::NodeStore<PastryNode>::kNoSlot ? nullptr
                                                          : &coords_[slot];
  }

  /// Every node's coordinates, indexed by store slot: one entry per id
  /// ever added.
  std::span<const Coord> coords() const { return coords_; }

  /// Routing-table views: contiguous arena slices, valid until the next
  /// mutation of the same node's tables.
  std::span<const uint64_t> RoutingRows(const PastryNode& node) const {
    return store_.tables().View(node.routing_rows);
  }
  std::span<const uint64_t> LeafSucc(const PastryNode& node) const {
    return store_.tables().View(node.leaf_succ);
  }
  std::span<const uint64_t> LeafPred(const PastryNode& node) const {
    return store_.tables().View(node.leaf_pred);
  }

  /// Ground truth: numerically closest live node to the key (ring metric;
  /// the lower id wins exact ties). Fails on an empty overlay.
  Result<uint64_t> ResponsibleNode(uint64_t key) const;

  /// The kernel's ranking step (overlay::RouteKernel) over `node`'s usable
  /// entries: exact hit, R1 leaf-set delivery (a `final_hop`, scanned with
  /// `usable(w, true)`), R2 prefix routing unless `latch` (numeric mode) is
  /// set, R3 numeric fallback (`sets_latch`). R1's delivery hop is a
  /// forwarding attempt like any other, and the trace metric is the prefix
  /// digits remaining. Defined in pastry_network.cc, where the kernel is
  /// instantiated.
  template <typename Usable>
  overlay::RankedHop Rank(const PastryNode& node, uint64_t current,
                          uint64_t key, bool latch,
                          const Usable& usable) const;

  /// Prefetches `node`'s table slices (the batched engine's second stage).
  void PrefetchTables(const PastryNode& node) const {
    const overlay::FlatTableArena& tables = store_.tables();
    tables.Prefetch(node.routing_rows);
    tables.Prefetch(node.leaf_succ);
    tables.Prefetch(node.leaf_pred);
    tables.Prefetch(node.auxiliaries);
  }

  /// Step-wise ground-truth resolution for RunBatchedResponsible: a
  /// lower-bound bisection over the sorted live array, one probe per step.
  /// Identical answer to ResponsibleNode (the insertion point is unique,
  /// and the succ/pred tie-break is replayed verbatim at the end).
  struct ResponsibleCursor {
    uint64_t key = 0;
    size_t lo = 0;  ///< bisection bounds on the insertion point
    size_t hi = 0;
    bool done = true;
    uint64_t result = 0;
  };

  /// Positions `cursor` for `key`. Fails (cursor stays done) only when the
  /// overlay is empty — the same precondition as ResponsibleNode.
  Status BeginResponsible(uint64_t key, ResponsibleCursor& cursor) const;

  /// One bisection probe; resolves the owner when the bounds meet. No-op
  /// when the cursor is done.
  void StepResponsible(ResponsibleCursor& cursor) const;

  /// Prefetches the next probe's cache line.
  void PrefetchResponsible(const ResponsibleCursor& cursor) const {
    const std::vector<uint64_t>& live = store_.live_ids();
    if (cursor.lo < cursor.hi) {
      __builtin_prefetch(&live[cursor.lo + (cursor.hi - cursor.lo) / 2], 0,
                         1);
    }
  }

  /// Core neighbors for auxiliary selection: routing rows + leaf set.
  std::vector<uint64_t> CoreNeighborIds(uint64_t id) const;

 private:
  friend OverlayBase;

  /// Stabilization sweep state: row r's candidates are prefix class r.
  using Sweep = overlay::PrefixClassWalk;

  /// Rebuilds the routing rows, with proximity-aware row filling (closest
  /// candidate per row), and the leaf set of the live node at `pos`
  /// (OverlayBase's stabilization step).
  void BuildCoreTables(size_t pos, PastryNode& node, Sweep& sweep);

  // OverlayBase hooks: the coordinates are slot-indexed node-record data
  // kept beside the store.
  void OnSlotCreated() {
    coords_.push_back(
        Coord{coord_rng_.UniformDouble(), coord_rng_.UniformDouble()});
  }
  void ReserveSlots(size_t slots) { coords_.reserve(slots); }
  size_t SideBytes() const { return coords_.capacity() * sizeof(Coord); }

  Rng coord_rng_;
  std::vector<Coord> coords_;      // slot-indexed, parallel to store_
  std::vector<uint64_t> scratch_;  // stabilize build buffer (serial)
};

}  // namespace peercache::pastry

namespace peercache::overlay {
extern template class RouteKernel<pastry::PastryNetwork>;
}  // namespace peercache::overlay

#endif  // PEERCACHE_PASTRY_PASTRY_NETWORK_H_
