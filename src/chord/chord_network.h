#ifndef PEERCACHE_CHORD_CHORD_NETWORK_H_
#define PEERCACHE_CHORD_CHORD_NETWORK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/flat_table_arena.h"
#include "common/overlay.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"

namespace peercache::chord {

/// Chord simulator parameters.
struct ChordParams {
  /// Id length b; the paper's experiments use 32-bit ids.
  int bits = 32;
  /// Length of each node's successor list (robustness under churn).
  int successor_list_size = 8;
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

/// Per-node protocol state. Routing-table snapshots (fingers, successors,
/// auxiliaries) are ids captured at the node's last stabilization /
/// recomputation and go stale under churn — exactly the staleness the
/// paper's churn experiments exercise.
///
/// The tables themselves are FlatList slices into the network's
/// FlatTableArena (store_.tables()); the node record holds only the
/// 12-byte handles. Read them through ChordNetwork::Fingers/Successors/
/// Auxiliaries (or AuxiliarySpan by id).
struct ChordNode {
  uint64_t id = 0;
  /// Core neighbors: the paper's Chord variant keeps, for each i, the
  /// numerically smallest live node in (id + 2^i, id + 2^{i+1}]; empty
  /// ranges contribute no finger.
  overlay::FlatList fingers;
  /// First successor_list_size live successors at last stabilization.
  overlay::FlatList successors;
  /// Auxiliary neighbors installed by an auxiliary-selection algorithm.
  overlay::FlatList auxiliaries;
  /// Access frequencies of responsible peers for queries this node
  /// originated (feeds auxiliary selection).
  auxsel::FrequencyTable frequencies;

  explicit ChordNode(size_t freq_capacity,
                     const auxsel::FreqSketchParams& sketch = {})
      : frequencies(freq_capacity, sketch) {}
};

/// God's-eye event-driven Chord overlay: nodes, routing, stabilization.
///
/// The simulator routes iteratively with the paper's policy — the next hop
/// is the table entry (finger, successor, or auxiliary) closest to the key
/// without passing it clockwise — and models "ping before forwarding": dead
/// entries are skipped at use time, so stale tables degrade routes (longer
/// detours, occasional misdelivery) rather than black-holing them. Keys are
/// owned by their live *predecessor* (the paper's Chord variant).
///
/// Node state lives in the overlay::NodeStore of the shared membership
/// layer (overlay::OverlayBase, common/overlay.h): liveness probes and
/// responsible-node searches on the lookup hot path walk flat id-sorted
/// arrays instead of ordered-set trees, and routing tables are contiguous
/// arena slices (see common/node_store.h and common/flat_table_arena.h).
class ChordNetwork
    : public overlay::OverlayBase<ChordNetwork, ChordNode, ChordParams> {
 public:
  explicit ChordNetwork(const ChordParams& params) : OverlayBase(params) {}

  /// The core table slices a forgetting RemoveNode releases.
  static constexpr overlay::FlatList ChordNode::*kCoreTables[] = {
      &ChordNode::fingers, &ChordNode::successors};

  /// Routing-table views: contiguous arena slices, valid until the next
  /// mutation of the same node's tables.
  std::span<const uint64_t> Fingers(const ChordNode& node) const {
    return store_.tables().View(node.fingers);
  }
  std::span<const uint64_t> Successors(const ChordNode& node) const {
    return store_.tables().View(node.successors);
  }

  /// Ground truth: the live node responsible for `key` (its predecessor on
  /// the ring). Fails if the overlay is empty.
  Result<uint64_t> ResponsibleNode(uint64_t key) const;

  /// The kernel's ranking step (overlay::RouteKernel): among entries
  /// between `current` and the key (clockwise) that pass `usable`, the one
  /// closest to the key; `next == current` when none makes progress. No
  /// latch. Defined in chord_network.cc, where the kernel is instantiated.
  template <typename Usable>
  overlay::RankedHop Rank(const ChordNode& node, uint64_t current,
                          uint64_t key, bool latch,
                          const Usable& usable) const;

  /// Prefetches `node`'s table slices (the batched engine's second stage;
  /// assumes the record itself is already cached).
  void PrefetchTables(const ChordNode& node) const {
    const overlay::FlatTableArena& tables = store_.tables();
    tables.Prefetch(node.fingers);
    tables.Prefetch(node.successors);
    tables.Prefetch(node.auxiliaries);
  }

  /// One suspended ResponsibleNode search for the batched resolution
  /// engine (RunBatchedResponsible): a bisection over the sorted live array
  /// advanced one probe per step. The upper bound is unique, so the
  /// finished cursor equals ResponsibleNode exactly; interleaving a window
  /// of cursors turns dependent-miss binary searches into memory-level
  /// parallelism, the same trick the batched engine plays for routes.
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

  /// Builds the core-neighbor list (fingers + successors, deduplicated)
  /// used as N_s for auxiliary selection at this node.
  std::vector<uint64_t> CoreNeighborIds(uint64_t id) const;

 private:
  friend OverlayBase;

  /// Stabilization sweep state: where each finger search of the previous
  /// position ended, as unrolled positions (below); all 0, a bound that
  /// never binds, before the first.
  using Sweep = std::array<size_t, 64>;

  /// Rebuilds the fingers and successor list of the live node at `pos`
  /// (OverlayBase's stabilization step). Positions are unrolled past the
  /// end of the live array, so pos + 1 .. pos + n run clockwise from the
  /// node's successor back to the node itself; finger i is searched
  /// forward from the larger of finger i - 1's position and the previous
  /// position's finger i, because targets grow with i and with the id.
  void BuildCoreTables(size_t pos, ChordNode& node, Sweep& sweep);

  std::vector<uint64_t> scratch_;  // stabilize build buffer (serial)
};

}  // namespace peercache::chord

namespace peercache::overlay {
extern template class RouteKernel<chord::ChordNetwork>;
}  // namespace peercache::overlay

#endif  // PEERCACHE_CHORD_CHORD_NETWORK_H_
