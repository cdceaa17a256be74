#ifndef PEERCACHE_COMMON_OVERLAY_H_
#define PEERCACHE_COMMON_OVERLAY_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_table_arena.h"
#include "common/ring_id.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"

namespace peercache::overlay {

/// The node contract every overlay backend's per-node record satisfies:
/// identity, liveness, and the observed frequency table that feeds
/// auxiliary selection. Routing tables (fingers/successors for Chord,
/// routing rows/leaf set for Pastry, buckets for Kademlia) and the
/// auxiliary list are FlatList slices into the network's arena — the
/// engine reaches them only through `CoreNeighborIds` / `AuxiliarySpan`.
template <typename N>
concept OverlayNode = requires(N& node, const N& cnode, uint64_t peer) {
  { cnode.id } -> std::convertible_to<uint64_t>;
  { cnode.alive } -> std::convertible_to<bool>;
  { node.frequencies.Record(peer) };
  { node.frequencies.Snapshot(peer) };
};

/// Compile-time contract between an overlay simulator and the generic
/// experiment engine (experiments/generic_experiment.h). A conforming
/// backend provides:
///
///   * membership — AddNode / RemoveNode / RejoinNode / StabilizeNode /
///     StabilizeAll over a circular IdSpace;
///   * god's-eye ground truth — ResponsibleNode;
///   * routing — LookupInto writes into a caller-owned RouteResult (the
///     zero-allocation hot path) under defaultable RouteOptions (trace,
///     fault plan, latency model); Lookup is the by-value convenience
///     form. Both run overlay::RouteKernel (common/route_kernel.h), for
///     which the backend supplies only `Rank` and `PrefetchTables`;
///   * auxiliary plumbing — SetAuxiliaries installs the selection result,
///     CoreNeighborIds exposes N_s for the selectors, AuxiliarySpan reads
///     the installed list and EraseAuxiliary evicts one stale entry;
///   * scale plumbing — BulkAdd joins many nodes without intermediate
///     stabilization and MemoryUsage reports the per-node footprint.
///
/// ChordNetwork, PastryNetwork, and KademliaNetwork are statically checked
/// against this concept; a new DHT backend plugs into the whole
/// experiment/bench/telemetry stack by satisfying it plus a small policy
/// struct (see docs/ARCHITECTURE.md).
template <typename N>
concept Overlay = OverlayNode<typename N::NodeType> &&
    requires(N& net, const N& cnet, uint64_t id, std::vector<uint64_t> aux,
             const std::vector<uint64_t>& ids, RouteResult& out,
             const RouteOptions& options) {
  { cnet.space() } -> std::convertible_to<const IdSpace&>;
  // The engine and the invariant harness read these two protocol knobs off
  // every backend's parameter struct; the first two concept instantiations
  // got them for free and never spelled the requirement out.
  { cnet.params().bits } -> std::convertible_to<int>;
  { cnet.params().max_route_hops } -> std::convertible_to<int>;
  { net.AddNode(id) } -> std::same_as<Status>;
  { net.RemoveNode(id) } -> std::same_as<Status>;
  { net.RejoinNode(id) } -> std::same_as<Status>;
  { cnet.IsAlive(id) } -> std::same_as<bool>;
  { cnet.live_count() } -> std::same_as<size_t>;
  { cnet.LiveNodeIds() } -> std::same_as<std::vector<uint64_t>>;
  { net.GetNode(id) } -> std::same_as<typename N::NodeType*>;
  { cnet.GetNode(id) } -> std::same_as<const typename N::NodeType*>;
  { cnet.ResponsibleNode(id) } -> std::same_as<Result<uint64_t>>;
  { cnet.LookupInto(id, id, out, options) } -> std::same_as<Status>;
  { cnet.Lookup(id, id, options) } -> std::same_as<Result<RouteResult>>;
  { net.StabilizeNode(id) } -> std::same_as<Status>;
  { net.StabilizeAll() };
  { net.SetAuxiliaries(id, std::move(aux)) } -> std::same_as<Status>;
  { cnet.CoreNeighborIds(id) } -> std::same_as<std::vector<uint64_t>>;
  { cnet.AuxiliarySpan(id) } ->
      std::convertible_to<std::span<const uint64_t>>;
  { net.EraseAuxiliary(id, id) };
  { net.BulkAdd(ids) } -> std::same_as<Status>;
  { cnet.MemoryUsage() } -> std::same_as<StoreMemoryStats>;
};

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_OVERLAY_H_
