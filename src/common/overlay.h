#ifndef PEERCACHE_COMMON_OVERLAY_H_
#define PEERCACHE_COMMON_OVERLAY_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/flat_table_arena.h"
#include "common/node_store.h"
#include "common/ring_id.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"

namespace peercache::overlay {

/// The node contract every overlay backend's per-node record satisfies:
/// identity and the observed frequency table that feeds auxiliary
/// selection. Liveness is the NodeStore's (`IsAlive`), not the record's.
/// Routing tables (fingers/successors for Chord, routing rows/leaf set for
/// Pastry, buckets for Kademlia) and the auxiliary list are FlatList slices
/// into the network's arena — the engine reaches them only through
/// `CoreNeighborIds` / `AuxiliarySpan`.
template <typename N>
concept OverlayNode = requires(N& node, const N& cnode, uint64_t peer) {
  { cnode.id } -> std::convertible_to<uint64_t>;
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
/// OverlayBase (below) writes everything here except ResponsibleNode and
/// CoreNeighborIds once for every backend.
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
  { net.RemoveNode(id, /*forget_state=*/true) } -> std::same_as<Status>;
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

/// Sweep state of the geometries whose core tables are prefix classes
/// (Pastry's routing rows, Kademlia's buckets). Class r of node x is the
/// set of live ids sharing exactly the first r bits with x. The live ids
/// sharing at least r bits with x form a contiguous range R_r of the sorted
/// live array, nested R_0 ⊇ R_1 ⊇ ..., and class r is R_r minus R_{r+1}:
/// the part of R_r on the other side of bit r from x. One lower_bound
/// inside R_r splits it, so a walk from R_0 (the whole array) costs one
/// search in a range that halves per level. It stops once R_{r+1} holds x
/// alone, because every deeper class is then empty.
///
/// Two nodes x' and x share R_0 .. R_L with L = CommonPrefixLength(x', x),
/// so a walk resumes each node at level L from the previous node's ranges;
/// over the array in id order, consecutive nodes share most levels. A
/// default-constructed walk has no previous node and starts at R_0.
class PrefixClassWalk {
 public:
  /// Calls `visit(r, lo, hi)` for r = 0, 1, ... with class r of the node at
  /// `pos` as the index range [lo, hi) of `live` (empty when no live id
  /// falls in the class), through the last non-empty class; nothing for a
  /// lone node. Successive calls on one walk must pass the same `live` and
  /// `bits`; any two ids share the ranges above their common prefix, so
  /// the positions may come in any order.
  template <typename Visit>
  void Walk(const std::vector<uint64_t>& live, size_t pos, int bits,
            const Visit& visit) {
    const uint64_t id = live[pos];
    int r = 0;
    if (depth_ < 0) {
      lo_[0] = 0;
      hi_[0] = live.size();
    } else {
      r = CommonPrefixLength(id_, id, bits);
      assert(r < depth_);  // R_r holds both ids, so the last walk split it
    }
    id_ = id;
    for (; hi_[r] - lo_[r] > 1; ++r) {
      const int bit = bits - 1 - r;
      assert(bit >= 0);  // R_bits holds `id` alone
      const uint64_t boundary = (id | (uint64_t{1} << bit)) & ~LowBitMask(bit);
      const size_t mid = static_cast<size_t>(
          std::lower_bound(live.begin() + static_cast<std::ptrdiff_t>(lo_[r]),
                           live.begin() + static_cast<std::ptrdiff_t>(hi_[r]),
                           boundary) -
          live.begin());
      const bool upper = ((id >> bit) & 1) != 0;
      lo_[r + 1] = upper ? mid : lo_[r];
      hi_[r + 1] = upper ? hi_[r] : mid;
    }
    depth_ = r;
    for (int c = 0; c < depth_; ++c) {
      // Class c is the part of R_c that R_{c+1} leaves on one side.
      if (lo_[c + 1] != lo_[c]) {
        visit(c, lo_[c], lo_[c + 1]);
      } else {
        visit(c, hi_[c + 1], hi_[c]);
      }
    }
  }

 private:
  uint64_t id_ = 0;  // the node the ranges below describe
  int depth_ = -1;   // R_0 .. R_depth_ are valid; -1 = no node walked yet
  std::array<size_t, 65> lo_{};  // R_r = [lo_[r], hi_[r])
  std::array<size_t, 65> hi_{};
};

/// The membership layer, written once for every geometry (CRTP). It owns
/// the parameters, the id space and the NodeStore (records, liveness, the
/// routing arena), and defines every operation that reads no geometry:
/// joins one at a time or in a batch, leaves and rejoins, stabilization of
/// one node or of every live node, the auxiliary list, the read-only
/// accessors, the footprint and the two routing entries into
/// RouteKernel<Net>.
///
/// A backend `Net` derives from `OverlayBase<Net, Node, Params>` and writes
/// only its geometry: its node record, `CoreNeighborIds`,
/// `ResponsibleNode`, `Rank`, `PrefetchTables`, `kCoreTables` (the record's
/// core table slices that a forgetting RemoveNode releases along with the
/// auxiliaries), and the per-position stabilization step:
/// `BuildCoreTables(pos, node, sweep)` rebuilds the core tables of the live
/// node at position `pos` of the sorted live array, whose record is `node`,
/// and `Sweep` is the state it carries from one position to the next. A
/// value-initialized `Sweep` is the state of a single-node stabilization;
/// in a sweep, each call sees the state the previous position left. Both
/// are private to the backend, which befriends this class. `Params`
/// carries `bits`, `frequency_capacity` and `freq_sketch`.
///
/// A backend that keeps slot-indexed data beside the store (Pastry's
/// underlay coordinates) also shadows three hooks:
/// `OnSlotCreated()` runs once for each new store slot, in slot order;
/// `ReserveSlots(n)` runs before a batch grows the store to at most n
/// slots; and `SideBytes()` is counted as node bytes by MemoryUsage.
template <typename Net, typename Node, typename Params>
class OverlayBase {
 public:
  using NodeType = Node;

  const Params& params() const { return params_; }
  const IdSpace& space() const { return space_; }

  /// Adds a live node with the given id and builds its tables from the
  /// current live membership. Other nodes learn of it only when they next
  /// stabilize. Fails on an out-of-range or live id.
  Status AddNode(uint64_t id) {
    if (Status s = CheckJoinable(id); !s.ok()) return s;
    EmplaceLive(id);
    store_.MarkAlive(id);
    return StabilizeNode(id);
  }

  /// Bulk join for large builds: inserts every id as a live node WITHOUT
  /// stabilizing (callers run StabilizeAll once after). O(n log n) total
  /// where the AddNode loop is quadratic. Fails before any mutation on an
  /// out-of-range id, a live id, or an id given twice.
  Status BulkAdd(const std::vector<uint64_t>& ids) {
    for (uint64_t id : ids) {
      if (Status s = CheckJoinable(id); !s.ok()) return s;
    }
    std::vector<uint64_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("id given twice");
    }
    const size_t slots = store_.size() + ids.size();
    store_.Reserve(slots);
    self().ReserveSlots(slots);
    for (uint64_t id : ids) EmplaceLive(id);
    store_.BulkMarkAlive(ids);
    return Status::Ok();
  }

  /// Crashes a node: it disappears immediately; other nodes' table entries
  /// naming it go stale until their next stabilization. The record keeps
  /// its frequency history for a later rejoin unless `forget_state` is set,
  /// which clears the history and releases every table slice.
  Status RemoveNode(uint64_t id, bool forget_state = false) {
    if (!store_.IsAlive(id)) return Status::NotFound("node not alive");
    store_.MarkDead(id);
    if (forget_state) {
      Node* node = store_.Get(id);
      node->frequencies.Clear();
      FlatTableArena& tables = store_.tables();
      for (FlatList Node::*slice : Net::kCoreTables) {
        tables.Release(node->*slice);
      }
      tables.Release(node->auxiliaries);
    }
    return Status::Ok();
  }

  /// Rejoins a previously crashed node: fresh tables, empty auxiliaries,
  /// and whatever frequency history its leave kept.
  Status RejoinNode(uint64_t id) {
    Node* node = store_.Get(id);
    if (node == nullptr) return Status::NotFound("unknown node");
    if (store_.IsAlive(id)) return Status::FailedPrecondition("already alive");
    // Auxiliaries are lost on crash; rebuilt at the next selection.
    store_.tables().Clear(node->auxiliaries);
    store_.MarkAlive(id);
    return StabilizeNode(id);
  }

  bool IsAlive(uint64_t id) const { return store_.IsAlive(id); }
  size_t live_count() const { return store_.live_count(); }
  std::vector<uint64_t> LiveNodeIds() const { return store_.live_ids(); }

  /// Node record (alive or departed); nullptr if the id was never added.
  Node* GetNode(uint64_t id) { return store_.Get(id); }
  const Node* GetNode(uint64_t id) const { return store_.Get(id); }

  /// The installed auxiliary list: a contiguous arena slice, valid until
  /// the next mutation of the same node's tables.
  std::span<const uint64_t> Auxiliaries(const Node& node) const {
    return store_.tables().View(node.auxiliaries);
  }

  /// Auxiliary list of `id` (empty when the node is unknown).
  std::span<const uint64_t> AuxiliarySpan(uint64_t id) const {
    const Node* node = store_.Get(id);
    return node == nullptr ? std::span<const uint64_t>{} : Auxiliaries(*node);
  }

  /// Removes every occurrence of `entry` from `id`'s auxiliary list
  /// (dead-entry eviction). No-op when the node is unknown.
  void EraseAuxiliary(uint64_t id, uint64_t entry) {
    if (Node* node = store_.Get(id)) {
      store_.tables().EraseValue(node->auxiliaries, entry);
    }
  }

  /// Installs auxiliary neighbors on a live node (ids need not be alive;
  /// dead ones are simply useless until pruned). Serial-only: writes the
  /// arena.
  Status SetAuxiliaries(uint64_t id, std::vector<uint64_t> auxiliaries) {
    if (!store_.IsAlive(id)) return Status::NotFound("node not alive");
    store_.tables().Assign(store_.Get(id)->auxiliaries, auxiliaries);
    return Status::Ok();
  }

  /// Rebuilds a live node's core tables from the live membership and
  /// prunes its dead auxiliaries (the paper's "stale auxiliary entries are
  /// marked/removed; fixed at the next selection"). Fails on a node that is
  /// not live.
  Status StabilizeNode(uint64_t id) {
    if (!store_.IsAlive(id)) return Status::NotFound("node not alive");
    typename Net::Sweep sweep{};
    StabilizeAt(store_.LowerBoundLive(id), sweep);
    return Status::Ok();
  }

  /// Stabilizes every live node in one sweep over the sorted live array:
  /// each node's table searches start where the previous node's ended, and
  /// the tables equal StabilizeNode's node for node.
  void StabilizeAll() {
    typename Net::Sweep sweep{};
    for (size_t pos = 0; pos < store_.live_count(); ++pos) {
      StabilizeAt(pos, sweep);
    }
  }

  /// Footprint accounting: node records and any slot-indexed side data,
  /// indices, routing arena.
  StoreMemoryStats MemoryUsage() const {
    StoreMemoryStats s = store_.MemoryUsage();
    const size_t side_bytes = self().SideBytes();
    s.node_bytes += side_bytes;
    if (store_.size() != 0) {
      s.bytes_per_node += static_cast<double>(side_bytes) /
                          static_cast<double>(store_.size());
    }
    return s;
  }

  /// Routes a lookup for `key` from `origin` over current (possibly stale)
  /// tables into a caller-owned result through RouteKernel. Does not
  /// record frequencies; callers decide what to observe. `out` is cleared
  /// first but keeps its path capacity, so a reused RouteResult makes the
  /// steady-state lookup path allocation-free. `options` carries the
  /// optional trace, fault plan and latency model; the default routes
  /// fault-free and untraced.
  Status LookupInto(uint64_t origin, uint64_t key, RouteResult& out,
                    const RouteOptions& options = {}) const {
    return RouteKernel<Net>::LookupInto(self(), origin, key, out, options);
  }

  /// By-value convenience form of LookupInto.
  Result<RouteResult> Lookup(uint64_t origin, uint64_t key,
                             const RouteOptions& options = {}) const {
    return RouteKernel<Net>::Lookup(self(), origin, key, options);
  }

 protected:
  explicit OverlayBase(const Params& params)
      : params_(params), space_(params.bits) {}

  // Default hooks: nothing is kept beside the store.
  void OnSlotCreated() {}
  void ReserveSlots(size_t /*slots*/) {}
  size_t SideBytes() const { return 0; }

  Params params_;
  IdSpace space_;
  NodeStore<Node> store_;  // all nodes ever seen (alive + dead)

 private:
  Net& self() { return static_cast<Net&>(*this); }
  const Net& self() const { return static_cast<const Net&>(*this); }

  // A template so the signature does not name Net's members before Net is
  // complete.
  template <typename Sweep>
  void StabilizeAt(size_t pos, Sweep& sweep) {
    Node& node = store_.at_slot(store_.live_slot(pos));
    self().BuildCoreTables(pos, node, sweep);
    store_.tables().EraseIf(node.auxiliaries,
                            [this](uint64_t a) { return !IsAlive(a); });
  }

  Status CheckJoinable(uint64_t id) const {
    if (!space_.Contains(id)) return Status::InvalidArgument("id out of range");
    if (store_.IsAlive(id)) {
      return Status::InvalidArgument("live id already used");
    }
    return Status::Ok();
  }

  /// Emplaces `id`'s record with cleared auxiliaries; the caller marks it
  /// alive in the store.
  void EmplaceLive(uint64_t id) {
    auto [node, inserted] =
        store_.Emplace(id, params_.frequency_capacity, params_.freq_sketch);
    if (inserted) self().OnSlotCreated();
    node->id = id;
    store_.tables().Clear(node->auxiliaries);
  }
};

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_OVERLAY_H_
