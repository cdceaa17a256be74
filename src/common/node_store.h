#ifndef PEERCACHE_COMMON_NODE_STORE_H_
#define PEERCACHE_COMMON_NODE_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/flat_table_arena.h"

namespace peercache::overlay {

/// Cache-friendly node storage shared by the overlay simulators.
///
/// The seed implementation kept `std::map<uint64_t, Node>` plus a separate
/// `std::set<uint64_t>` of live ids, so every hot-path membership probe
/// (one per routing-table entry considered per hop) chased a red-black
/// tree, and every successor scan walked heap-scattered tree nodes. This
/// container keeps the data the lookup path actually touches in flat
/// arrays:
///
///   * `live_ids_`   — sorted, contiguous live ids: binary searches for
///                     responsible-node / successor queries walk one array;
///   * `live_slots_` — slot of each live id, parallel to `live_ids_`, so a
///                     ring search yields the node without a second lookup;
///   * `alive_`      — one byte per slot;
///   * `ids_`        — the id of each slot;
///   * `index_`      — id → slot, open addressing: a power-of-two array of
///                     slots (kNoSlot = empty cell) at load at most 1/2,
///                     homed by a multiplicative hash and linearly probed.
///
/// `IsAlive` is therefore one probe into `index_`, an id compare against
/// `ids_` and a byte load from `alive_`. Slots are append-only and never
/// leave the index, so it has no delete or tombstone path; growth
/// re-inserts every slot from `ids_`.
///
/// Node records themselves live in fixed-size slabs (kSlabNodes records
/// each, placement-new constructed): a slab never moves, so `Node*` handed
/// out by `Get` stays valid across later insertions — the stability
/// guarantee the old deque provided, without the deque's per-block
/// bookkeeping or its small default block size for large Node types. The
/// store also owns the FlatTableArena that backs the node records' FlatList
/// routing slices (`tables()`), which keeps one network's entire routing
/// state in a handful of large allocations and makes `MemoryUsage()`
/// accounting exact.
///
/// Membership changes (churn) are O(live) array edits — rare next to the
/// millions of lookups they serve; bulk construction goes through
/// `BulkMarkAlive` which is O(n log n) total instead of O(n^2).
template <typename Node>
class NodeStore {
 public:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  static constexpr uint32_t kSlabShift = 10;
  static constexpr uint32_t kSlabNodes = uint32_t{1} << kSlabShift;
  /// Odd multiplier of the index hash: an id's home cell in an index of
  /// 2^b cells is the top b bits of `id * kIndexHashMul`.
  static constexpr uint64_t kIndexHashMul = 0x9E3779B97F4A7C15ull;

  NodeStore() = default;
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;
  NodeStore(NodeStore&& other) noexcept
      : slabs_(std::move(other.slabs_)),
        count_(other.count_),
        alive_(std::move(other.alive_)),
        live_ids_(std::move(other.live_ids_)),
        live_slots_(std::move(other.live_slots_)),
        ids_(std::move(other.ids_)),
        index_(std::move(other.index_)),
        index_shift_(other.index_shift_),
        tables_(std::move(other.tables_)) {
    other.Abandon();
  }
  NodeStore& operator=(NodeStore&& other) noexcept {
    if (this != &other) {
      DestroyNodes();
      slabs_ = std::move(other.slabs_);
      count_ = other.count_;
      alive_ = std::move(other.alive_);
      live_ids_ = std::move(other.live_ids_);
      live_slots_ = std::move(other.live_slots_);
      ids_ = std::move(other.ids_);
      index_ = std::move(other.index_);
      index_shift_ = other.index_shift_;
      tables_ = std::move(other.tables_);
      other.Abandon();
    }
    return *this;
  }
  ~NodeStore() { DestroyNodes(); }

  /// The arena backing this store's FlatList routing slices.
  FlatTableArena& tables() { return tables_; }
  const FlatTableArena& tables() const { return tables_; }

  /// Pre-sizes every index structure for `n` nodes (slab pointers, liveness
  /// flags, live arrays, slot ids and the id→slot index) so a bulk build
  /// performs no incremental rehash or reallocation.
  void Reserve(size_t n) {
    slabs_.reserve((n + kSlabNodes - 1) >> kSlabShift);
    alive_.reserve(n);
    live_ids_.reserve(n);
    live_slots_.reserve(n);
    ids_.reserve(n);
    if (2 * n > index_.size()) Rehash(2 * n);
  }

  /// Slot of `id`, or kNoSlot when the id has never been added. Load at
  /// most 1/2 guarantees the probe run ends at an empty cell.
  uint32_t SlotOf(uint64_t id) const {
    if (index_.empty()) return kNoSlot;
    const size_t mask = index_.size() - 1;
    for (size_t cell = Home(id);; cell = (cell + 1) & mask) {
      const uint32_t slot = index_[cell];
      if (slot == kNoSlot || ids_[slot] == id) return slot;
    }
  }

  Node* Get(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : &at_slot(slot);
  }
  const Node* Get(uint64_t id) const {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : &at_slot(slot);
  }

  Node& at_slot(uint32_t slot) {
    return *(SlabBase(slot >> kSlabShift) + (slot & (kSlabNodes - 1)));
  }
  const Node& at_slot(uint32_t slot) const {
    return *(SlabBase(slot >> kSlabShift) + (slot & (kSlabNodes - 1)));
  }

  size_t size() const { return count_; }

  /// True iff the id's node exists and is currently alive: one index probe
  /// plus one flat byte load — the liveness check on the routing hot path.
  bool IsAlive(uint64_t id) const {
    const uint32_t slot = SlotOf(id);
    return slot != kNoSlot && alive_[slot] != 0;
  }

  /// Creates the node for `id` if absent (constructed from `args`), else
  /// returns the existing record. Second member is true on insertion.
  template <typename... Args>
  std::pair<Node*, bool> Emplace(uint64_t id, Args&&... args) {
    if (const uint32_t existing = SlotOf(id); existing != kNoSlot) {
      return {&at_slot(existing), false};
    }
    const uint32_t slot = count_;
    if ((slot >> kSlabShift) >= slabs_.size()) {
      slabs_.emplace_back(new std::byte[sizeof(Node) * kSlabNodes]);
    }
    Node* record = SlabBase(slot >> kSlabShift) + (slot & (kSlabNodes - 1));
    ::new (static_cast<void*>(record)) Node(std::forward<Args>(args)...);
    ++count_;
    alive_.push_back(0);
    ids_.push_back(id);
    if (2 * ids_.size() > index_.size()) {
      Rehash(2 * ids_.size());
    } else {
      Insert(id, slot);
    }
    return {record, true};
  }

  /// Marks an existing id live and inserts it into the sorted live arrays.
  /// No-op if already live or never added.
  void MarkAlive(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    if (slot == kNoSlot || alive_[slot]) return;
    alive_[slot] = 1;
    const size_t pos = static_cast<size_t>(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
    live_ids_.insert(live_ids_.begin() + static_cast<std::ptrdiff_t>(pos), id);
    live_slots_.insert(live_slots_.begin() + static_cast<std::ptrdiff_t>(pos),
                       slot);
  }

  /// Marks every id in `ids` live in one pass: O((m + live) log m) instead
  /// of m separate O(live) sorted insertions — the difference between a
  /// quadratic and a linearithmic bulk build at n = 2^20. Ids that were
  /// never added and ids that are already live are skipped.
  void BulkMarkAlive(const std::vector<uint64_t>& ids) {
    std::vector<std::pair<uint64_t, uint32_t>> added;
    added.reserve(ids.size());
    for (uint64_t id : ids) {
      const uint32_t slot = SlotOf(id);
      if (slot == kNoSlot || alive_[slot]) continue;
      alive_[slot] = 1;
      added.emplace_back(id, slot);
    }
    if (added.empty()) return;
    std::sort(added.begin(), added.end());
    if (live_ids_.empty()) {
      live_ids_.reserve(added.size());
      live_slots_.reserve(added.size());
      for (const auto& [id, slot] : added) {
        live_ids_.push_back(id);
        live_slots_.push_back(slot);
      }
      return;
    }
    // Merge the sorted batch with the existing sorted live arrays.
    std::vector<uint64_t> merged_ids;
    std::vector<uint32_t> merged_slots;
    merged_ids.reserve(live_ids_.size() + added.size());
    merged_slots.reserve(live_ids_.size() + added.size());
    size_t i = 0, j = 0;
    while (i < live_ids_.size() || j < added.size()) {
      if (j == added.size() ||
          (i < live_ids_.size() && live_ids_[i] < added[j].first)) {
        merged_ids.push_back(live_ids_[i]);
        merged_slots.push_back(live_slots_[i]);
        ++i;
      } else {
        merged_ids.push_back(added[j].first);
        merged_slots.push_back(added[j].second);
        ++j;
      }
    }
    live_ids_ = std::move(merged_ids);
    live_slots_ = std::move(merged_slots);
  }

  /// Marks a live id dead and removes it from the live arrays. No-op if
  /// not live or never added.
  void MarkDead(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    if (slot == kNoSlot || !alive_[slot]) return;
    alive_[slot] = 0;
    const size_t pos = static_cast<size_t>(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
    assert(pos < live_ids_.size() && live_ids_[pos] == id);
    live_ids_.erase(live_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
    live_slots_.erase(live_slots_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  size_t live_count() const { return live_ids_.size(); }

  /// Sorted live ids — the contiguous array ring searches walk.
  const std::vector<uint64_t>& live_ids() const { return live_ids_; }

  /// Slot of live_ids()[i].
  uint32_t live_slot(size_t i) const { return live_slots_[i]; }

  /// Index of the first live id >= `id` (== live_ids().size() when none).
  size_t LowerBoundLive(uint64_t id) const {
    return static_cast<size_t>(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
  }

  /// Index of the first live id > `id` (== live_ids().size() when none).
  size_t UpperBoundLive(uint64_t id) const {
    return static_cast<size_t>(
        std::upper_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
  }

  /// Deterministic footprint accounting for the scale-frontier telemetry.
  /// Every field is exact: `index_bytes` is the allocated bytes of the
  /// liveness flags, the live arrays, the slot ids and the id→slot index.
  StoreMemoryStats MemoryUsage() const {
    StoreMemoryStats s;
    s.node_bytes = slabs_.size() * kSlabNodes * sizeof(Node);
    s.index_bytes = alive_.capacity() * sizeof(uint8_t) +
                    live_ids_.capacity() * sizeof(uint64_t) +
                    live_slots_.capacity() * sizeof(uint32_t) +
                    ids_.capacity() * sizeof(uint64_t) +
                    index_.capacity() * sizeof(uint32_t);
    s.table_bytes = tables_.used_bytes();
    s.arena_bytes = tables_.allocated_bytes();
    const size_t total = s.node_bytes + s.index_bytes + s.arena_bytes;
    s.bytes_per_node =
        count_ == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count_);
    return s;
  }

 private:
  Node* SlabBase(size_t slab) {
    return std::launder(reinterpret_cast<Node*>(slabs_[slab].get()));
  }
  const Node* SlabBase(size_t slab) const {
    return std::launder(reinterpret_cast<const Node*>(slabs_[slab].get()));
  }

  void DestroyNodes() {
    for (uint32_t slot = 0; slot < count_; ++slot) at_slot(slot).~Node();
    count_ = 0;
  }

  /// Leaves a moved-from store empty (its records now belong elsewhere).
  void Abandon() {
    count_ = 0;
    slabs_.clear();
    ids_.clear();
    index_.clear();
  }

  size_t Home(uint64_t id) const {
    return static_cast<size_t>((id * kIndexHashMul) >> index_shift_);
  }

  /// Claims the first empty cell of `id`'s probe run for `slot`.
  void Insert(uint64_t id, uint32_t slot) {
    const size_t mask = index_.size() - 1;
    size_t cell = Home(id);
    while (index_[cell] != kNoSlot) cell = (cell + 1) & mask;
    index_[cell] = slot;
  }

  /// Regrows the index to the smallest power of two of at least
  /// max(`min_cells`, kMinIndexCells) cells and re-inserts every slot.
  void Rehash(size_t min_cells) {
    size_t cells = kMinIndexCells;
    int bits = kMinIndexBits;
    while (cells < min_cells) {
      cells <<= 1;
      ++bits;
    }
    index_ = std::vector<uint32_t>(cells, kNoSlot);
    index_shift_ = 64 - bits;
    for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
      Insert(ids_[slot], slot);
    }
  }

  static constexpr int kMinIndexBits = 4;
  static constexpr size_t kMinIndexCells = size_t{1} << kMinIndexBits;

  std::vector<std::unique_ptr<std::byte[]>> slabs_;  // kSlabNodes records each
  uint32_t count_ = 0;                               // constructed records
  std::vector<uint8_t> alive_;   // slot-indexed liveness flags
  std::vector<uint64_t> live_ids_;    // sorted live ids (contiguous)
  std::vector<uint32_t> live_slots_;  // parallel slots of live_ids_
  std::vector<uint64_t> ids_;         // slot-indexed ids
  std::vector<uint32_t> index_;       // id -> slot cells, kNoSlot = empty
  int index_shift_ = 64;              // 64 - log2(index_.size())
  FlatTableArena tables_;  // backing words for the nodes' FlatList slices
};

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_NODE_STORE_H_
