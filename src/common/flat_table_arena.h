#ifndef PEERCACHE_COMMON_FLAT_TABLE_ARENA_H_
#define PEERCACHE_COMMON_FLAT_TABLE_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bits.h"

namespace peercache::overlay {

/// Handle to one node-owned slice of a FlatTableArena. A FlatList is a plain
/// value (12 bytes) stored inside the node record; the words live in the
/// arena. A default-constructed list is empty with no backing block.
struct FlatList {
  std::uint32_t offset = 0;    // global word offset of the backing block
  std::uint32_t size = 0;      // live words
  std::uint32_t capacity = 0;  // block words (0 = no block allocated)
};

/// Per-node uint64 routing-table memory for one network: finger tables, leaf
/// sets, routing rows, buckets, and auxiliary lists all live here as
/// contiguous slices instead of per-node std::vectors.
///
/// Layout contract:
///  - storage is a list of fixed-size chunks (kChunkWords words each);
///  - every block's capacity is a power of two (>= kMinCapacity) and blocks
///    are allocated aligned to their own capacity, so a block never straddles
///    a chunk boundary and a slice is always contiguous in memory;
///  - freed blocks go on per-size-class free lists and are reused by later
///    allocations of the same class (slab reuse under churn);
///  - offsets are 32-bit word indices, bounding one arena at 32 GiB.
///
/// The arena is deliberately lock-free and single-writer: all mutation
/// happens on the serial build/stabilize/churn paths. Parallel phases only
/// read (View / routing) — see docs/ARCHITECTURE.md §7.
class FlatTableArena {
 public:
  static constexpr std::uint32_t kChunkShift = 16;
  static constexpr std::uint32_t kChunkWords = std::uint32_t{1} << kChunkShift;
  static constexpr std::uint32_t kMinCapacity = 4;

  FlatTableArena() = default;
  FlatTableArena(const FlatTableArena&) = delete;
  FlatTableArena& operator=(const FlatTableArena&) = delete;
  FlatTableArena(FlatTableArena&&) = default;
  FlatTableArena& operator=(FlatTableArena&&) = default;

  std::span<const std::uint64_t> View(const FlatList& list) const {
    if (list.size == 0) return {};
    return {WordPtr(list.offset), list.size};
  }

  std::span<std::uint64_t> MutableView(const FlatList& list) {
    if (list.size == 0) return {};
    return {WordPtr(list.offset), list.size};
  }

  std::uint64_t At(const FlatList& list, std::size_t i) const {
    assert(i < list.size);
    return *WordPtr(list.offset + static_cast<std::uint32_t>(i));
  }

  /// Replaces the contents of `list` with `n` words, reusing the existing
  /// block when it is large enough.
  void Assign(FlatList& list, const std::uint64_t* data, std::size_t n) {
    if (n == 0) {  // keep any existing block; never touch chunk storage
      list.size = 0;
      return;
    }
    EnsureCapacity(list, n);
    std::uint64_t* dst = WordPtr(list.offset);
    for (std::size_t i = 0; i < n; ++i) dst[i] = data[i];
    list.size = static_cast<std::uint32_t>(n);
  }

  void Assign(FlatList& list, const std::vector<std::uint64_t>& values) {
    Assign(list, values.data(), values.size());
  }

  void PushBack(FlatList& list, std::uint64_t value) {
    if (list.size == list.capacity) {
      EnsureCapacity(list, static_cast<std::size_t>(list.size) + 1);
    }
    *WordPtr(list.offset + list.size) = value;
    ++list.size;
  }

  /// Removes every occurrence of `value`, preserving the order of survivors.
  void EraseValue(FlatList& list, std::uint64_t value) {
    EraseIf(list, [value](std::uint64_t w) { return w == value; });
  }

  /// Removes every word for which `pred` is true, preserving order.
  template <typename Pred>
  void EraseIf(FlatList& list, Pred pred) {
    if (list.size == 0) return;
    std::uint64_t* base = WordPtr(list.offset);
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < list.size; ++i) {
      if (!pred(base[i])) base[out++] = base[i];
    }
    list.size = out;
  }

  /// Empties the list but keeps its block for reuse.
  void Clear(FlatList& list) { list.size = 0; }

  /// Returns the list's block to the free list; the list becomes empty.
  void Release(FlatList& list) {
    if (list.capacity != 0) {
      const std::uint32_t cls = SizeClass(list.capacity);
      if (free_.size() <= cls) free_.resize(cls + 1);
      free_[cls].push_back(list.offset);
      used_words_ -= list.capacity;
    }
    list = FlatList{};
  }

  /// Issues software prefetches for the first cache lines of the slice.
  void Prefetch(const FlatList& list) const {
    if (list.size == 0) return;
    const std::uint64_t* p = WordPtr(list.offset);
    __builtin_prefetch(p, 0, 1);
    if (list.size > 8) __builtin_prefetch(p + 8, 0, 1);
    if (list.size > 16) __builtin_prefetch(p + 16, 0, 1);
  }

  /// Words currently held by live blocks (capacity, not size), in bytes.
  std::size_t used_bytes() const { return used_words_ * sizeof(std::uint64_t); }

  /// Total chunk footprint in bytes (what the process actually allocated).
  std::size_t allocated_bytes() const {
    return chunks_.size() * kChunkWords * sizeof(std::uint64_t);
  }

  /// Blocks currently parked on free lists (for tests).
  std::size_t free_blocks() const {
    std::size_t n = 0;
    for (const auto& f : free_) n += f.size();
    return n;
  }

 private:
  static std::uint32_t SizeClass(std::uint32_t capacity) {
    return static_cast<std::uint32_t>(CeilLog2(capacity));
  }

  std::uint64_t* WordPtr(std::uint32_t offset) {
    return chunks_[offset >> kChunkShift].get() +
           (offset & (kChunkWords - 1));
  }
  const std::uint64_t* WordPtr(std::uint32_t offset) const {
    return chunks_[offset >> kChunkShift].get() +
           (offset & (kChunkWords - 1));
  }

  void EnsureCapacity(FlatList& list, std::size_t want) {
    if (want <= list.capacity) return;
    std::uint32_t cap = kMinCapacity;
    while (cap < want) cap <<= 1;
    assert(cap <= kChunkWords && "routing slice exceeds one arena chunk");
    const std::uint32_t offset = AllocateBlock(cap);
    // Migrate live words into the new block, then retire the old one.
    if (list.size != 0) {
      const std::uint64_t* src = WordPtr(list.offset);
      std::uint64_t* dst = WordPtr(offset);
      for (std::uint32_t i = 0; i < list.size; ++i) dst[i] = src[i];
    }
    const std::uint32_t live = list.size;
    Release(list);
    list.offset = offset;
    list.capacity = cap;
    list.size = live;
  }

  std::uint32_t AllocateBlock(std::uint32_t cap) {
    const std::uint32_t cls = SizeClass(cap);
    used_words_ += cap;
    if (cls < free_.size() && !free_[cls].empty()) {
      const std::uint32_t offset = free_[cls].back();
      free_[cls].pop_back();
      return offset;
    }
    // Align the bump pointer to the block size; power-of-two alignment
    // guarantees the block stays inside one chunk.
    tail_ = (tail_ + cap - 1) & ~(cap - 1);
    while ((tail_ >> kChunkShift) >= chunks_.size()) {
      chunks_.emplace_back(new std::uint64_t[kChunkWords]);
    }
    const std::uint32_t offset = tail_;
    tail_ += cap;
    return offset;
  }

  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  std::uint32_t tail_ = 0;
  std::vector<std::vector<std::uint32_t>> free_;
  std::size_t used_words_ = 0;
};

/// Memory accounting for one network's NodeStore (see NodeStore::MemoryUsage).
struct StoreMemoryStats {
  double bytes_per_node = 0.0;   // total footprint / node records
  std::size_t node_bytes = 0;    // node-record slabs
  std::size_t index_bytes = 0;   // alive flags, live arrays, id->slot index
  std::size_t table_bytes = 0;   // live routing-table words (arena blocks)
  std::size_t arena_bytes = 0;   // arena chunk footprint
};

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_FLAT_TABLE_ARENA_H_
