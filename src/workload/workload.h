#ifndef PEERCACHE_WORKLOAD_WORKLOAD_H_
#define PEERCACHE_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace peercache::workload {

/// A set of items with randomly generated `bits`-bit keys (paper Sec. VI-A:
/// "a set of nodes and items with randomly-generated identifiers"). Keys are
/// distinct, derived deterministically from the seed.
class ItemSpace {
 public:
  ItemSpace(int bits, size_t n_items, uint64_t seed);

  int bits() const { return bits_; }
  size_t n_items() const { return keys_.size(); }
  uint64_t ItemKey(size_t item_index) const { return keys_[item_index]; }
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  int bits_;
  std::vector<uint64_t> keys_;
};

/// Zipf popularity over item ranks, with `n_lists` distinct rank->item
/// assignments. The paper's Chord experiments use five lists with the same
/// zipf parameter but different item rankings, assigned to nodes at random;
/// the Pastry experiments use a single list shared by all nodes.
class PopularityModel {
 public:
  PopularityModel(size_t n_items, double alpha, int n_lists, uint64_t seed);

  int n_lists() const { return static_cast<int>(rank_to_item_.size()); }
  double alpha() const { return zipf_.alpha(); }
  const ZipfDistribution& zipf() const { return zipf_; }

  /// Item index at popularity rank `rank` (1 = hottest) in a given list.
  size_t ItemAtRank(int list_index, size_t rank) const {
    return rank_to_item_[static_cast<size_t>(list_index)][rank - 1];
  }

  /// Draws an item index according to list `list_index`.
  size_t SampleItem(int list_index, Rng& rng) const {
    return ItemAtRank(list_index, zipf_.Sample(rng));
  }

 private:
  ZipfDistribution zipf_;
  std::vector<std::vector<uint32_t>> rank_to_item_;
};

/// Ties the pieces together per node: each node gets one popularity list
/// (assigned deterministically from the workload seed on first use) and
/// draws query keys from it.
class QueryWorkload {
 public:
  /// Both references must outlive the workload.
  QueryWorkload(const ItemSpace& items, const PopularityModel& popularity,
                uint64_t seed);

  /// The popularity list assigned to this node (assigning it on first use).
  int ListOf(uint64_t node_id);

  /// Assigns lists to all of `node_ids` up front, in the given order.
  /// Assignment normally happens lazily in query order; pre-assigning makes
  /// it a function of the membership alone, and afterwards SampleItem no
  /// longer mutates the workload for these nodes — a requirement for the
  /// concurrent per-node query loops in the experiment drivers.
  void AssignLists(const std::vector<uint64_t>& node_ids);

  /// Draws the item index of a node's next query, using the caller's RNG
  /// for the zipf draw so interleavings stay deterministic.
  size_t SampleItem(uint64_t node_id, Rng& rng);

  /// The key of SampleItem's item: the same draw, as a key.
  uint64_t SampleKey(uint64_t node_id, Rng& rng) {
    return items_.ItemKey(SampleItem(node_id, rng));
  }

  const ItemSpace& items() const { return items_; }
  const PopularityModel& popularity() const { return popularity_; }

 private:
  const ItemSpace& items_;
  const PopularityModel& popularity_;
  Rng assign_rng_;
  std::unordered_map<uint64_t, int> node_list_;
};

}  // namespace peercache::workload

#endif  // PEERCACHE_WORKLOAD_WORKLOAD_H_
