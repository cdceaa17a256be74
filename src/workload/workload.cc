#include "workload/workload.h"

#include <cassert>
#include <unordered_set>

#include "common/bits.h"

namespace peercache::workload {

ItemSpace::ItemSpace(int bits, size_t n_items, uint64_t seed) : bits_(bits) {
  assert(bits >= 1 && bits <= 64);
  const uint64_t mask = LowBitMask(bits);
  assert(n_items <= mask);  // distinct keys must fit the id space
  keys_.reserve(n_items);
  std::unordered_set<uint64_t> seen;
  seen.reserve(n_items * 2);
  uint64_t counter = 0;
  while (keys_.size() < n_items) {
    uint64_t key = MixHash64(seed ^ counter++) & mask;
    if (seen.insert(key).second) keys_.push_back(key);
  }
}

PopularityModel::PopularityModel(size_t n_items, double alpha, int n_lists,
                                 uint64_t seed)
    : zipf_(n_items, alpha) {
  assert(n_lists >= 1);
  rank_to_item_.resize(static_cast<size_t>(n_lists));
  Rng rng(seed);
  for (auto& list : rank_to_item_) {
    list.resize(n_items);
    for (size_t i = 0; i < n_items; ++i) list[i] = static_cast<uint32_t>(i);
    rng.Shuffle(list);
  }
}

QueryWorkload::QueryWorkload(const ItemSpace& items,
                             const PopularityModel& popularity, uint64_t seed)
    : items_(items), popularity_(popularity), assign_rng_(seed) {
  assert(items.n_items() == popularity.zipf().n());
}

int QueryWorkload::ListOf(uint64_t node_id) {
  auto it = node_list_.find(node_id);
  if (it != node_list_.end()) return it->second;
  int list = static_cast<int>(assign_rng_.UniformU64(
      static_cast<uint64_t>(popularity_.n_lists())));
  node_list_.emplace(node_id, list);
  return list;
}

void QueryWorkload::AssignLists(const std::vector<uint64_t>& node_ids) {
  for (uint64_t id : node_ids) (void)ListOf(id);
}

size_t QueryWorkload::SampleItem(uint64_t node_id, Rng& rng) {
  return popularity_.SampleItem(ListOf(node_id), rng);
}

}  // namespace peercache::workload
