#include "experiments/experiment_config.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.h"

namespace peercache::experiments {

const char* SelectorKindName(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kNone:
      return "none";
    case SelectorKind::kOblivious:
      return "oblivious";
    case SelectorKind::kOptimal:
      return "optimal";
    case SelectorKind::kQos:
      return "qos";
  }
  return "?";
}

std::vector<int> ComputeAuxiliaryBudgets(const ExperimentConfig& config,
                                         const std::vector<uint64_t>& ids) {
  const size_t n = ids.size();
  std::vector<int> out(n, config.k);
  if (config.budget_gamma <= 0.0 || n == 0 || config.k <= 0) return out;
  const int cap = static_cast<int>(n) - 1;

  // Seeded Pareto(1.5) capacity per node, weighted by gamma. Weights are
  // summed in ascending-id order so the floating-point total — and hence
  // every budget — is independent of the order `ids` arrives in.
  constexpr double kParetoAlpha = 1.5;
  std::vector<size_t> by_id(n);
  std::iota(by_id.begin(), by_id.end(), size_t{0});
  std::sort(by_id.begin(), by_id.end(),
            [&](size_t a, size_t b) { return ids[a] < ids[b]; });
  std::vector<double> weight(n);
  double total_weight = 0.0;
  for (size_t idx : by_id) {
    const uint64_t h = MixHash64(SplitSeed(config.budget_seed, ids[idx]));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    const double capacity = std::pow(1.0 - u, -1.0 / kParetoAlpha);  // >= 1
    weight[idx] = std::pow(capacity, config.budget_gamma);
    total_weight += weight[idx];
  }

  // Largest-remainder apportionment of the global budget n * k: floor each
  // proportional share (capped), then hand out the leftover one pointer at
  // a time by descending fractional remainder, ties to the smaller id.
  const int64_t budget =
      static_cast<int64_t>(n) * static_cast<int64_t>(config.k);
  std::vector<double> remainder(n);
  int64_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double share =
        static_cast<double>(budget) * weight[i] / total_weight;
    const double floored = std::floor(share);
    out[i] = static_cast<int>(std::min<double>(floored, cap));
    remainder[i] = share - floored;
    assigned += out[i];
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (remainder[a] != remainder[b]) return remainder[a] > remainder[b];
    return ids[a] < ids[b];
  });
  int64_t leftover = budget - assigned;
  while (leftover > 0) {
    bool progressed = false;
    for (size_t idx : order) {
      if (leftover == 0) break;
      if (out[idx] >= cap) continue;
      ++out[idx];
      --leftover;
      progressed = true;
    }
    if (!progressed) break;  // every node at cap: budget exceeds n*(n-1)
  }
  return out;
}

double ImprovementPct(double oblivious_hops, double optimal_hops) {
  if (oblivious_hops <= 0) return 0.0;
  return 100.0 * (oblivious_hops - optimal_hops) / oblivious_hops;
}

}  // namespace peercache::experiments
