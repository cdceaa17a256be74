#include "experiments/overlay_policy.h"

#include "auxsel/chord_fast.h"
#include "auxsel/chord_qos.h"
#include "auxsel/oblivious.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/pastry_qos.h"

namespace peercache::experiments {

// The per-phase XOR constants below are load-bearing: every committed
// results/ figure was generated from these exact streams, and the golden
// differential test (tests/experiments/golden_figures_test.cc) holds the
// engine to them.

SeedPlan ChordPolicy::MakeSeedPlan(uint64_t seed) {
  SeedPlan plan;
  plan.ids = MixHash64(seed ^ 0x1d5);
  plan.items = MixHash64(seed ^ 0x2e6);
  plan.lists = MixHash64(seed ^ 0x3f7);
  plan.assign = MixHash64(seed ^ 0x408);
  plan.warmup = MixHash64(seed ^ 0x519);
  plan.measure = MixHash64(seed ^ 0x62a);
  plan.selection = MixHash64(seed ^ 0x73b);
  plan.churn = MixHash64(seed ^ 0x84c);
  plan.query_times = MixHash64(seed ^ 0x95d);
  plan.origins = MixHash64(seed ^ 0xa6e);
  return plan;
}

ChordPolicy::Network ChordPolicy::MakeNetwork(const ExperimentConfig& config,
                                              const SeedPlan& /*seeds*/) {
  chord::ChordParams params;
  params.bits = config.bits;
  params.frequency_capacity = config.frequency_capacity;
  params.freq_sketch = config.freq_sketch;
  params.successor_list_size = config.successor_list_size;
  return Network(params);
}

ChordPolicy::Maintainer ChordPolicy::MakeMaintainer(
    const ExperimentConfig& config, uint64_t self_id) {
  return Maintainer(config.bits, config.k, self_id);
}

Result<auxsel::Selection> ChordPolicy::SelectOptimal(
    const auxsel::SelectionInput& input) {
  return auxsel::SelectChordFast(input);
}

Result<auxsel::Selection> ChordPolicy::SelectOblivious(
    const auxsel::SelectionInput& input, Rng& rng) {
  return auxsel::SelectChordOblivious(input, rng);
}

Result<auxsel::Selection> ChordPolicy::SelectQos(
    const auxsel::SelectionInput& input) {
  return auxsel::SelectChordDpQos(input);
}

SeedPlan PastryPolicy::MakeSeedPlan(uint64_t seed) {
  SeedPlan plan;
  plan.ids = MixHash64(seed ^ 0xb11);
  plan.coords = MixHash64(seed ^ 0xc22);
  plan.items = MixHash64(seed ^ 0xd33);
  plan.lists = MixHash64(seed ^ 0xe44);
  plan.assign = MixHash64(seed ^ 0xf55);
  plan.warmup = MixHash64(seed ^ 0x166);
  plan.measure = MixHash64(seed ^ 0x277);
  plan.selection = MixHash64(seed ^ 0x388);
  plan.churn = MixHash64(seed ^ 0xc0ffee);
  plan.query_times = MixHash64(seed ^ 0xbeef01);
  plan.origins = MixHash64(seed ^ 0xbeef02);
  return plan;
}

PastryPolicy::Network PastryPolicy::MakeNetwork(const ExperimentConfig& config,
                                                const SeedPlan& seeds) {
  pastry::PastryParams params;
  params.bits = config.bits;
  params.frequency_capacity = config.frequency_capacity;
  params.freq_sketch = config.freq_sketch;
  params.leaf_set_half = config.leaf_set_half;
  return Network(params, seeds.coords);
}

PastryPolicy::Maintainer PastryPolicy::MakeMaintainer(
    const ExperimentConfig& config, uint64_t self_id) {
  return Maintainer(config.bits, config.k, self_id);
}

Result<auxsel::Selection> PastryPolicy::SelectOptimal(
    const auxsel::SelectionInput& input) {
  return auxsel::SelectPastryGreedy(input);
}

Result<auxsel::Selection> PastryPolicy::SelectOblivious(
    const auxsel::SelectionInput& input, Rng& rng) {
  return auxsel::SelectPastryOblivious(input, rng);
}

Result<auxsel::Selection> PastryPolicy::SelectQos(
    const auxsel::SelectionInput& input) {
  return auxsel::SelectPastryGreedyQos(input);
}

SeedPlan KademliaPolicy::MakeSeedPlan(uint64_t seed) {
  SeedPlan plan;
  plan.ids = MixHash64(seed ^ 0x4b11);
  plan.items = MixHash64(seed ^ 0x4b22);
  plan.lists = MixHash64(seed ^ 0x4b33);
  plan.assign = MixHash64(seed ^ 0x4b44);
  plan.warmup = MixHash64(seed ^ 0x4b55);
  plan.measure = MixHash64(seed ^ 0x4b66);
  plan.selection = MixHash64(seed ^ 0x4b77);
  plan.churn = MixHash64(seed ^ 0x4b88);
  plan.query_times = MixHash64(seed ^ 0x4b99);
  plan.origins = MixHash64(seed ^ 0x4baa);
  return plan;
}

KademliaPolicy::Network KademliaPolicy::MakeNetwork(
    const ExperimentConfig& config, const SeedPlan& /*seeds*/) {
  kademlia::KademliaParams params;
  params.bits = config.bits;
  params.frequency_capacity = config.frequency_capacity;
  params.freq_sketch = config.freq_sketch;
  return Network(params);
}

KademliaPolicy::Maintainer KademliaPolicy::MakeMaintainer(
    const ExperimentConfig& config, uint64_t self_id) {
  return Maintainer(config.bits, config.k, self_id);
}

Result<auxsel::Selection> KademliaPolicy::SelectOptimal(
    const auxsel::SelectionInput& input) {
  return auxsel::SelectPastryGreedy(input);
}

Result<auxsel::Selection> KademliaPolicy::SelectOblivious(
    const auxsel::SelectionInput& input, Rng& rng) {
  return auxsel::SelectKademliaOblivious(input, rng);
}

Result<auxsel::Selection> KademliaPolicy::SelectQos(
    const auxsel::SelectionInput& input) {
  return auxsel::SelectPastryGreedyQos(input);
}

}  // namespace peercache::experiments
