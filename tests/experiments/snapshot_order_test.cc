// The order of a frequency snapshot reaches no selection result. An
// exact-mode FrequencyTable lists its peers in slot order, which follows
// each node's insertion history; the selectors read their input through an
// id-sorted view (auxsel::SortedView), and exact weights are integer counts
// whose sums stay exact below 2^53. So on every overlay, the optimal and QoS
// selectors and the Eq. 1 evaluator must return the same ids and bit-equal
// costs for a warmed node's snapshot and for shuffles of it.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "experiments/parallel_engine.h"

namespace peercache::experiments {
namespace {

template <typename Policy>
double EvaluateCost(const auxsel::SelectionInput& input,
                    const std::vector<uint64_t>& aux) {
  if constexpr (std::is_same_v<Policy, ChordPolicy>) {
    return auxsel::EvaluateChordCost(input, aux);
  } else if constexpr (std::is_same_v<Policy, PastryPolicy>) {
    return auxsel::EvaluatePastryCost(input, aux);
  } else {
    return auxsel::EvaluateKademliaCost(input, aux);
  }
}

/// Both selections agree: same status code and, when they succeed, the same
/// ids at a bit-equal cost.
void ExpectSameSelection(const Result<auxsel::Selection>& got,
                         const Result<auxsel::Selection>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  EXPECT_EQ(got->chosen, want->chosen);
  EXPECT_EQ(std::bit_cast<uint64_t>(got->cost),
            std::bit_cast<uint64_t>(want->cost));
}

template <typename Policy>
class SnapshotOrderTest : public ::testing::Test {};

using Policies = ::testing::Types<ChordPolicy, PastryPolicy, KademliaPolicy>;
TYPED_TEST_SUITE(SnapshotOrderTest, Policies);

TYPED_TEST(SnapshotOrderTest, ShuffledSnapshotsSelectTheSameIdsAtTheSameCost) {
  using Policy = TypeParam;
  ExperimentConfig cfg;
  cfg.n_nodes = 256;
  cfg.k = 10;
  cfg.seed = 5;
  cfg.threads = 1;
  cfg.warmup_queries_per_node = 400;
  const SeedPlan seeds = Policy::MakeSeedPlan(cfg.seed);
  const std::vector<uint64_t> ids = SampleNodeIds(cfg, seeds.ids);
  WorkloadBundle workload(cfg, seeds, ids);
  typename Policy::Network net = Policy::MakeNetwork(cfg, seeds);
  ASSERT_TRUE(net.BulkAdd(ids).ok());
  net.StabilizeAll();
  ThreadPool pool(1);
  ASSERT_TRUE(internal::ParallelWarmup(pool, net, ids, workload.queries(),
                                       seeds.warmup,
                                       cfg.warmup_queries_per_node)
                  .ok());

  Rng rng(17);
  int qos_feasible = 0;
  for (uint64_t id : ids) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    auxsel::SelectionInput input;
    input.bits = cfg.bits;
    input.self_id = id;
    input.k = cfg.k;
    input.core_ids = net.CoreNeighborIds(id);
    input.peers = net.GetNode(id)->frequencies.Snapshot(id);
    ASSERT_FALSE(input.peers.empty());
    // A bound on about one peer in 16, keyed by id so every order of the
    // snapshot carries the same bounds.
    auxsel::SelectionInput qos = input;
    for (auxsel::PeerFreq& p : qos.peers) {
      if (MixHash64(p.id) % 16 == 0) p.delay_bound = 2;
    }

    const Result<auxsel::Selection> optimal = Policy::SelectOptimal(input);
    ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
    const double cost = EvaluateCost<Policy>(input, optimal->chosen);
    const Result<auxsel::Selection> bounded = Policy::SelectQos(qos);
    qos_feasible += bounded.ok() ? 1 : 0;

    for (int shuffle = 0; shuffle < 2; ++shuffle) {
      SCOPED_TRACE(::testing::Message() << "shuffle " << shuffle);
      rng.Shuffle(input.peers);
      rng.Shuffle(qos.peers);
      ExpectSameSelection(Policy::SelectOptimal(input), optimal);
      EXPECT_EQ(
          std::bit_cast<uint64_t>(EvaluateCost<Policy>(input, optimal->chosen)),
          std::bit_cast<uint64_t>(cost));
      ExpectSameSelection(Policy::SelectQos(qos), bounded);
    }
    if (this->HasFailure()) return;
  }
  EXPECT_GT(qos_feasible, 0) << "no node met the bounds: the QoS arm is idle";
}

}  // namespace
}  // namespace peercache::experiments
