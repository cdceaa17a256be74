// The engine's oblivious draw against the public selector. The engine
// validates each round's shared pool once (ObliviousPool) and draws from it
// in place with Policy::DrawOblivious, skipping the selecting node; the
// public Policy::SelectOblivious validates its own input, which holds a copy
// of the pool without the selecting node. On built Chord, Pastry and
// Kademlia overlays both must return the same ids and leave the RNG in the
// same state, for the oblivious arm and for the padding of a
// frequency-aware selection; the stable oblivious arm must install exactly
// the reference picks; and a round whose pool repeats an id must fail.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/random.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "experiments/parallel_engine.h"

namespace peercache::experiments {
namespace {

/// The per-node input the engine built before it drew in place: a copy of
/// the pool without the selecting node, and the node's core neighbors.
std::vector<auxsel::PeerFreq> CopyWithoutSelf(
    const std::vector<auxsel::PeerFreq>& pool, uint64_t self_id) {
  std::vector<auxsel::PeerFreq> peers;
  for (const auxsel::PeerFreq& p : pool) {
    if (p.id != self_id) peers.push_back(p);
  }
  return peers;
}

ExperimentConfig PoolConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n_nodes = 256;
  cfg.k = 10;
  cfg.seed = seed;
  cfg.threads = 1;
  return cfg;
}

template <typename Policy>
class ObliviousPoolTest : public ::testing::Test {};

using Policies = ::testing::Types<ChordPolicy, PastryPolicy, KademliaPolicy>;
TYPED_TEST_SUITE(ObliviousPoolTest, Policies);

TYPED_TEST(ObliviousPoolTest, EngineDrawEqualsPublicSelector) {
  using Policy = TypeParam;
  for (uint64_t seed : {1, 2, 3}) {
    const ExperimentConfig cfg = PoolConfig(seed);
    const SeedPlan seeds = Policy::MakeSeedPlan(seed);
    typename Policy::Network net = Policy::MakeNetwork(cfg, seeds);
    const std::vector<uint64_t> ids = SampleNodeIds(cfg, seeds.ids);
    ASSERT_TRUE(net.BulkAdd(ids).ok());
    net.StabilizeAll();
    const Result<std::vector<auxsel::PeerFreq>> pool =
        internal::ObliviousPool(ids, cfg.bits);
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();

    for (uint64_t id : ids) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " node " << id);
      const std::vector<uint64_t> cores = net.CoreNeighborIds(id);
      auxsel::SelectionInput input;
      input.bits = cfg.bits;
      input.self_id = id;
      input.peers = CopyWithoutSelf(pool.value(), id);
      input.core_ids = cores;
      input.k = cfg.k;

      // The oblivious arm: k picks, the cores excluded.
      Rng engine_rng(SplitSeed(seeds.selection, id));
      Rng public_rng(SplitSeed(seeds.selection, id));
      const std::vector<uint64_t> drawn = Policy::DrawOblivious(
          pool.value(), id, cores, cfg.k, cfg.bits, engine_rng);
      const Result<auxsel::Selection> ref =
          Policy::SelectOblivious(input, public_rng);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(drawn, ref->chosen);
      EXPECT_EQ(engine_rng.NextU64(), public_rng.NextU64());

      // Padding: a selection that already chose a few peers asks for the
      // rest of k, with those peers excluded beside the cores.
      std::vector<uint64_t> chosen;
      for (const auxsel::PeerFreq& p : input.peers) {
        if (static_cast<int>(chosen.size()) == cfg.k / 3) break;
        if (std::find(cores.begin(), cores.end(), p.id) == cores.end()) {
          chosen.push_back(p.id);
        }
      }
      std::vector<uint64_t> excluded = cores;
      excluded.insert(excluded.end(), chosen.begin(), chosen.end());
      const int rest = cfg.k - static_cast<int>(chosen.size());
      const std::vector<uint64_t> padded = Policy::DrawOblivious(
          pool.value(), id, excluded, rest, cfg.bits, engine_rng);
      input.core_ids = excluded;
      input.k = rest;
      const Result<auxsel::Selection> pad_ref =
          Policy::SelectOblivious(input, public_rng);
      ASSERT_TRUE(pad_ref.ok()) << pad_ref.status().ToString();
      EXPECT_EQ(padded, pad_ref->chosen);
      EXPECT_EQ(engine_rng.NextU64(), public_rng.NextU64());
    }
  }
}

TYPED_TEST(ObliviousPoolTest, StableObliviousArmInstallsTheReferencePicks) {
  using Policy = TypeParam;
  const ExperimentConfig cfg = PoolConfig(7);
  const Result<RunResult> run = RunStable<Policy>(cfg, SelectorKind::kOblivious);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const SeedPlan seeds = Policy::MakeSeedPlan(cfg.seed);
  typename Policy::Network net = Policy::MakeNetwork(cfg, seeds);
  const std::vector<uint64_t> ids = SampleNodeIds(cfg, seeds.ids);
  ASSERT_TRUE(net.BulkAdd(ids).ok());
  net.StabilizeAll();
  std::vector<auxsel::PeerFreq> pool;
  for (uint64_t id : ids) pool.push_back({id, 0.0, -1});

  ASSERT_EQ(run->node_auxiliaries.size(), ids.size());
  for (const auto& [id, installed] : run->node_auxiliaries) {
    auxsel::SelectionInput input;
    input.bits = cfg.bits;
    input.self_id = id;
    input.peers = CopyWithoutSelf(pool, id);
    input.core_ids = net.CoreNeighborIds(id);
    input.k = cfg.k;
    Rng rng(SplitSeed(seeds.selection, id));
    const Result<auxsel::Selection> ref = Policy::SelectOblivious(input, rng);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(installed, ref->chosen) << "node " << id;
  }
}

TEST(ObliviousPool, RoundPoolIsValidatedOnce) {
  EXPECT_TRUE(internal::ObliviousPool({5, 9, 200}, 8).ok());
  // A repeated id fails the round as a node's ValidateInput would.
  const Result<std::vector<auxsel::PeerFreq>> repeated =
      internal::ObliviousPool({5, 9, 5}, 8);
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  // So do an id outside the id space and an id length out of range.
  EXPECT_EQ(internal::ObliviousPool({5, 256}, 8).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(internal::ObliviousPool({5}, 0).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace peercache::experiments
