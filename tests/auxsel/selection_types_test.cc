#include "auxsel/selection_types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "common/ring_id.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::RandomInput;

/// The O(|V| · |W|) scan the evaluators replaced, kept as their oracle:
/// every w of W = N ∪ aux priced for every peer, d(v, ∅) = b, summed in
/// input order with no peer skipped.
template <typename DistanceFn>
double ScanCost(const SelectionInput& input, const std::vector<uint64_t>& aux,
                DistanceFn distance) {
  std::vector<uint64_t> neighbors = input.core_ids;
  neighbors.insert(neighbors.end(), aux.begin(), aux.end());
  double total = 0;
  for (const PeerFreq& peer : input.peers) {
    int best = input.bits;
    for (uint64_t w : neighbors) best = std::min(best, distance(w, peer.id));
    total += peer.frequency * (1.0 + best);
  }
  return total;
}

template <typename DistanceFn>
bool ScanQos(const SelectionInput& input, const std::vector<uint64_t>& aux,
             DistanceFn distance) {
  std::vector<uint64_t> neighbors = input.core_ids;
  neighbors.insert(neighbors.end(), aux.begin(), aux.end());
  for (const PeerFreq& peer : input.peers) {
    if (peer.delay_bound < 0) continue;
    int best = input.bits;
    for (uint64_t w : neighbors) best = std::min(best, distance(w, peer.id));
    if (best > peer.delay_bound) return false;
  }
  return true;
}

TEST(ValidateInput, AcceptsWellFormed) {
  SelectionInput input;
  input.bits = 16;
  input.self_id = 5;
  input.peers = {{1, 2.0, -1}, {2, 3.0, 4}};
  input.core_ids = {9};
  input.k = 3;
  EXPECT_TRUE(ValidateInput(input).ok());
}

TEST(ValidateInput, RejectsBadInputs) {
  SelectionInput base;
  base.bits = 8;
  base.self_id = 5;
  base.peers = {{1, 2.0, -1}};
  base.k = 1;

  SelectionInput input = base;
  input.bits = 65;
  EXPECT_FALSE(ValidateInput(input).ok());

  input = base;
  input.k = -1;
  EXPECT_FALSE(ValidateInput(input).ok());

  input = base;
  input.self_id = 300;
  EXPECT_FALSE(ValidateInput(input).ok());

  input = base;
  input.peers.push_back({1, 1.0, -1});  // duplicate
  EXPECT_FALSE(ValidateInput(input).ok());

  input = base;
  input.peers[0].id = 5;  // self
  EXPECT_FALSE(ValidateInput(input).ok());

  input = base;
  input.core_ids = {999};  // out of range
  EXPECT_FALSE(ValidateInput(input).ok());
}

TEST(EvaluatePastryCost, HandComputed) {
  SelectionInput input;
  input.bits = 4;
  input.self_id = 0b0000;
  input.peers = {{0b1011, 2.0, -1}, {0b1111, 3.0, -1}};
  input.core_ids = {0b1011};
  // 1011 is core: d = 0, cost 2*(1+0) = 2.
  // 1111: nearest neighbor 1011, lcp = 1, d = 3, cost 3*(1+3) = 12.
  EXPECT_DOUBLE_EQ(EvaluatePastryCost(input, {}), 14.0);
  // Choosing 1111 as auxiliary: its own d = 0 -> cost 2 + 3 = 5.
  EXPECT_DOUBLE_EQ(EvaluatePastryCost(input, {0b1111}), 5.0);
}

TEST(EvaluatePastryCost, NoNeighborsCapsAtBits) {
  SelectionInput input;
  input.bits = 4;
  input.self_id = 0;
  input.peers = {{7, 2.0, -1}};
  EXPECT_DOUBLE_EQ(EvaluatePastryCost(input, {}), 2.0 * (1 + 4));
}

TEST(EvaluateChordCost, HandComputed) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 10;
  input.peers = {{20, 1.0, -1}, {30, 5.0, -1}};
  input.core_ids = {18};
  // Peer 20: from core 18 distance 2, bitlen = 2. cost 1*(1+2) = 3.
  // Peer 30: from 18 distance 12, bitlen = 4. cost 5*(1+4) = 25.
  EXPECT_DOUBLE_EQ(EvaluateChordCost(input, {}), 28.0);
  // Aux at 29: peer 30 served at distance 1: cost 5*(1+1) = 10.
  input.peers.push_back({29, 0.0, -1});
  EXPECT_DOUBLE_EQ(EvaluateChordCost(input, {29}), 13.0);
}

TEST(EvaluateChordCost, OvershootingNeighborDoesNotHelp) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 0;
  input.peers = {{100, 1.0, -1}};
  // Neighbor just past the peer: clockwise distance 101 -> 255, bitlen 8 ==
  // the no-neighbor cap.
  EXPECT_DOUBLE_EQ(EvaluateChordCost(input, {101}), 1.0 * (1 + 8));
}

TEST(QosSatisfied, ChecksBounds) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 0;
  input.peers = {{0b10000000, 1.0, 2}};
  EXPECT_FALSE(PastryQosSatisfied(input, {}));
  // Neighbor sharing 6 bits: d = 2 <= bound.
  EXPECT_TRUE(PastryQosSatisfied(input, {0b10000010}));
  EXPECT_FALSE(PastryQosSatisfied(input, {0b10001000}));  // d = 4

  input.peers = {{100, 1.0, 3}};
  EXPECT_FALSE(ChordQosSatisfied(input, {}));
  EXPECT_TRUE(ChordQosSatisfied(input, {95}));   // bitlen(5) = 3
  EXPECT_FALSE(ChordQosSatisfied(input, {80}));  // bitlen(20) = 5
}

// The nearest-neighbour evaluators against the full scan, bit for bit, on
// random inputs: every id length the selectors accept at its edges, empty
// N ∪ A, self and repeated ids among the cores and auxiliaries, zero and
// non-integer frequencies, and delay bounds for the QoS checks.
TEST(Eq1Evaluators, BitEqualToTheFullScan) {
  Rng rng(20261020);
  for (int bits : {1, 8, 32, 64}) {
    const uint64_t mask = LowBitMask(bits);
    const IdSpace space(bits);
    for (int trial = 0; trial < 400; ++trial) {
      SelectionInput input = RandomInput(
          rng, bits, static_cast<int>(rng.UniformU64(40)),
          static_cast<int>(rng.UniformU64(10)), 0);
      for (PeerFreq& p : input.peers) {
        switch (rng.UniformU64(4)) {
          case 0: p.frequency = 0.0; break;
          case 1: p.frequency = static_cast<double>(rng.UniformU64(50)); break;
          case 2: p.frequency = rng.UniformDouble() * 50.0; break;
          default: p.frequency = static_cast<double>(rng.UniformU64(7)) / 3;
        }
        p.delay_bound = rng.Bernoulli(0.4)
                            ? static_cast<int>(rng.UniformU64(
                                  static_cast<uint64_t>(bits) + 1))
                            : -1;
      }
      std::vector<uint64_t> aux;
      if (trial % 8 == 0) {
        input.core_ids.clear();  // empty N ∪ A: every peer pays the cap
      } else {
        if (rng.Bernoulli(0.3)) input.core_ids.push_back(input.self_id);
        if (!input.core_ids.empty() && rng.Bernoulli(0.3)) {
          input.core_ids.push_back(input.core_ids.front());
        }
        for (uint64_t a = rng.UniformU64(6); a > 0; --a) {
          aux.push_back(!input.peers.empty() && rng.Bernoulli(0.5)
                            ? input.peers[rng.UniformU64(input.peers.size())].id
                            : rng.NextU64() & mask);
        }
      }
      const uint64_t self = input.self_id;
      const auto pastry = [bits](uint64_t w, uint64_t v) {
        return bits - CommonPrefixLength(w, v, bits);
      };
      const auto chord = [&space, self, bits](uint64_t w, uint64_t v) {
        const uint64_t sv = space.ClockwiseDistance(self, v);
        const uint64_t sw = space.ClockwiseDistance(self, w);
        return sw > sv ? bits : BitLength(sv - sw);
      };
      const auto kademlia = [](uint64_t w, uint64_t v) {
        return BitLength(w ^ v);
      };
      SCOPED_TRACE(::testing::Message() << "bits " << bits << " trial "
                                        << trial);
      EXPECT_EQ(std::bit_cast<uint64_t>(EvaluatePastryCost(input, aux)),
                std::bit_cast<uint64_t>(ScanCost(input, aux, pastry)));
      EXPECT_EQ(std::bit_cast<uint64_t>(EvaluateChordCost(input, aux)),
                std::bit_cast<uint64_t>(ScanCost(input, aux, chord)));
      EXPECT_EQ(std::bit_cast<uint64_t>(EvaluateKademliaCost(input, aux)),
                std::bit_cast<uint64_t>(ScanCost(input, aux, kademlia)));
      EXPECT_EQ(PastryQosSatisfied(input, aux), ScanQos(input, aux, pastry));
      EXPECT_EQ(ChordQosSatisfied(input, aux), ScanQos(input, aux, chord));
      EXPECT_EQ(KademliaQosSatisfied(input, aux),
                ScanQos(input, aux, kademlia));
    }
  }
}

TEST(ValidatePool, ChecksEveryPeerOnceAndAllowsTheSelectingNodes) {
  const std::vector<PeerFreq> pool = {{5, 0.0, -1}, {9, 0.0, -1}};
  EXPECT_TRUE(ValidatePool(pool, 8).ok());
  EXPECT_TRUE(ValidatePool({}, 8).ok());

  std::vector<PeerFreq> bad = pool;
  bad.push_back({5, 0.0, -1});  // repeated id
  EXPECT_EQ(ValidatePool(bad, 8).code(), StatusCode::kInvalidArgument);
  bad = pool;
  bad.push_back({256, 0.0, -1});  // out of range for 8 bits
  EXPECT_EQ(ValidatePool(bad, 8).code(), StatusCode::kInvalidArgument);
  bad = pool;
  bad[1].frequency = -1.0;
  EXPECT_EQ(ValidatePool(bad, 8).code(), StatusCode::kInvalidArgument);
  bad[1].frequency = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ValidatePool(bad, 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidatePool(pool, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidatePool(pool, 65).code(), StatusCode::kInvalidArgument);
}

TEST(QosSatisfied, UnboundedAlwaysOk) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 0;
  input.peers = {{100, 1.0, -1}};
  EXPECT_TRUE(PastryQosSatisfied(input, {}));
  EXPECT_TRUE(ChordQosSatisfied(input, {}));
}

}  // namespace
}  // namespace peercache::auxsel
