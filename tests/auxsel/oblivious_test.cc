#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "auxsel/chord_fast.h"
#include "auxsel/oblivious.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/selection_types.h"
#include "common/bits.h"
#include "common/random.h"
#include "common/zipf.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::RandomInput;

enum class Geometry { kChord, kPastry, kKademlia };

/// Candidate v's slice around `self`, written from each geometry's
/// definition in oblivious.h rather than taken from the draw.
int SliceOf(Geometry g, uint64_t self, uint64_t v, int bits) {
  switch (g) {
    case Geometry::kChord:
      return BitLength((v - self) & LowBitMask(bits)) - 1;
    case Geometry::kPastry:
      return CommonPrefixLength(self, v, bits);
    case Geometry::kKademlia:
      return BitLength(self ^ v) - 1;
  }
  return -1;
}

std::vector<uint64_t> DrawIn(Geometry g, const std::vector<PeerFreq>& pool,
                             uint64_t self,
                             const std::vector<uint64_t>& excluded, int k,
                             int bits, Rng& rng) {
  switch (g) {
    case Geometry::kChord:
      return DrawChordOblivious(pool, self, excluded, k, bits, rng);
    case Geometry::kPastry:
      return DrawPastryOblivious(pool, self, excluded, k, bits, rng);
    case Geometry::kKademlia:
      return DrawKademliaOblivious(pool, self, excluded, k, bits, rng);
  }
  return {};
}

/// Picks per slice by the round-robin rule, from the slice sizes alone:
/// round r takes one pick from every slice longer than r, in slice order,
/// until k are placed or every slice is exhausted.
std::vector<size_t> RoundRobinCounts(const std::vector<size_t>& sizes,
                                     size_t k) {
  std::vector<size_t> picks(sizes.size(), 0);
  size_t placed = 0;
  for (size_t round = 0; placed < k; ++round) {
    const size_t before = placed;
    for (size_t s = 0; s < sizes.size() && placed < k; ++s) {
      if (sizes[s] > round) {
        ++picks[s];
        ++placed;
      }
    }
    if (placed == before) break;
  }
  return picks;
}

/// Upper-tail chi-square quantile at significance 1e-4 (z = 3.719), by the
/// Wilson-Hilferty approximation, which errs high at small df.
double ChiSquareCritical(size_t df) {
  const double d = static_cast<double>(df);
  const double c = 2.0 / (9.0 * d);
  return d * std::pow(1.0 - c + 3.719 * std::sqrt(c), 3);
}

// The distribution oracle for the draw, in every geometry at bits 8, 32
// and 64, on a 64-peer pool that holds the selecting node, with six pool
// peers and three outside ids excluded. Over 3000 seeds:
//  * each slice gets exactly the picks the round-robin rule gives its size;
//  * within a slice that is not taken whole, each member is picked equally
//    often: a chi-square test per slice at significance 1e-4 (about 60
//    slices are tested, so a correct draw fails with probability < 1 %;
//    the seeds are fixed, so the outcome is too);
//  * no pick is self, an excluded id or a repeat.
TEST(ObliviousDraw, RoundRobinCountsUniformWithinSlicesNoForbiddenPick) {
  constexpr int kSeeds = 3000;
  constexpr int kK = 14;
  for (Geometry g :
       {Geometry::kChord, Geometry::kPastry, Geometry::kKademlia}) {
    for (int bits : {8, 32, 64}) {
      SCOPED_TRACE(::testing::Message() << "geometry "
                                        << static_cast<int>(g) << " bits "
                                        << bits);
      Rng setup(static_cast<uint64_t>(bits) * 3 + static_cast<uint64_t>(g));
      const std::vector<uint64_t> ids = setup.SampleDistinct(
          bits == 64 ? ~uint64_t{0} : uint64_t{1} << bits, 67);
      const uint64_t self = ids[20];
      std::vector<PeerFreq> pool;
      for (size_t i = 0; i < 64; ++i) pool.push_back({ids[i], 0.0, -1});
      const std::vector<uint64_t> excluded = {ids[5],  ids[11], ids[17],
                                              ids[29], ids[41], ids[53],
                                              ids[64], ids[65], ids[66]};

      std::vector<std::vector<uint64_t>> slices(
          static_cast<size_t>(bits) + 1);
      std::map<uint64_t, size_t> slice_of;
      for (const PeerFreq& p : pool) {
        if (p.id == self || std::find(excluded.begin(), excluded.end(),
                                      p.id) != excluded.end()) {
          continue;
        }
        const size_t s = static_cast<size_t>(SliceOf(g, self, p.id, bits));
        slices[s].push_back(p.id);
        slice_of[p.id] = s;
      }
      std::vector<size_t> sizes;
      for (const auto& slice : slices) sizes.push_back(slice.size());
      const std::vector<size_t> expected = RoundRobinCounts(sizes, kK);

      std::map<uint64_t, int> times;
      for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(SplitSeed(static_cast<uint64_t>(bits), seed));
        const std::vector<uint64_t> picks =
            DrawIn(g, pool, self, excluded, kK, bits, rng);
        ASSERT_TRUE(std::is_sorted(picks.begin(), picks.end()));
        ASSERT_EQ(std::adjacent_find(picks.begin(), picks.end()),
                  picks.end())
            << "repeated pick";
        std::vector<size_t> per_slice(sizes.size(), 0);
        for (uint64_t id : picks) {
          ASSERT_NE(id, self);
          ASSERT_EQ(std::find(excluded.begin(), excluded.end(), id),
                    excluded.end());
          ASSERT_TRUE(slice_of.count(id)) << "pick outside the pool";
          ++per_slice[slice_of[id]];
          ++times[id];
        }
        ASSERT_EQ(per_slice, expected);
      }

      size_t uniform_tests = 0;
      for (size_t s = 0; s < slices.size(); ++s) {
        if (expected[s] == 0) continue;
        if (expected[s] == sizes[s]) {
          for (uint64_t id : slices[s]) EXPECT_EQ(times[id], kSeeds);
          continue;
        }
        const double mean = static_cast<double>(kSeeds) *
                            static_cast<double>(expected[s]) /
                            static_cast<double>(sizes[s]);
        double chi2 = 0;
        for (uint64_t id : slices[s]) {
          const double d = static_cast<double>(times[id]) - mean;
          chi2 += d * d / mean;
        }
        EXPECT_LT(chi2, ChiSquareCritical(sizes[s] - 1))
            << "slice " << s << " of size " << sizes[s] << " with "
            << expected[s] << " picks";
        ++uniform_tests;
      }
      EXPECT_GE(uniform_tests, 2u) << "the pool must exercise the test";
    }
  }
}

TEST(Oblivious, PicksExactlyKWhenEnoughCandidates) {
  Rng rng(1);
  SelectionInput input = RandomInput(rng, 16, 50, 4, 8);
  Rng pick_rng(2);
  auto chord = SelectChordOblivious(input, pick_rng);
  auto pastry = SelectPastryOblivious(input, pick_rng);
  ASSERT_TRUE(chord.ok());
  ASSERT_TRUE(pastry.ok());
  EXPECT_EQ(chord->chosen.size(), 8u);
  EXPECT_EQ(pastry->chosen.size(), 8u);
}

TEST(Oblivious, NeverPicksCoresSelfOrDuplicates) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    SelectionInput input = RandomInput(rng, 12, 30, 6, 10);
    Rng pick_rng(100 + static_cast<uint64_t>(trial));
    for (auto* fn : {&SelectChordOblivious, &SelectPastryOblivious}) {
      auto sel = (*fn)(input, pick_rng);
      ASSERT_TRUE(sel.ok());
      std::set<uint64_t> seen;
      for (uint64_t id : sel->chosen) {
        EXPECT_NE(id, input.self_id);
        EXPECT_TRUE(std::find(input.core_ids.begin(), input.core_ids.end(),
                              id) == input.core_ids.end());
        EXPECT_TRUE(seen.insert(id).second) << "duplicate pick";
      }
    }
  }
}

TEST(Oblivious, SpreadsAcrossDistanceSlices) {
  // With k equal to the number of nonempty slices, the Chord baseline puts
  // one pointer per slice (the paper's r = 1 configuration).
  SelectionInput input;
  input.bits = 16;
  input.self_id = 0;
  // Two candidates in each of four far-apart slices.
  for (uint64_t base : {1u << 4, 1u << 7, 1u << 10, 1u << 13}) {
    input.peers.push_back(PeerFreq{base + 1, 1.0, -1});
    input.peers.push_back(PeerFreq{base + 2, 1.0, -1});
  }
  input.k = 4;
  Rng rng(9);
  auto sel = SelectChordOblivious(input, rng);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->chosen.size(), 4u);
  std::set<int> slices;
  for (uint64_t id : sel->chosen) {
    slices.insert(BitLength(id) - 1);
  }
  EXPECT_EQ(slices.size(), 4u) << "one pick per nonempty slice expected";
}

TEST(Oblivious, OptimalNeverWorseOnSkewedWorkloads) {
  // The headline claim, in miniature: on zipf-skewed frequencies the
  // frequency-aware optimum has cost <= the oblivious baseline.
  Rng rng(424242);
  ZipfDistribution zipf(200, 1.2);
  for (int trial = 0; trial < 10; ++trial) {
    SelectionInput input = RandomInput(rng, 20, 200, 8, 11);
    for (size_t i = 0; i < input.peers.size(); ++i) {
      input.peers[i].frequency = zipf.Pmf(i + 1) * 1e6;
    }
    auto opt_chord = SelectChordFast(input);
    auto opt_pastry = SelectPastryGreedy(input);
    Rng pick_rng(trial);
    auto obl_chord = SelectChordOblivious(input, pick_rng);
    auto obl_pastry = SelectPastryOblivious(input, pick_rng);
    ASSERT_TRUE(opt_chord.ok() && opt_pastry.ok() && obl_chord.ok() &&
                obl_pastry.ok());
    EXPECT_LE(opt_chord->cost, obl_chord->cost + 1e-6);
    EXPECT_LE(opt_pastry->cost, obl_pastry->cost + 1e-6);
    // On this heavily skewed workload the gap should be strict and large.
    EXPECT_LT(opt_chord->cost, 0.95 * obl_chord->cost);
    EXPECT_LT(opt_pastry->cost, 0.95 * obl_pastry->cost);
  }
}

}  // namespace
}  // namespace peercache::auxsel
