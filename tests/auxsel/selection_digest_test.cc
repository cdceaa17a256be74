// Byte-level pin of every auxiliary selector: a seeded corpus of selection
// inputs is run through the one-shot selectors, the QoS variants, the
// reference DPs, a ChordFastPlan weight refresh and both maintainers'
// delta replays, and the chosen ids and the exact cost bits of every
// result are folded into one digest per selector. The expected digests were
// recorded from the selectors before their sorted-view rewrite, so a change
// that moves any chosen set, any tie-break or any bit of any cost fails
// here, naming the selector whose output moved.
//
// The corpus covers n from 0 to 4096 (the O(n^2 k) references only at
// n <= 256), b in {1, 8, 32, 64}, frequencies drawn from {1, 2, 3} to force
// ties and from a wide range of non-integer magnitudes, repeated cores,
// cores that are also peers, a core equal to self, k in {0, 1, 14, > n},
// QoS delay bounds, and malformed inputs that every selector must reject.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <map>
#include <string>
#include <vector>

#include "auxsel/chord_dp.h"
#include "auxsel/chord_fast.h"
#include "auxsel/chord_maintainer.h"
#include "auxsel/chord_qos.h"
#include "auxsel/kademlia_dp.h"
#include "auxsel/oblivious.h"
#include "auxsel/pastry_dp.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/pastry_maintainer.h"
#include "auxsel/pastry_qos.h"
#include "auxsel/selection_types.h"
#include "common/random.h"

namespace peercache::auxsel {
namespace {

/// Order-sensitive fold of selector outputs.
class Digest {
 public:
  void Add(uint64_t x) { h_ = MixHash64(h_ ^ x); }
  void Add(const Result<Selection>& r) {
    if (!r.ok()) {
      Add(0xe0000000u + static_cast<uint64_t>(r.status().code()));
      return;
    }
    Add(r->chosen.size());
    for (uint64_t id : r->chosen) Add(id);
    Add(std::bit_cast<uint64_t>(r->cost));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x5e1ec7d16e57ULL;
};

using Digests = std::map<std::string, Digest>;

uint64_t IdBound(int bits) {
  return bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits);
}

double DrawFrequency(Rng& rng, bool ties) {
  if (ties) return static_cast<double>(1 + rng.UniformU64(3));
  if (rng.Bernoulli(0.05)) return 0.0;
  return std::ldexp(rng.UniformDoublePositive(),
                    static_cast<int>(rng.UniformInt(-12, 24)));
}

/// One corpus input: `n` peers (fewer when the id space is too small),
/// `n_cores` core entries of which about half are also peers, some
/// repeated, and occasionally self; about 15 % of peers carry a QoS bound.
SelectionInput MakeInput(Rng& rng, int bits, int n, int n_cores, int k,
                         bool ties) {
  const uint64_t bound = IdBound(bits);
  while (static_cast<uint64_t>(n + n_cores) + 1 > bound) {
    if (n > 0) {
      --n;
    } else {
      --n_cores;
    }
  }
  const auto ids =
      rng.SampleDistinct(bound, static_cast<size_t>(n + n_cores) + 1);
  SelectionInput input;
  input.bits = bits;
  input.k = k;
  input.self_id = ids[0];
  for (int i = 0; i < n; ++i) {
    PeerFreq p{ids[static_cast<size_t>(1 + i)], DrawFrequency(rng, ties), -1};
    if (rng.Bernoulli(0.15)) {
      p.delay_bound = static_cast<int>(rng.UniformInt(0, bits));
    }
    input.peers.push_back(p);
  }
  for (int i = 0; i < n_cores; ++i) {
    if (n > 0 && rng.Bernoulli(0.5)) {
      input.core_ids.push_back(
          input.peers[rng.UniformU64(static_cast<uint64_t>(n))].id);
    } else {
      input.core_ids.push_back(ids[static_cast<size_t>(1 + n + i)]);
    }
    if (rng.Bernoulli(0.2)) input.core_ids.push_back(input.core_ids.back());
  }
  if (n_cores > 0 && rng.Bernoulli(0.2)) input.core_ids.push_back(ids[0]);
  return input;
}

/// The same membership with fresh frequencies and bounds: candidates keep
/// a positive frequency so the plan's geometry stays valid.
SelectionInput Reweighted(Rng& rng, SelectionInput input, bool ties) {
  for (PeerFreq& p : input.peers) {
    p.frequency = DrawFrequency(rng, ties);
    if (p.frequency == 0.0) p.frequency = 1.0;
    p.delay_bound =
        rng.Bernoulli(0.15) ? static_cast<int>(rng.UniformInt(0, input.bits))
                            : -1;
  }
  return input;
}

void FoldSelectors(const SelectionInput& input, bool with_references,
                   uint64_t seed, Digests& d) {
  d["SelectChordFast"].Add(SelectChordFast(input));
  d["SelectPastryGreedy"].Add(SelectPastryGreedy(input));
  d["SelectPastryGreedyQos"].Add(SelectPastryGreedyQos(input));
  {
    Rng rng(seed);
    d["SelectOblivious"].Add(SelectChordOblivious(input, rng));
    d["SelectOblivious"].Add(SelectPastryOblivious(input, rng));
    d["SelectOblivious"].Add(SelectKademliaOblivious(input, rng));
  }
  if (!with_references) return;
  d["SelectChordDp"].Add(SelectChordDp(input));
  d["SelectChordDpQos"].Add(SelectChordDpQos(input));
  d["SelectPastryDp"].Add(SelectPastryDp(input));
  d["SelectPastryDpQos"].Add(SelectPastryDpQos(input));
  d["SelectKademliaDp"].Add(SelectKademliaDp(input));
}

template <typename M>
void ReplayMaintainer(M& m, Rng& rng, int steps, bool ties, Digest& d) {
  const uint64_t bound = IdBound(m.bits());
  std::vector<uint64_t> seen;
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.UniformU64(10);
    if (op < 4 || seen.size() < 3) {
      const uint64_t id = rng.UniformU64(bound);
      if (id == m.self_id()) continue;
      ASSERT_TRUE(m.OnPeerJoin(id, DrawFrequency(rng, ties) + 1.0).ok());
      seen.push_back(id);
    } else if (op < 5) {
      ASSERT_TRUE(m.OnPeerLeave(seen[rng.UniformU64(seen.size())]).ok());
    } else if (op < 9) {
      const uint64_t id = seen[rng.UniformU64(seen.size())];
      ASSERT_TRUE(m.OnFrequencyDelta(id, DrawFrequency(rng, ties)).ok());
    } else {
      std::vector<uint64_t> cores;
      const uint64_t n_cores = rng.UniformU64(6);
      for (uint64_t i = 0; i < n_cores; ++i) {
        cores.push_back(rng.Bernoulli(0.3)
                            ? rng.UniformU64(bound)
                            : seen[rng.UniformU64(seen.size())]);
      }
      ASSERT_TRUE(m.SetCores(cores).ok());
    }
    d.Add(m.Reselect());
  }
}

void ComputeDigests(Digests& d) {
  Rng rng(0xd16e57c0de);
  const int kBits[] = {1, 8, 32, 64};
  const int kSizes[] = {0, 1, 2, 5, 17, 64, 250, 256, 1000, 4096};
  for (int bits : kBits) {
    for (int n : kSizes) {
      for (bool ties : {true, false}) {
        for (bool cores : {false, true}) {
          for (int k : {0, 1, 14, n + 3}) {
            if (n > 256 && k > n) continue;
            const int n_cores =
                cores ? 1 + static_cast<int>(rng.UniformU64(12)) : 0;
            const SelectionInput input =
                MakeInput(rng, bits, n, n_cores, k, ties);
            const uint64_t seed = rng.NextU64();
            FoldSelectors(input, n <= 256, seed, d);

            auto plan = ChordFastPlan::Build(input);
            ASSERT_TRUE(plan.ok()) << plan.status();
            const SelectionInput next = Reweighted(rng, input, ties);
            ASSERT_TRUE(plan->RefreshWeights(next).ok());
            d["ChordFastPlan::RefreshWeights+Solve"].Add(plan->Solve(next));
          }
        }
      }
    }
  }

  // Malformed inputs: every selector must refuse them the same way.
  for (int bits : {8, 32, 64}) {
    SelectionInput input = MakeInput(rng, bits, 12, 3, 4, true);
    SelectionInput dup = input;
    dup.peers.push_back(PeerFreq{input.peers[3].id, 7.0, -1});
    SelectionInput self = input;
    self.peers.push_back(PeerFreq{input.self_id, 1.0, -1});
    SelectionInput negative = input;
    negative.peers[5].frequency = -1.0;
    for (const SelectionInput* bad : {&dup, &self, &negative}) {
      FoldSelectors(*bad, /*with_references=*/true, 1, d);
      d["ChordFastPlan::RefreshWeights+Solve"].Add(
          static_cast<uint64_t>(ChordFastPlan::Build(*bad).status().code()));
    }
  }

  for (int bits : {8, 32, 64}) {
    for (int k : {1, 14}) {
      for (bool ties : {true, false}) {
        const uint64_t self = rng.UniformU64(IdBound(bits));
        ChordAuxMaintainer chord(bits, k, self);
        ReplayMaintainer(chord, rng, 300, ties, d["ChordAuxMaintainer"]);
        PastryAuxMaintainer pastry(bits, k, self);
        ReplayMaintainer(pastry, rng, 300, ties, d["PastryAuxMaintainer"]);
      }
    }
  }
}

TEST(SelectionDigest, EverySelectorReproducesItsRecordedOutput) {
  const std::map<std::string, uint64_t> kExpected = {
      {"ChordAuxMaintainer", 0x7c5f2ef1636150faULL},
      {"ChordFastPlan::RefreshWeights+Solve", 0xc25cd891ec888fd5ULL},
      {"PastryAuxMaintainer", 0x424d6a59c02dc08cULL},
      {"SelectChordDp", 0x3552ce7077e4a325ULL},
      {"SelectChordDpQos", 0x9cb4cc69a62a888aULL},
      {"SelectChordFast", 0xbf94e40c11ab7f7bULL},
      {"SelectKademliaDp", 0x5280037c4f0513afULL},
      {"SelectOblivious", 0x24fd1ea8663b047aULL},
      {"SelectPastryDp", 0x5280037c4f0513afULL},
      {"SelectPastryDpQos", 0x8e28c69a20bd83abULL},
      {"SelectPastryGreedy", 0xae1ccf725f64a07fULL},
      {"SelectPastryGreedyQos", 0x5bba0cb0739bc606ULL},
  };
  Digests got;
  ComputeDigests(got);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_EQ(got.size(), kExpected.size());
  for (const auto& [name, want] : kExpected) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second.value(), want)
        << name << " digest moved: 0x" << std::hex << it->second.value();
  }
}

}  // namespace
}  // namespace peercache::auxsel
