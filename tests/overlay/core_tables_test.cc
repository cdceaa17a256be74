// Core routing tables against their definitions, on every overlay.
//
// Each oracle rebuilds a node's tables by brute force over the live id set,
// straight from the definition the backend documents, and compares them
// with what StabilizeAll built:
//  * Chord — finger i is the first live id clockwise in
//    (x + 2^i, x + 2^{i+1}] (empty intervals give no finger), and the
//    successor list is the next successor_list_size live ids clockwise;
//  * Pastry — row r is the Euclidean-closest live id, in the underlay, of
//    those sharing exactly r prefix bits with x, scanned in id order with
//    the first candidate winning ties; with stabilize_sample = s > 0 a class
//    of L > s ids is probed only at its id-order indices (i * L) / s; the
//    leaf set's successor side is the next leaf_set_half ids clockwise and
//    its predecessor side the next ones counterclockwise, stopping where
//    the two sides meet.
//  * Kademlia — bucket r keeps the bucket_size XOR-closest of the live ids
//    sharing exactly r prefix bits with x, in id order, and buckets after
//    the last non-empty one are not materialized (the model of
//    FlatTables.KademliaFlatBucketsMatchNaiveModel, on these shapes).
//
// The differential then pins that a whole-network sweep and a single-node
// stabilization build the same tables: after StabilizeAll, stabilizing
// every live node again, one at a time, changes no table and no byte of
// MemoryUsage.
//
// Every scenario joins nodes in a batch and one at a time, installs
// auxiliaries, crashes some nodes, rejoins some of them and restabilizes.
// Shapes cover one to three nodes, dense spaces (up to every id of an
// 8-bit space, so classes fill up and fingers wrap) and sparse ones up to
// 64-bit ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "chord/chord_network.h"
#include "common/bits.h"
#include "common/random.h"
#include "common/status.h"
#include "kademlia/kademlia_network.h"
#include "pastry/pastry_network.h"
#include "test_util.h"

namespace peercache {
namespace {

constexpr int kCases = 100;  // per property

struct Scenario {
  int bits = 8;
  std::vector<uint64_t> bulk;     // joined with BulkAdd
  std::vector<uint64_t> single;   // then joined with AddNode, in order
  std::vector<uint64_t> crashed;  // crashed after the first stabilization
  std::vector<uint64_t> rejoined;  // a subset of `crashed`, rejoined
  int aux_per_node = 0;
  uint64_t seed = 1;
};

/// `count` distinct ids of a `bits`-bit space.
std::vector<uint64_t> SampleIds(Rng& rng, int bits, size_t count) {
  if (bits < 64) return rng.SampleDistinct(uint64_t{1} << bits, count);
  std::vector<uint64_t> out;
  std::unordered_set<uint64_t> seen;
  while (out.size() < count) {
    const uint64_t v = rng.NextU64();
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Scenario DrawScenario(proptest::Case& c) {
  Scenario s;
  uint64_t n = 1;
  switch (c.Range("shape", 0, 2)) {
    case 0:  // one to three nodes, any width
      s.bits = static_cast<int>(c.Range("bits", 1, 64));
      n = std::min<uint64_t>(c.Range("n", 1, 3),
                             s.bits < 2 ? uint64_t{2} : uint64_t{3});
      break;
    case 1:  // dense: up to every id of a space of at most 8 bits
      s.bits = static_cast<int>(c.Range("bits", 1, 8));
      n = c.Range("n", 1, uint64_t{1} << s.bits);
      break;
    default:  // sparse, up to 64-bit ids
      s.bits = static_cast<int>(c.Range("bits", 9, 64));
      n = c.Range("n", 1, 64);
      break;
  }
  s.seed = c.Range("seed", 1, uint64_t{1} << 32);
  s.aux_per_node = static_cast<int>(c.Range("aux", 0, 3));
  const uint64_t n_single = c.Range("single", 0, n);
  const uint64_t n_crashed = c.Range("crashed", 0, n - 1);
  const uint64_t n_rejoined = c.Range("rejoined", 0, n_crashed);

  Rng rng(s.seed);
  std::vector<uint64_t> ids = SampleIds(rng, s.bits, static_cast<size_t>(n));
  s.single.assign(ids.begin(), ids.begin() + static_cast<long>(n_single));
  s.bulk.assign(ids.begin() + static_cast<long>(n_single), ids.end());
  for (uint64_t i : rng.SampleDistinct(n, static_cast<size_t>(n_crashed))) {
    s.crashed.push_back(ids[static_cast<size_t>(i)]);
  }
  s.rejoined.assign(s.crashed.begin(),
                    s.crashed.begin() + static_cast<long>(n_rejoined));
  return s;
}

/// Builds `s` on `net`: batch and single joins, a stabilization, random
/// auxiliaries, the crashes, the rejoins, and a final stabilization.
template <typename Net>
std::string Populate(Net& net, const Scenario& s) {
  if (Status st = net.BulkAdd(s.bulk); !st.ok()) {
    return "BulkAdd failed: " + st.ToString();
  }
  for (uint64_t id : s.single) {
    if (Status st = net.AddNode(id); !st.ok()) {
      return "AddNode failed: " + st.ToString();
    }
  }
  net.StabilizeAll();
  Rng rng(SplitSeed(s.seed, 0x617578));  // "aux"
  const std::vector<uint64_t> live = net.LiveNodeIds();
  for (uint64_t id : live) {
    std::vector<uint64_t> aux;
    for (int a = 0; a < s.aux_per_node; ++a) {
      aux.push_back(live[static_cast<size_t>(rng.UniformU64(live.size()))]);
    }
    if (Status st = net.SetAuxiliaries(id, aux); !st.ok()) {
      return "SetAuxiliaries failed: " + st.ToString();
    }
  }
  for (uint64_t id : s.crashed) {
    if (Status st = net.RemoveNode(id); !st.ok()) {
      return "RemoveNode failed: " + st.ToString();
    }
  }
  for (uint64_t id : s.rejoined) {
    if (Status st = net.RejoinNode(id); !st.ok()) {
      return "RejoinNode failed: " + st.ToString();
    }
  }
  net.StabilizeAll();
  return "";
}

std::string U64(uint64_t v) { return std::to_string(v); }

std::string Mismatch(const char* table, uint64_t node,
                     const std::vector<uint64_t>& got,
                     const std::vector<uint64_t>& want) {
  auto render = [](const std::vector<uint64_t>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      out += U64(v[i]);
    }
    return out + "]";
  };
  return std::string(table) + " of node " + U64(node) + ": got " +
         render(got) + ", definition gives " + render(want);
}

template <typename Span>
std::vector<uint64_t> ToVector(Span span) {
  return {span.begin(), span.end()};
}

/// Clockwise distance from `from` to `to` in a `bits`-bit ring.
uint64_t Clockwise(uint64_t from, uint64_t to, int bits) {
  return (to - from) & LowBitMask(bits);
}

/// The other live ids ordered by clockwise distance from `x` (ascending),
/// or counterclockwise when `clockwise` is false.
std::vector<uint64_t> ByRingDistance(const std::vector<uint64_t>& live,
                                     uint64_t x, int bits, bool clockwise) {
  std::vector<uint64_t> out;
  for (uint64_t w : live) {
    if (w != x) out.push_back(w);
  }
  auto dist = [&](uint64_t w) {
    return clockwise ? Clockwise(x, w, bits) : Clockwise(w, x, bits);
  };
  std::sort(out.begin(), out.end(),
            [&](uint64_t a, uint64_t b) { return dist(a) < dist(b); });
  return out;
}

std::string CheckChordAgainstDefinition(const chord::ChordNetwork& net,
                                        int bits, int successor_list_size) {
  const std::vector<uint64_t> live = net.LiveNodeIds();
  using Wide = unsigned __int128;
  for (uint64_t x : live) {
    const chord::ChordNode& node = *net.GetNode(x);
    const std::vector<uint64_t> clockwise =
        ByRingDistance(live, x, bits, /*clockwise=*/true);
    std::vector<uint64_t> fingers;
    for (int i = 0; i < bits; ++i) {
      // First live id clockwise whose distance lies in (2^i, 2^{i+1}].
      for (uint64_t w : clockwise) {
        const Wide d = Clockwise(x, w, bits);
        if (d > (Wide{1} << i) && d <= (Wide{1} << (i + 1))) {
          fingers.push_back(w);
          break;
        }
      }
    }
    if (ToVector(net.Fingers(node)) != fingers) {
      return Mismatch("fingers", x, ToVector(net.Fingers(node)), fingers);
    }
    std::vector<uint64_t> successors(
        clockwise.begin(),
        clockwise.begin() +
            static_cast<long>(std::min(clockwise.size(),
                                       static_cast<size_t>(
                                           successor_list_size))));
    if (ToVector(net.Successors(node)) != successors) {
      return Mismatch("successors", x, ToVector(net.Successors(node)),
                       successors);
    }
  }
  return "";
}

double Euclidean(const pastry::Coord& a, const pastry::Coord& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

std::string CheckPastryAgainstDefinition(const pastry::PastryNetwork& net,
                                         const pastry::PastryParams& params) {
  const int bits = params.bits;
  const std::vector<uint64_t> live = net.LiveNodeIds();
  const size_t sample = static_cast<size_t>(params.stabilize_sample);
  for (uint64_t x : live) {
    const pastry::PastryNode& node = *net.GetNode(x);
    const pastry::Coord here = *net.CoordOf(x);
    std::vector<uint64_t> rows;
    for (int r = 0; r < bits; ++r) {
      std::vector<uint64_t> cls;  // id order: `live` is sorted
      for (uint64_t w : live) {
        if (w != x && CommonPrefixLength(x, w, bits) == r) cls.push_back(w);
      }
      std::vector<size_t> probes;
      if (sample == 0 || cls.size() <= sample) {
        for (size_t i = 0; i < cls.size(); ++i) probes.push_back(i);
      } else {
        for (size_t i = 0; i < sample; ++i) {
          probes.push_back((i * cls.size()) / sample);
        }
      }
      uint64_t best = pastry::PastryNetwork::kNoEntry;
      double best_dist = 0.0;
      for (size_t i : probes) {
        const double d = Euclidean(here, *net.CoordOf(cls[i]));
        if (best == pastry::PastryNetwork::kNoEntry || d < best_dist) {
          best = cls[i];
          best_dist = d;
        }
      }
      rows.push_back(best);
    }
    if (ToVector(net.RoutingRows(node)) != rows) {
      return Mismatch("routing rows", x, ToVector(net.RoutingRows(node)),
                      rows);
    }

    const size_t half = static_cast<size_t>(params.leaf_set_half);
    std::vector<uint64_t> succ = ByRingDistance(live, x, bits, true);
    if (succ.size() > half) succ.resize(half);
    std::vector<uint64_t> pred;
    for (uint64_t w : ByRingDistance(live, x, bits, /*clockwise=*/false)) {
      if (pred.size() == half ||
          std::find(succ.begin(), succ.end(), w) != succ.end()) {
        break;
      }
      pred.push_back(w);
    }
    if (ToVector(net.LeafSucc(node)) != succ) {
      return Mismatch("leaf successors", x, ToVector(net.LeafSucc(node)),
                      succ);
    }
    if (ToVector(net.LeafPred(node)) != pred) {
      return Mismatch("leaf predecessors", x, ToVector(net.LeafPred(node)),
                      pred);
    }
  }
  return "";
}

std::string CheckKademliaAgainstDefinition(
    const kademlia::KademliaNetwork& net, int bits, size_t bucket_size) {
  const std::vector<uint64_t> live = net.LiveNodeIds();
  for (uint64_t x : live) {
    std::vector<std::vector<uint64_t>> buckets(static_cast<size_t>(bits));
    for (uint64_t w : live) {
      if (w != x) {
        buckets[static_cast<size_t>(CommonPrefixLength(x, w, bits))]
            .push_back(w);
      }
    }
    size_t materialized = 0;
    for (size_t r = 0; r < buckets.size(); ++r) {
      std::vector<uint64_t>& bucket = buckets[r];
      std::sort(bucket.begin(), bucket.end(), [x](uint64_t a, uint64_t b) {
        return (a ^ x) < (b ^ x);
      });
      if (bucket.size() > bucket_size) bucket.resize(bucket_size);
      std::sort(bucket.begin(), bucket.end());
      if (!bucket.empty()) materialized = r + 1;
    }
    buckets.resize(materialized);
    const kademlia::KademliaNode& node = *net.GetNode(x);
    if (net.BucketCount(node) != buckets.size()) {
      return "node " + U64(x) + ": " + std::to_string(net.BucketCount(node)) +
             " materialized buckets, definition gives " +
             std::to_string(buckets.size());
    }
    for (size_t r = 0; r < buckets.size(); ++r) {
      if (ToVector(net.Bucket(node, r)) != buckets[r]) {
        return Mismatch("bucket", x, ToVector(net.Bucket(node, r)),
                        buckets[r]);
      }
    }
  }
  return "";
}

TEST(CoreTables, ChordFingersAndSuccessorsMatchDefinition) {
  auto outcome = proptest::RunProperty(0xC07D, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    chord::ChordParams params;
    params.bits = s.bits;
    params.successor_list_size = static_cast<int>(c.Range("succ", 1, 8));
    chord::ChordNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckChordAgainstDefinition(net, s.bits,
                                       params.successor_list_size);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(CoreTables, PastryExactRowsAndLeafSetsMatchDefinition) {
  auto outcome = proptest::RunProperty(0xBA57, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    pastry::PastryParams params;
    params.bits = s.bits;
    params.leaf_set_half = static_cast<int>(c.Range("leaf_half", 1, 6));
    pastry::PastryNetwork net(params, s.seed);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckPastryAgainstDefinition(net, params);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(CoreTables, PastrySampledRowsProbeTheDocumentedIndices) {
  auto outcome = proptest::RunProperty(0x5A4B, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    pastry::PastryParams params;
    params.bits = s.bits;
    params.stabilize_sample = static_cast<int>(c.Range("sample", 1, 7));
    pastry::PastryNetwork net(params, s.seed);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckPastryAgainstDefinition(net, params);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(CoreTables, KademliaBucketsMatchDefinition) {
  auto outcome = proptest::RunProperty(0xCAD0, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    kademlia::KademliaParams params;
    params.bits = s.bits;
    params.bucket_size = static_cast<int>(c.Range("bucket_size", 1, 8));
    kademlia::KademliaNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckKademliaAgainstDefinition(
        net, s.bits, static_cast<size_t>(params.bucket_size));
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

// --- Sweep ≡ single node ---------------------------------------------------

std::vector<std::vector<uint64_t>> Tables(const chord::ChordNetwork& net,
                                          const chord::ChordNode& node) {
  return {ToVector(net.Fingers(node)), ToVector(net.Successors(node)),
          ToVector(net.Auxiliaries(node))};
}

std::vector<std::vector<uint64_t>> Tables(const pastry::PastryNetwork& net,
                                          const pastry::PastryNode& node) {
  return {ToVector(net.RoutingRows(node)), ToVector(net.LeafSucc(node)),
          ToVector(net.LeafPred(node)), ToVector(net.Auxiliaries(node))};
}

std::vector<std::vector<uint64_t>> Tables(
    const kademlia::KademliaNetwork& net, const kademlia::KademliaNode& node) {
  std::vector<std::vector<uint64_t>> out;
  for (size_t i = 0; i < net.BucketCount(node); ++i) {
    out.push_back(ToVector(net.Bucket(node, i)));
  }
  out.push_back(ToVector(net.Auxiliaries(node)));
  return out;
}

/// Every live node's tables, in id order, then the footprint fields.
template <typename Net>
std::vector<std::vector<uint64_t>> Snapshot(const Net& net) {
  std::vector<std::vector<uint64_t>> out;
  for (uint64_t id : net.LiveNodeIds()) {
    out.push_back({id});
    for (auto& table : Tables(net, *net.GetNode(id))) {
      out.push_back(std::move(table));
    }
  }
  const overlay::StoreMemoryStats m = net.MemoryUsage();
  out.push_back({m.node_bytes, m.index_bytes, m.table_bytes, m.arena_bytes});
  return out;
}

/// Restabilizes every live node one at a time, in a random order, and
/// requires the sweep's tables and footprint to come back unchanged.
template <typename Net>
std::string CheckSingleNodeMatchesSweep(Net& net, uint64_t seed) {
  const std::vector<std::vector<uint64_t>> swept = Snapshot(net);
  std::vector<uint64_t> order = net.LiveNodeIds();
  Rng rng(seed);
  rng.Shuffle(order);
  for (uint64_t id : order) {
    if (Status st = net.StabilizeNode(id); !st.ok()) {
      return "StabilizeNode failed: " + st.ToString();
    }
  }
  const std::vector<std::vector<uint64_t>> single = Snapshot(net);
  if (single == swept) return "";
  for (size_t i = 0; i < std::min(single.size(), swept.size()); ++i) {
    if (single[i] != swept[i]) {
      return "snapshot row " + std::to_string(i) +
             " differs between the sweep and single-node stabilization";
    }
  }
  return "snapshots differ in length";
}

TEST(CoreTables, ChordSingleNodeStabilizeMatchesSweep) {
  auto outcome = proptest::RunProperty(0x5EE0, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    chord::ChordParams params;
    params.bits = s.bits;
    chord::ChordNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckSingleNodeMatchesSweep(net, s.seed);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(CoreTables, PastrySingleNodeStabilizeMatchesSweep) {
  auto outcome = proptest::RunProperty(0x5EE1, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    pastry::PastryParams params;
    params.bits = s.bits;
    params.stabilize_sample = static_cast<int>(c.Range("sample", 0, 4));
    pastry::PastryNetwork net(params, s.seed);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckSingleNodeMatchesSweep(net, s.seed);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(CoreTables, KademliaSingleNodeStabilizeMatchesSweep) {
  auto outcome = proptest::RunProperty(0x5EE2, kCases, [](proptest::Case& c) {
    Scenario s = DrawScenario(c);
    kademlia::KademliaParams params;
    params.bits = s.bits;
    params.bucket_size = static_cast<int>(c.Range("bucket_size", 1, 8));
    kademlia::KademliaNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckSingleNodeMatchesSweep(net, s.seed);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

}  // namespace
}  // namespace peercache
