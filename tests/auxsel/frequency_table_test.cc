#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/random.h"
#include "common/zipf.h"

namespace peercache::auxsel {
namespace {

TEST(FrequencyTable, ExactModeCounts) {
  FrequencyTable table;
  table.Record(7);
  table.Record(7);
  table.Record(9, 3);
  EXPECT_EQ(table.distinct(), 2u);
  EXPECT_EQ(table.total(), 5u);
  auto snap = table.Snapshot(/*exclude_self=*/0);
  ASSERT_EQ(snap.size(), 2u);
  std::sort(snap.begin(), snap.end(),
            [](const PeerFreq& a, const PeerFreq& b) { return a.id < b.id; });
  EXPECT_EQ(snap[0].id, 7u);
  EXPECT_DOUBLE_EQ(snap[0].frequency, 2.0);
  EXPECT_EQ(snap[1].id, 9u);
  EXPECT_DOUBLE_EQ(snap[1].frequency, 3.0);
}

TEST(FrequencyTable, SnapshotExcludesSelf) {
  FrequencyTable table;
  table.Record(7);
  table.Record(8);
  auto snap = table.Snapshot(7);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].id, 8u);
}

TEST(FrequencyTable, DecayHalvesCounts) {
  FrequencyTable table;
  table.Record(1, 8);
  table.Decay(0.5);
  auto snap = table.Snapshot(0);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].frequency, 4.0);
}

TEST(FrequencyTable, ForgetRemovesPeer) {
  FrequencyTable table;
  table.Record(1);
  table.Record(2);
  EXPECT_TRUE(table.Forget(1)) << "exact mode truly removes";
  EXPECT_EQ(table.distinct(), 1u);
  EXPECT_TRUE(table.Forget(42)) << "untracked peer: nothing to pin";
}

TEST(FrequencyTable, BoundedForgetZeroesSlotAndReportsFallback) {
  FrequencyTable table(2);
  table.Record(1, 10);
  table.Record(2, 20);
  // Space-Saving cannot delete: Forget must say so, but the departed peer's
  // slot no longer pins — its weight drops to zero…
  EXPECT_FALSE(table.Forget(1));
  EXPECT_DOUBLE_EQ(table.ObservedWeight(1), 0.0);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(2), 20.0);
  // …and the next unseen peer takes that slot with no inherited error
  // (before the fix, peer 3 would have evicted whichever entry had the
  // minimum count and inherited it as error).
  table.Record(3, 5);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(3), 5.0);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(1), 0.0);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(2), 20.0);
}

TEST(FrequencyTable, ObservedWeightMatchesSnapshot) {
  FrequencyTable table;
  table.Record(5, 3);
  table.Record(6, 4);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(5), 3.0);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(6), 4.0);
  EXPECT_DOUBLE_EQ(table.ObservedWeight(7), 0.0);
}

TEST(FrequencyTable, DrainDirtyReturnsSortedChangesOnce) {
  FrequencyTable table;
  table.Record(9);
  table.Record(3);
  table.Record(9);
  std::vector<uint64_t> dirty = table.DrainDirty();
  EXPECT_EQ(dirty, (std::vector<uint64_t>{3, 9}));
  EXPECT_TRUE(table.DrainDirty().empty()) << "drain clears the set";
  table.Forget(3);
  EXPECT_EQ(table.DrainDirty(), (std::vector<uint64_t>{3}))
      << "forget is a weight change too";
}

TEST(FrequencyTable, BoundedModeKeepsHeavyHitters) {
  // A zipf stream through a capacity-20 table must retain the hottest peers.
  FrequencyTable table(20);
  Rng rng(321);
  ZipfDistribution zipf(1000, 1.2);
  for (int i = 0; i < 50000; ++i) {
    table.Record(static_cast<uint64_t>(zipf.Sample(rng)));
  }
  EXPECT_LE(table.distinct(), 20u);
  auto snap = table.Snapshot(0);
  std::vector<uint64_t> kept;
  for (const auto& p : snap) kept.push_back(p.id);
  for (uint64_t hot = 1; hot <= 5; ++hot) {
    EXPECT_TRUE(std::find(kept.begin(), kept.end(), hot) != kept.end())
        << "hot rank " << hot << " evicted";
  }
}

TEST(FrequencyTable, DrainAfterForgetEmitsAbsoluteWeights) {
  // Regression: a maintainer that drains after Forget must see the peer's
  // post-Forget absolute weight, not the stale pre-Forget count. Before the
  // fix, sketch mode left the departed peer's count-min mass in place, so a
  // re-recorded peer reported old + new instead of new.
  FreqSketchParams sketch;
  sketch.top_capacity = 8;
  sketch.cm_width = 64;
  sketch.cm_depth = 4;
  FrequencyTable tables[] = {FrequencyTable(), FrequencyTable(8),
                             FrequencyTable(0, sketch)};
  const char* labels[] = {"exact", "bounded", "sketch"};
  for (int m = 0; m < 3; ++m) {
    FrequencyTable& table = tables[m];
    SCOPED_TRACE(labels[m]);
    table.Record(7, 5);
    (void)table.DrainDirty();
    table.Forget(7);
    table.Record(7, 3);
    std::vector<uint64_t> dirty = table.DrainDirty();
    EXPECT_TRUE(std::find(dirty.begin(), dirty.end(), 7u) != dirty.end())
        << "re-recorded peer must be dirty";
    EXPECT_DOUBLE_EQ(table.ObservedWeight(7), 3.0)
        << "weight after Forget+Record must be absolute, not 5+3";
  }
}

TEST(FrequencyTable, EvictionMarksVictimDirty) {
  // When a bounded/sketch summary evicts peer A to admit peer B, a
  // subsequent drain must include A (its reported weight changed to zero),
  // or the maintainer would keep serving A's stale weight forever.
  FrequencyTable bounded(1);
  bounded.Record(1, 5);
  (void)bounded.DrainDirty();
  bounded.Record(2, 10);
  EXPECT_EQ(bounded.DrainDirty(), (std::vector<uint64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(bounded.ObservedWeight(1), 0.0);

  FreqSketchParams sketch;
  sketch.top_capacity = 1;
  sketch.cm_width = 64;
  sketch.cm_depth = 4;
  FrequencyTable table(0, sketch);
  table.Record(1, 5);
  (void)table.DrainDirty();
  table.Record(2, 10);
  EXPECT_EQ(table.DrainDirty(), (std::vector<uint64_t>{1, 2}));
}

TEST(FrequencyTable, SketchModeReportsMemoryBudget) {
  FreqSketchParams sketch;
  sketch.top_capacity = 42;
  sketch.cm_width = 16;
  sketch.cm_depth = 2;
  FrequencyTable table(0, sketch);
  EXPECT_TRUE(table.sketch_enabled());
  // 64 fixed + 42 top slots x 24 B + 16x2 counters x 4 B = 1200: the
  // headline tier of bench/freq_sketch.
  EXPECT_EQ(table.SummaryMemoryBytes(), 1200u);
  // Exact-mode memory grows with distinct peers instead.
  FrequencyTable exact;
  exact.Record(1);
  exact.Record(2);
  EXPECT_EQ(exact.SummaryMemoryBytes(),
            FrequencyTable::kTableOverheadBytes +
                2 * FrequencyTable::kExactEntryBytes);
}

TEST(FrequencyTable, ForgetDirtiesOnlyAChangedWeight) {
  // Forgetting a peer the table does not hold reports nothing; forgetting
  // one whose weight it changed reports that peer, in every mode.
  FreqSketchParams sketch;
  sketch.top_capacity = 8;
  sketch.cm_width = 64;
  sketch.cm_depth = 4;
  FrequencyTable tables[] = {FrequencyTable(), FrequencyTable(8),
                             FrequencyTable(0, sketch)};
  const char* labels[] = {"exact", "bounded", "sketch"};
  for (int m = 0; m < 3; ++m) {
    FrequencyTable& table = tables[m];
    SCOPED_TRACE(labels[m]);
    table.Record(7, 5);
    (void)table.DrainDirty();
    table.Forget(42);
    EXPECT_TRUE(table.DrainDirty().empty()) << "never-tracked peer";
    table.Forget(7);
    EXPECT_EQ(table.DrainDirty(), (std::vector<uint64_t>{7}));
    EXPECT_DOUBLE_EQ(table.ObservedWeight(7), 0.0);
  }
  // A repeated Forget: exact mode no longer holds the entry and sketch mode
  // zeroed the estimate already; bounded mode resets its tracked slot again.
  tables[0].Forget(7);
  EXPECT_TRUE(tables[0].DrainDirty().empty());
  tables[2].Forget(7);
  EXPECT_TRUE(tables[2].DrainDirty().empty());
  tables[1].Forget(7);
  EXPECT_EQ(tables[1].DrainDirty(), (std::vector<uint64_t>{7}));
}

TEST(FrequencyTable, ClearResets) {
  FrequencyTable table(4);
  table.Record(1);
  table.Clear();
  EXPECT_EQ(table.distinct(), 0u);
  EXPECT_EQ(table.total(), 0u);
}

// ---------------------------------------------------------------------------
// Reference model: random op streams against the documented semantics kept
// in ordered containers.

enum class Mode { kExact, kBounded, kSketch };

/// The table's documented semantics for a summary that never evicts: every
/// tracked id's weight in a std::map and the dirty ids in a std::set. The
/// summaries keep a forgotten peer's slot at weight zero, the sketch leaves
/// zero weights out of its snapshot, and only exact mode decays. Forget
/// dirties a peer whose weight it changed: exact mode removes the entry,
/// bounded mode resets the tracked slot, sketch mode zeroes a nonzero
/// estimate.
class ModelTable {
 public:
  explicit ModelTable(Mode mode) : mode_(mode) {}

  void Record(uint64_t id, uint64_t w) {
    total_ += w;
    weights_[id] += static_cast<double>(w);
    dirty_.insert(id);
  }
  bool Forget(uint64_t id) {
    auto it = weights_.find(id);
    if (it == weights_.end()) return true;
    switch (mode_) {
      case Mode::kExact:
        weights_.erase(it);
        dirty_.insert(id);
        return true;
      case Mode::kBounded:
        it->second = 0.0;
        dirty_.insert(id);
        return false;
      case Mode::kSketch:
        if (it->second != 0.0) dirty_.insert(id);
        it->second = 0.0;
        return false;
    }
    return true;
  }
  void Decay(double factor) {
    if (mode_ != Mode::kExact) return;
    for (auto& [id, w] : weights_) {
      w *= factor;
      dirty_.insert(id);
    }
  }
  double Weight(uint64_t id) const {
    auto it = weights_.find(id);
    return it == weights_.end() ? 0.0 : it->second;
  }
  std::vector<uint64_t> Drain() {
    std::vector<uint64_t> out(dirty_.begin(), dirty_.end());
    dirty_.clear();
    return out;
  }
  std::vector<PeerFreq> Snapshot(uint64_t self) const {
    std::vector<PeerFreq> out;
    for (const auto& [id, w] : weights_) {
      if (id == self || (mode_ == Mode::kSketch && w == 0.0)) continue;
      out.push_back(PeerFreq{id, w, -1});
    }
    return out;
  }
  size_t distinct() const { return weights_.size(); }
  uint64_t total() const { return total_; }
  void Clear() {
    weights_.clear();
    dirty_.clear();
    total_ = 0;
  }

 private:
  Mode mode_;
  std::map<uint64_t, double> weights_;
  std::set<uint64_t> dirty_;
  uint64_t total_ = 0;
};

/// `count` distinct ids: 0, 2^64 - 1, then random 64-bit ids.
std::vector<uint64_t> Universe(size_t count, Rng& rng) {
  std::set<uint64_t> ids = {0, std::numeric_limits<uint64_t>::max()};
  while (ids.size() < count) ids.insert(rng.NextU64());
  return std::vector<uint64_t>(ids.begin(), ids.end());
}

std::vector<PeerFreq> SortedById(std::vector<PeerFreq> peers) {
  std::sort(peers.begin(), peers.end(),
            [](const PeerFreq& a, const PeerFreq& b) { return a.id < b.id; });
  return peers;
}

void ExpectSameSnapshot(const std::vector<PeerFreq>& got,
                        const std::vector<PeerFreq>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "@" << i;
    ASSERT_EQ(got[i].frequency, want[i].frequency) << "id " << got[i].id;
    ASSERT_EQ(got[i].delay_bound, want[i].delay_bound) << "id " << got[i].id;
  }
}

/// Drives one weighted random op stream through `table` and `model`,
/// requires every observation to agree, and returns the most entries the
/// table held. Records favour a hot subset of the universe so entries are
/// often forgotten and re-recorded within one drain; a Forget is sometimes
/// repeated or followed by a re-Record; Clear is rare, so the table grows
/// through several rehashes before and after it.
size_t RunStream(FrequencyTable& table, ModelTable& model,
                 const std::vector<uint64_t>& universe, int ops, Rng& rng) {
  const size_t hot = std::max<size_t>(universe.size() / 8, 2);
  auto pick = [&] {
    const size_t range = rng.Bernoulli(0.5) ? hot : universe.size();
    return universe[static_cast<size_t>(rng.UniformU64(range))];
  };
  size_t most = 0;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    most = std::max(most, model.distinct());
    const uint64_t roll = rng.UniformU64(10000);
    if (roll < 5000) {
      const uint64_t id = pick();
      const uint64_t w = rng.UniformU64(8) == 0 ? 0 : 1 + rng.UniformU64(3);
      table.Record(id, w);
      model.Record(id, w);
    } else if (roll < 6500) {
      const uint64_t id = pick();
      EXPECT_EQ(table.Forget(id), model.Forget(id)) << "id " << id;
      const uint64_t then = rng.UniformU64(4);
      if (then == 0) {
        EXPECT_EQ(table.Forget(id), model.Forget(id)) << "again, id " << id;
      } else if (then == 1) {
        table.Record(id, 1);
        model.Record(id, 1);
      }
    } else if (roll < 6520) {
      const double factor = rng.Bernoulli(0.5) ? 0.5 : 0.75;
      table.Decay(factor);
      model.Decay(factor);
    } else if (roll < 8000) {
      const uint64_t id = pick();
      EXPECT_EQ(table.ObservedWeight(id), model.Weight(id)) << "id " << id;
    } else if (roll < 8500) {
      EXPECT_EQ(table.DrainDirty(), model.Drain());
    } else if (roll < 8800) {
      const uint64_t self = pick();
      ExpectSameSnapshot(SortedById(table.Snapshot(self)),
                         model.Snapshot(self));
    } else if (roll < 9997) {
      EXPECT_EQ(table.distinct(), model.distinct());
      EXPECT_EQ(table.total(), model.total());
    } else {
      table.Clear();
      model.Clear();
    }
    if (::testing::Test::HasFailure()) return most;
  }
  EXPECT_EQ(table.DrainDirty(), model.Drain());
  ExpectSameSnapshot(SortedById(table.Snapshot(universe[0])),
                     model.Snapshot(universe[0]));
  return most;
}

TEST(FrequencyTableModel, ExactModeMatchesOrderedModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    // 3000 ids at load <= 1/2 take the array from 16 to 8192 cells.
    const std::vector<uint64_t> universe = Universe(3000, rng);
    FrequencyTable table;
    ModelTable model(Mode::kExact);
    EXPECT_GT(RunStream(table, model, universe, 40000, rng), 1024u)
        << "the stream must grow the array past 2048 cells";
    if (HasFailure()) return;
  }
}

TEST(FrequencyTableModel, NeverEvictingSummariesMatchOrderedModel) {
  // With a slot per id the bounded summary is exact, and so is the sketch
  // (min of an exact summary count and an overestimate); Forget keeps the
  // zeroed slot in both.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(100 + seed);
    const std::vector<uint64_t> universe = Universe(96, rng);
    {
      SCOPED_TRACE("bounded");
      FrequencyTable table(universe.size());
      ModelTable model(Mode::kBounded);
      (void)RunStream(table, model, universe, 6000, rng);
    }
    {
      SCOPED_TRACE("sketch");
      FreqSketchParams sketch;
      sketch.top_capacity = universe.size();
      sketch.cm_width = size_t{1} << 16;
      sketch.cm_depth = 4;
      FrequencyTable table(0, sketch);
      ModelTable model(Mode::kSketch);
      (void)RunStream(table, model, universe, 6000, rng);
    }
  }
}

TEST(FrequencyTableModel, EvictingSummariesDirtyEveryChangedWeight) {
  // Past capacity the summaries estimate, so the model holds only what the
  // maintainers rely on: the total is exact, the summary stays within its
  // slots, and a drain reports every peer recorded since the last one. In
  // bounded mode weights change only through Record, Forget and evictions,
  // all of which dirty, so a drain also covers every changed weight.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (Mode mode : {Mode::kBounded, Mode::kSketch}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " "
                   << (mode == Mode::kBounded ? "bounded" : "sketch"));
      Rng rng(200 + seed);
      const std::vector<uint64_t> universe = Universe(64, rng);
      FreqSketchParams sketch;
      sketch.top_capacity = mode == Mode::kSketch ? 12 : 0;
      sketch.cm_width = 32;
      sketch.cm_depth = 2;
      FrequencyTable table(mode == Mode::kBounded ? 12 : 0, sketch);
      std::map<uint64_t, double> before;
      std::set<uint64_t> recorded;
      uint64_t total = 0;
      for (int op = 0; op < 4000; ++op) {
        const uint64_t id =
            universe[static_cast<size_t>(rng.UniformU64(universe.size()))];
        const uint64_t roll = rng.UniformU64(10);
        if (roll < 6) {
          const uint64_t w = 1 + rng.UniformU64(3);
          table.Record(id, w);
          recorded.insert(id);
          total += w;
        } else if (roll < 8) {
          table.Forget(id);
        } else if (roll < 9) {
          const std::vector<uint64_t> drained = table.DrainDirty();
          ASSERT_TRUE(std::is_sorted(drained.begin(), drained.end()));
          ASSERT_TRUE(std::adjacent_find(drained.begin(), drained.end()) ==
                      drained.end());
          const std::set<uint64_t> got(drained.begin(), drained.end());
          for (uint64_t r : recorded) ASSERT_TRUE(got.count(r)) << r;
          recorded.clear();
          for (uint64_t u : universe) {
            const double now = table.ObservedWeight(u);
            if (mode == Mode::kBounded && now != before[u]) {
              ASSERT_TRUE(got.count(u)) << "changed weight, id " << u;
            }
            before[u] = now;
          }
        } else {
          ASSERT_LE(table.distinct(), 12u);
          ASSERT_EQ(table.total(), total);
        }
      }
    }
  }
}

}  // namespace
}  // namespace peercache::auxsel
