#include "auxsel/pastry_greedy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "auxsel/pastry_trie_builder.h"

namespace peercache::auxsel {

namespace {
constexpr int kNil = trie::BinaryTrie::kNil;
}  // namespace

PastryGainTree::PastryGainTree(int bits, int k) : trie_(bits), k_(k) {
  assert(k >= 0);
}

Result<PastryGainTree> PastryGainTree::FromInput(const SelectionInput& input) {
  auto trie_r = BuildSelectionTrie(input);
  if (!trie_r.ok()) return trie_r.status();
  PastryGainTree tree(input.bits, input.k);
  tree.trie_ = std::move(trie_r).value();
  tree.RecomputeAll();
  return tree;
}

void PastryGainTree::EnsureCapacity() {
  if (lists_.size() < static_cast<size_t>(trie_.vertex_capacity())) {
    lists_.resize(static_cast<size_t>(trie_.vertex_capacity()));
  }
}

Status PastryGainTree::AddPeer(uint64_t id, double frequency, bool is_core) {
  trie::LeafInfo leaf;
  leaf.id = id;
  leaf.frequency = frequency;
  leaf.is_core = is_core;
  auto r = trie_.Insert(leaf);
  if (!r.ok()) return r.status();
  EnsureCapacity();
  // Inserting may have split an edge: the displaced sibling was re-parented
  // and its incoming-edge length shrank, so its cached list (which embeds
  // its own-edge credit) is stale. Refresh both children of the new leaf's
  // parent before walking up.
  RefreshChildrenThenPath(trie_.Parent(r.value()), r.value());
  return Status::Ok();
}

Status PastryGainTree::RemovePeer(uint64_t id) {
  auto r = trie_.Remove(id);
  if (!r.ok()) return r.status();
  // Removal splices the old parent out: the surviving sibling hangs off the
  // returned ancestor with a longer incoming edge. Refresh its list first.
  if (r.value() != kNil) RefreshChildrenThenPath(r.value(), kNil);
  return Status::Ok();
}

void PastryGainTree::RefreshChildrenThenPath(int parent, int fallback_leaf) {
  if (parent == kNil) {
    if (fallback_leaf != kNil) RecomputePath(fallback_leaf);
    return;
  }
  for (int b = 0; b < 2; ++b) {
    int c = trie_.Child(parent, b);
    if (c != kNil) RecomputeVertex(c);
  }
  RecomputePath(parent);
}

Status PastryGainTree::UpdateFrequency(uint64_t id, double frequency) {
  auto r = trie_.UpdateFrequency(id, frequency);
  if (!r.ok()) return r.status();
  RecomputePath(r.value());
  return Status::Ok();
}

Status PastryGainTree::SetCore(uint64_t id, bool is_core) {
  auto r = trie_.SetCore(id, is_core);
  if (!r.ok()) return r.status();
  RecomputePath(r.value());
  return Status::Ok();
}

Status PastryGainTree::SetPreselected(uint64_t id, bool preselected) {
  auto r = trie_.SetPreselected(id, preselected);
  if (!r.ok()) return r.status();
  RecomputePath(r.value());
  return Status::Ok();
}

void PastryGainTree::RecomputePath(int v) {
  while (v != kNil) {
    RecomputeVertex(v);
    v = trie_.Parent(v);
  }
}

void PastryGainTree::RecomputeVertex(int v) {
  std::vector<GainEntry>& out = lists_[static_cast<size_t>(v)];
  out.clear();
  if (k_ == 0) return;

  if (trie_.IsLeaf(v)) {
    const trie::LeafInfo& leaf = trie_.LeafAt(v);
    if (!leaf.is_core && !leaf.preselected) {
      // A candidate leaf's first (only) pointer clears its own incoming
      // edge's penalty; there is nothing below a leaf.
      out.push_back(GainEntry{
          static_cast<double>(trie_.EdgeLength(v)) * leaf.frequency, leaf.id});
    }
    return;
  }

  const int c0 = trie_.Child(v, 0);
  const int c1 = trie_.Child(v, 1);
  static const std::vector<GainEntry> kEmpty;
  const std::vector<GainEntry>& a =
      (c0 != kNil) ? lists_[static_cast<size_t>(c0)] : kEmpty;
  const std::vector<GainEntry>& b =
      (c1 != kNil) ? lists_[static_cast<size_t>(c1)] : kEmpty;

  // Merge the two nonincreasing sequences, keeping at most k entries.
  size_t i = 0, j = 0;
  out.reserve(std::min(a.size() + b.size(), static_cast<size_t>(k_)));
  while (out.size() < static_cast<size_t>(k_) &&
         (i < a.size() || j < b.size())) {
    if (j >= b.size() || (i < a.size() && a[i].gain >= b[j].gain)) {
      out.push_back(a[i++]);
    } else {
      out.push_back(b[j++]);
    }
  }

  // Credit this vertex's incoming-edge penalty to the first pointer placed
  // in the subtree, if no core/preselected neighbor already clears it.
  if (!out.empty() && !trie_.SubtreeHasNeighbor(v)) {
    out[0].gain +=
        static_cast<double>(trie_.EdgeLength(v)) * trie_.SubtreeFrequency(v);
  }
}

void PastryGainTree::RecomputeAll() {
  EnsureCapacity();
  if (trie_.root() == kNil) return;
  // Post-order via explicit stack with visit flags.
  std::vector<std::pair<int, bool>> stack{{trie_.root(), false}};
  while (!stack.empty()) {
    auto [v, visited] = stack.back();
    stack.pop_back();
    if (visited) {
      RecomputeVertex(v);
      continue;
    }
    stack.push_back({v, true});
    for (int b = 0; b < 2; ++b) {
      int c = trie_.Child(v, b);
      if (c != kNil) stack.push_back({c, false});
    }
  }
}

std::vector<uint64_t> PastryGainTree::SelectAuxiliary() const {
  std::vector<uint64_t> out;
  if (trie_.root() == kNil) return out;
  const auto& root_list = lists_[static_cast<size_t>(trie_.root())];
  out.reserve(root_list.size());
  for (const GainEntry& e : root_list) out.push_back(e.id);
  return out;
}

double PastryGainTree::TotalGain() const {
  if (trie_.root() == kNil) return 0.0;
  double total = 0.0;
  for (const GainEntry& e : lists_[static_cast<size_t>(trie_.root())]) {
    total += e.gain;
  }
  return total;
}

Status PastryGainTree::CheckConsistency() {
  std::vector<std::vector<GainEntry>> cached = lists_;
  RecomputeAll();
  if (trie_.root() == kNil) return Status::Ok();
  // Compare reachable vertices only; freed slots may hold stale data.
  std::vector<int> stack{trie_.root()};
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    const auto& fresh = lists_[static_cast<size_t>(v)];
    const auto& old = cached[static_cast<size_t>(v)];
    if (fresh.size() != old.size()) {
      return Status::Internal("stale gain list size at vertex " +
                              std::to_string(v));
    }
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (std::abs(fresh[i].gain - old[i].gain) >
          1e-9 * (1.0 + std::abs(fresh[i].gain))) {
        return Status::Internal("stale gain value at vertex " +
                                std::to_string(v));
      }
    }
    for (int b = 0; b < 2; ++b) {
      int c = trie_.Child(v, b);
      if (c != kNil) stack.push_back(c);
    }
  }
  return Status::Ok();
}

Result<Selection> SelectPastryGreedy(const SelectionInput& input) {
  auto tree_r = PastryGainTree::FromInput(input);
  if (!tree_r.ok()) return tree_r.status();
  Selection sel;
  sel.chosen = tree_r.value().SelectAuxiliary();
  std::sort(sel.chosen.begin(), sel.chosen.end());
  sel.cost = EvaluatePastryCost(input, sel.chosen);
  return sel;
}

}  // namespace peercache::auxsel
