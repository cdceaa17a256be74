#include "trie/binary_trie.h"

#include <cassert>
#include <cmath>

#include "common/bits.h"

namespace peercache::trie {

BinaryTrie::BinaryTrie(int bits) : bits_(bits) {
  assert(bits >= 1 && bits <= 64);
}

BinaryTrie BinaryTrie::FromSortedLeaves(int bits,
                                        const std::vector<LeafInfo>& leaves) {
  BinaryTrie t(bits);
  if (leaves.empty()) return t;
  ++t.version_;
  t.vertices_.reserve(2 * leaves.size());
  t.leaves_.reserve(leaves.size());
  t.root_ = t.AllocVertex();
  std::vector<int> path{t.root_};  // the rightmost root path, root first
  for (size_t i = 0; i < leaves.size(); ++i) {
    const uint64_t id = leaves[i].id;
    assert((id & ~LowBitMask(bits)) == 0);
    assert(i == 0 || leaves[i - 1].id < id);
    const int leaf_v = t.AllocVertex();
    t.vertices_[leaf_v].depth = bits;
    t.vertices_[leaf_v].prefix = id;
    t.vertices_[leaf_v].leaf = leaves[i];
    t.leaves_.emplace(id, leaf_v);

    // The new id leaves its predecessor's at depth `branch`: every path
    // vertex deeper than that is complete.
    const int branch =
        i == 0 ? 0 : CommonPrefixLength(leaves[i - 1].id, id, bits);
    int done = kNil;
    while (t.vertices_[path.back()].depth > branch) {
      done = path.back();
      path.pop_back();
      t.RefreshAggregates(done);
    }
    int top = path.back();
    if (t.vertices_[top].depth < branch) {
      // Split the edge top -> done: the predecessor's side takes bit 0.
      const int split = t.AllocVertex();
      t.vertices_[split].depth = branch;
      t.vertices_[split].prefix = t.PrefixOf(id, branch);
      t.vertices_[split].parent = top;
      t.vertices_[top].child[t.BitAt(id, t.vertices_[top].depth)] = split;
      t.vertices_[split].child[0] = done;
      t.vertices_[done].parent = split;
      path.push_back(split);
      top = split;
    }
    const int bit = t.BitAt(id, t.vertices_[top].depth);
    assert(t.vertices_[top].child[bit] == kNil);
    t.vertices_[top].child[bit] = leaf_v;
    t.vertices_[leaf_v].parent = top;
    path.push_back(leaf_v);
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    t.RefreshAggregates(*it);
  }
  return t;
}

int BinaryTrie::BitAt(uint64_t id, int i) const { return IdBit(id, bits_, i); }

uint64_t BinaryTrie::PrefixOf(uint64_t id, int len) const {
  if (len == 0) return 0;
  return id >> (bits_ - len);
}

int BinaryTrie::AllocVertex() {
  int v;
  if (!free_list_.empty()) {
    v = free_list_.back();
    free_list_.pop_back();
  } else {
    v = static_cast<int>(vertices_.size());
    vertices_.emplace_back();
  }
  vertices_[v] = Vertex{};
  vertices_[v].in_use = true;
  ++live_vertices_;
  return v;
}

void BinaryTrie::FreeVertex(int v) {
  vertices_[v].in_use = false;
  free_list_.push_back(v);
  --live_vertices_;
}

void BinaryTrie::RefreshAggregates(int v) {
  Vertex& vx = vertices_[v];
  if (vx.depth == bits_) {
    vx.subtree_freq = vx.leaf.frequency;
    bool neigh = vx.leaf.is_core || vx.leaf.preselected;
    vx.neighbor_leaves = neigh ? 1 : 0;
    vx.candidate_leaves = neigh ? 0 : 1;
    return;
  }
  vx.subtree_freq = 0.0;
  vx.neighbor_leaves = 0;
  vx.candidate_leaves = 0;
  for (int b = 0; b < 2; ++b) {
    int c = vx.child[b];
    if (c == kNil) continue;
    vx.subtree_freq += vertices_[c].subtree_freq;
    vx.neighbor_leaves += vertices_[c].neighbor_leaves;
    vx.candidate_leaves += vertices_[c].candidate_leaves;
  }
}

void BinaryTrie::PullUpAggregates(int v) {
  while (v != kNil) {
    RefreshAggregates(v);
    v = vertices_[v].parent;
  }
}

int BinaryTrie::EdgeLength(int v) const {
  int p = vertices_[v].parent;
  if (p == kNil) return vertices_[v].depth;  // root: depth 0 => length 0
  return vertices_[v].depth - vertices_[p].depth;
}

int BinaryTrie::FindLeaf(uint64_t id) const {
  auto it = leaves_.find(id);
  return it == leaves_.end() ? kNil : it->second;
}

Result<int> BinaryTrie::Insert(const LeafInfo& leaf) {
  if ((leaf.id & ~LowBitMask(bits_)) != 0) {
    return Status::InvalidArgument("id out of range for id space");
  }
  if (leaves_.count(leaf.id)) {
    return Status::InvalidArgument("duplicate id");
  }
  if (leaf.frequency < 0 || !std::isfinite(leaf.frequency)) {
    return Status::InvalidArgument("frequency must be finite and >= 0");
  }
  ++version_;

  int leaf_v = AllocVertex();
  {
    Vertex& lv = vertices_[leaf_v];
    lv.depth = bits_;
    lv.prefix = leaf.id;
    lv.leaf = leaf;
  }
  leaves_.emplace(leaf.id, leaf_v);

  if (root_ == kNil) {
    root_ = AllocVertex();
    vertices_[root_].depth = 0;
    vertices_[root_].prefix = 0;
  }

  int v = root_;
  while (true) {
    int bit = BitAt(leaf.id, vertices_[v].depth);
    int c = vertices_[v].child[bit];
    if (c == kNil) {
      vertices_[v].child[bit] = leaf_v;
      vertices_[leaf_v].parent = v;
      break;
    }
    const int child_depth = vertices_[c].depth;
    uint64_t id_prefix = PrefixOf(leaf.id, child_depth);
    if (id_prefix == vertices_[c].prefix) {
      // Full match with the child's prefix: descend. The child cannot be a
      // leaf here because duplicate ids were rejected above.
      assert(child_depth < bits_);
      v = c;
      continue;
    }
    // Partial match: split the edge v -> c at the first disagreeing bit.
    int match =
        CommonPrefixLength(id_prefix, vertices_[c].prefix, child_depth);
    assert(match > vertices_[v].depth && match < child_depth);
    int split = AllocVertex();
    Vertex& sv = vertices_[split];
    sv.depth = match;
    sv.prefix = PrefixOf(leaf.id, match);
    sv.parent = v;
    vertices_[v].child[bit] = split;
    int c_bit = static_cast<int>(
        (vertices_[c].prefix >> (child_depth - match - 1)) & 1u);
    int id_bit = BitAt(leaf.id, match);
    assert(c_bit != id_bit);
    sv.child[c_bit] = c;
    vertices_[c].parent = split;
    sv.child[id_bit] = leaf_v;
    vertices_[leaf_v].parent = split;
    break;
  }
  PullUpAggregates(leaf_v);
  return leaf_v;
}

Result<int> BinaryTrie::Remove(uint64_t id) {
  auto it = leaves_.find(id);
  if (it == leaves_.end()) return Status::NotFound("id not in trie");
  ++version_;
  int leaf_v = it->second;
  leaves_.erase(it);
  int p = vertices_[leaf_v].parent;
  FreeVertex(leaf_v);

  if (p == kNil) {
    // Single-vertex degenerate case cannot occur: the root is always a
    // separate depth-0 vertex.
    root_ = kNil;
    return kNil;
  }
  Vertex& pv = vertices_[p];
  int leaf_slot = (pv.child[0] == leaf_v) ? 0 : 1;
  assert(pv.child[leaf_slot] == leaf_v);
  pv.child[leaf_slot] = kNil;

  if (p == root_) {
    if (leaves_.empty()) {
      FreeVertex(root_);
      root_ = kNil;
      return kNil;
    }
    PullUpAggregates(p);
    return p;
  }

  // Non-root internal vertex now has one child: splice it out.
  int sibling = pv.child[leaf_slot ^ 1];
  assert(sibling != kNil);
  int g = pv.parent;
  Vertex& gv = vertices_[g];
  int p_slot = (gv.child[0] == p) ? 0 : 1;
  assert(gv.child[p_slot] == p);
  gv.child[p_slot] = sibling;
  vertices_[sibling].parent = g;
  FreeVertex(p);
  PullUpAggregates(g);
  return g;
}

Result<int> BinaryTrie::UpdateFrequency(uint64_t id, double frequency) {
  if (frequency < 0 || !std::isfinite(frequency)) {
    return Status::InvalidArgument("frequency must be finite and >= 0");
  }
  int v = FindLeaf(id);
  if (v == kNil) return Status::NotFound("id not in trie");
  ++version_;
  vertices_[v].leaf.frequency = frequency;
  PullUpAggregates(v);
  return v;
}

Result<int> BinaryTrie::SetCore(uint64_t id, bool is_core) {
  int v = FindLeaf(id);
  if (v == kNil) return Status::NotFound("id not in trie");
  ++version_;
  vertices_[v].leaf.is_core = is_core;
  PullUpAggregates(v);
  return v;
}

Result<int> BinaryTrie::SetPreselected(uint64_t id, bool preselected) {
  int v = FindLeaf(id);
  if (v == kNil) return Status::NotFound("id not in trie");
  ++version_;
  vertices_[v].leaf.preselected = preselected;
  PullUpAggregates(v);
  return v;
}

Result<int> BinaryTrie::SetDelayBound(uint64_t id, int delay_bound) {
  int v = FindLeaf(id);
  if (v == kNil) return Status::NotFound("id not in trie");
  ++version_;
  vertices_[v].leaf.delay_bound = delay_bound;
  // Delay bounds do not feed subtree aggregates; no pull-up needed, but the
  // version bump invalidates selector caches that depend on bounds.
  return v;
}

std::vector<int> BinaryTrie::AllLeaves() const {
  std::vector<int> out;
  out.reserve(leaves_.size());
  for (const auto& [id, v] : leaves_) out.push_back(v);
  return out;
}

Status BinaryTrie::CheckInvariants() const {
  if (root_ == kNil) {
    if (!leaves_.empty()) return Status::Internal("empty root, leaves present");
    if (live_vertices_ != 0) return Status::Internal("leaked vertices");
    return Status::Ok();
  }
  if (vertices_[root_].depth != 0) return Status::Internal("root depth != 0");
  if (vertices_[root_].parent != kNil) {
    return Status::Internal("root has parent");
  }

  size_t seen_leaves = 0;
  size_t seen_vertices = 0;
  // Iterative DFS; checks each vertex against its children.
  std::vector<int> stack{root_};
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    ++seen_vertices;
    const Vertex& vx = vertices_[v];
    if (!vx.in_use) return Status::Internal("freed vertex reachable");

    if (vx.depth == bits_) {
      ++seen_leaves;
      if (vx.child[0] != kNil || vx.child[1] != kNil) {
        return Status::Internal("leaf with children");
      }
      if (vx.prefix != vx.leaf.id) return Status::Internal("leaf prefix != id");
      auto it = leaves_.find(vx.leaf.id);
      if (it == leaves_.end() || it->second != v) {
        return Status::Internal("leaf map inconsistent");
      }
      bool neigh = vx.leaf.is_core || vx.leaf.preselected;
      if (vx.neighbor_leaves != (neigh ? 1 : 0) ||
          vx.candidate_leaves != (neigh ? 0 : 1) ||
          vx.subtree_freq != vx.leaf.frequency) {
        return Status::Internal("leaf aggregates wrong");
      }
      continue;
    }

    int n_children = 0;
    double freq = 0;
    int neigh = 0, cand = 0;
    for (int b = 0; b < 2; ++b) {
      int c = vx.child[b];
      if (c == kNil) continue;
      ++n_children;
      const Vertex& cx = vertices_[c];
      if (cx.parent != v) return Status::Internal("parent link broken");
      if (cx.depth <= vx.depth) return Status::Internal("depth not increasing");
      // Child's prefix must extend the parent's and branch on bit b. A
      // 64-bit leaf under the root extends the empty prefix (and a shift by
      // 64 would be undefined).
      const int extension = cx.depth - vx.depth;
      uint64_t cp_top = extension == 64 ? 0 : cx.prefix >> extension;
      if (cp_top != vx.prefix) return Status::Internal("prefix mismatch");
      int branch_bit = static_cast<int>(
          (cx.prefix >> (cx.depth - vx.depth - 1)) & 1u);
      if (branch_bit != b) return Status::Internal("branch bit mismatch");
      freq += cx.subtree_freq;
      neigh += cx.neighbor_leaves;
      cand += cx.candidate_leaves;
      stack.push_back(c);
    }
    if (v != root_ && n_children != 2) {
      return Status::Internal("non-root internal vertex without 2 children");
    }
    if (vx.neighbor_leaves != neigh || vx.candidate_leaves != cand ||
        std::abs(vx.subtree_freq - freq) > 1e-9 * (1.0 + std::abs(freq))) {
      return Status::Internal("internal aggregates wrong");
    }
  }
  if (seen_leaves != leaves_.size()) {
    return Status::Internal("leaf count mismatch");
  }
  if (seen_vertices != live_vertices_) {
    return Status::Internal("vertex count mismatch");
  }
  return Status::Ok();
}

}  // namespace peercache::trie
