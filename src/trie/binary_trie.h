#ifndef PEERCACHE_TRIE_BINARY_TRIE_H_
#define PEERCACHE_TRIE_BINARY_TRIE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace peercache::trie {

/// Payload carried by each leaf of the trie. A leaf is a peer the selecting
/// node has seen queries for (the set V of the paper), or one of the
/// selecting node's core neighbors.
struct LeafInfo {
  uint64_t id = 0;
  /// Observed access frequency f_v (any nonnegative scale: counts or rates).
  double frequency = 0.0;
  /// True if this peer is a core neighbor of the selecting node. Core leaves
  /// are never candidates for auxiliary selection and their subtrees always
  /// count as "containing a neighbor".
  bool is_core = false;
  /// True if this peer has already been picked (e.g., by a QoS forcing pass)
  /// and therefore counts as a neighbor but is no longer a candidate.
  bool preselected = false;
  /// QoS delay bound in hops (paper Sec. IV-D): a neighbor must exist within
  /// hop-estimate <= delay_bound of this peer. Negative means unconstrained.
  int delay_bound = -1;
};

/// Path-compressed binary trie over `bits`-bit peer ids, with subtree
/// aggregates maintained on every mutation.
///
/// This is the data structure of paper Sec. IV (Fig. 1): each peer in V is a
/// leaf; the Pastry hop-distance between two peers equals `bits` minus the
/// depth of their lowest common ancestor. Internal (non-root) vertices always
/// have exactly two children; edges carry lengths (the number of id bits they
/// compress). The root always sits at depth 0.
///
/// Vertex handles are stable small integers; removed vertices are recycled
/// through a free list. Selectors attach their per-vertex state in parallel
/// arrays indexed by these handles.
class BinaryTrie {
 public:
  static constexpr int kNil = -1;

  /// Creates an empty trie over `bits`-bit ids (1..64).
  explicit BinaryTrie(int bits);

  /// Builds the trie holding `leaves`, whose ids must be in range and
  /// strictly ascending, in one ordered pass: a stack holds the rightmost
  /// root path, each leaf joins it at the depth where its id leaves its
  /// predecessor's, and each vertex's aggregates are computed once, in
  /// post-order, as it leaves the stack. The shape and aggregates equal
  /// those of inserting the leaves one by one; only the vertex handles
  /// differ. O(n) plus the leaf map.
  static BinaryTrie FromSortedLeaves(int bits,
                                     const std::vector<LeafInfo>& leaves);

  int bits() const { return bits_; }
  size_t leaf_count() const { return leaves_.size(); }

  /// Root vertex handle, or kNil when the trie is empty.
  int root() const { return root_; }

  /// Inserts a new leaf. Fails with InvalidArgument if the id is already
  /// present or out of range. Returns the new leaf's vertex handle.
  Result<int> Insert(const LeafInfo& leaf);

  /// Removes the leaf with the given id. Returns the handle of the deepest
  /// surviving ancestor of the removed leaf (kNil if the trie became empty).
  /// Fails with NotFound if absent.
  Result<int> Remove(uint64_t id);

  /// Updates the frequency of an existing leaf and refreshes aggregates.
  /// Returns the leaf's vertex handle.
  Result<int> UpdateFrequency(uint64_t id, double frequency);

  /// Flags/unflags a leaf as a core neighbor. Returns the leaf handle.
  Result<int> SetCore(uint64_t id, bool is_core);

  /// Flags/unflags a leaf as preselected. Returns the leaf handle.
  Result<int> SetPreselected(uint64_t id, bool preselected);

  /// Sets a leaf's QoS delay bound (negative clears it). Returns the handle.
  Result<int> SetDelayBound(uint64_t id, int delay_bound);

  bool Contains(uint64_t id) const { return leaves_.count(id) > 0; }

  /// Finds the leaf vertex for an id, or kNil.
  int FindLeaf(uint64_t id) const;

  // ---- Vertex accessors (valid handles only) ----

  bool IsLeaf(int v) const { return vertices_[v].depth == bits_; }
  int Depth(int v) const { return vertices_[v].depth; }
  int Parent(int v) const { return vertices_[v].parent; }
  /// Child on the 0- or 1-branch; kNil if absent (root may have 0/1 child).
  int Child(int v, int bit) const { return vertices_[v].child[bit]; }
  /// Length in bits of the edge from Parent(v) to v (depth difference).
  /// The root has no incoming edge; returns Depth(v) for the root, which is
  /// always 0 by construction.
  int EdgeLength(int v) const;
  /// Total frequency of all leaves under v (F(T_v) of the paper).
  double SubtreeFrequency(int v) const { return vertices_[v].subtree_freq; }
  /// True iff the subtree under v contains a core or preselected leaf.
  bool SubtreeHasNeighbor(int v) const {
    return vertices_[v].neighbor_leaves > 0;
  }
  /// Number of candidate leaves (non-core, non-preselected) under v.
  int CandidateCount(int v) const { return vertices_[v].candidate_leaves; }
  /// Leaf payload; v must be a leaf.
  const LeafInfo& LeafAt(int v) const { return vertices_[v].leaf; }

  /// Number of live vertices (leaves + internal + root).
  size_t vertex_count() const { return live_vertices_; }

  /// Upper bound (exclusive) on vertex handles ever issued. Selectors size
  /// their parallel per-vertex arrays with this.
  int vertex_capacity() const { return static_cast<int>(vertices_.size()); }

  /// Monotone counter bumped on every successful mutation. Selectors use it
  /// to detect staleness of cached per-vertex state.
  uint64_t version() const { return version_; }

  /// Returns all leaf handles (unordered).
  std::vector<int> AllLeaves() const;

  /// Validates every structural invariant (parent/child symmetry, aggregate
  /// correctness, path compression, prefix consistency). Test helper; O(n·b).
  Status CheckInvariants() const;

 private:
  struct Vertex {
    int depth = 0;          // number of id bits this vertex represents
    uint64_t prefix = 0;    // the represented bits, right-aligned in `depth`
    int parent = kNil;
    int child[2] = {kNil, kNil};
    double subtree_freq = 0.0;
    int neighbor_leaves = 0;   // # core-or-preselected leaves in subtree
    int candidate_leaves = 0;  // # candidate leaves in subtree
    LeafInfo leaf;             // meaningful only when depth == bits
    bool in_use = false;
  };

  int AllocVertex();
  void FreeVertex(int v);
  /// Recomputes one vertex's aggregates from its children (or its own leaf
  /// payload) without recursing.
  void RefreshAggregates(int v);
  /// Refreshes aggregates from v up to the root.
  void PullUpAggregates(int v);
  /// The i-th most significant bit (0-indexed) of a full id.
  int BitAt(uint64_t id, int i) const;
  /// First `len` most-significant bits of a full id, right-aligned.
  uint64_t PrefixOf(uint64_t id, int len) const;

  int bits_;
  int root_ = kNil;
  std::vector<Vertex> vertices_;
  std::vector<int> free_list_;
  std::unordered_map<uint64_t, int> leaves_;  // id -> leaf vertex
  size_t live_vertices_ = 0;
  uint64_t version_ = 0;
};

}  // namespace peercache::trie

#endif  // PEERCACHE_TRIE_BINARY_TRIE_H_
