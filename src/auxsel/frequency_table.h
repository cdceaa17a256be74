#ifndef PEERCACHE_AUXSEL_FREQUENCY_TABLE_H_
#define PEERCACHE_AUXSEL_FREQUENCY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "auxsel/selection_types.h"

namespace peercache::auxsel {

/// Configuration for the bounded-memory sketch mode of FrequencyTable:
/// a flat space-saving summary holds the `top_capacity` heavy hitters and a
/// count-min sketch absorbs the tail. top_capacity == 0 disables the mode.
struct FreqSketchParams {
  size_t top_capacity = 0;  ///< Heavy-hitter slots; 0 = sketch mode off.
  size_t cm_width = 64;     ///< Counters per sketch row (rounded up to 2^k).
  int cm_depth = 4;         ///< Independent sketch rows.
  uint64_t seed = 0x5eedUL; ///< Salts the sketch's row hashes.

  bool enabled() const { return top_capacity > 0; }
};

/// Per-node access-frequency observer (paper Sec. III, "Implementation
/// Considerations"): every query a node originates records the responsible
/// peer that answered it; the accumulated table feeds the auxiliary-neighbor
/// selection.
///
/// Three modes:
///  * exact (capacity == 0, sketch off): exact counts, with optional
///    exponential decay so the table tracks shifting popularity. The counts
///    live in one power-of-two open-addressing array whose slots hold id,
///    weight and a dirty mark, linearly probed at load at most 1/2 and
///    emptied by backward-shift deletion (no tombstones, no reserved id);
///  * bounded (capacity > 0): the Space-Saving top-n summary the paper
///    suggests for storage-limited nodes — the resulting selection may be
///    slightly suboptimal because tail peers are dropped (studied in
///    bench/ablation_topn);
///  * sketch (sketch.enabled()): a compact space-saving summary for the
///    heavy hitters backed by a count-min sketch for the tail. A tracked
///    peer's weight is min(summary count, sketch estimate) — both
///    overestimate an insert-only stream, so the min is a tighter
///    overestimate, and it equals the exact count whenever the summary never
///    evicted (top_capacity >= distinct peers). Memory is fixed at
///    configuration time regardless of how many peers are observed
///    (quantified in bench/freq_sketch; error model in docs/ALGORITHMS.md).
///
/// The bounded and sketch summaries, their parameters and their dirty set
/// are allocated out of line and only in those modes, so an exact-mode
/// table that has recorded nothing owns no heap memory.
///
/// The table also tracks the peers whose weight changed since the last
/// `DrainDirty()`, which is what lets an incremental maintainer
/// (auxsel/maintainer.h) apply only the per-round frequency deltas instead
/// of re-reading the whole table. `Record` and `Decay` dirty every peer they
/// touch. `Forget` dirties the peer only when its weight changed: exact
/// mode removed its entry, bounded mode reset its tracked slot, sketch mode
/// zeroed a nonzero estimate; forgetting a peer the table does not hold
/// reports nothing. Summary evictions dirty the victim too: its estimate
/// silently dropped to zero, and a maintainer that missed the eviction
/// would otherwise keep the stale weight forever.
class FrequencyTable {
 public:
  /// capacity == 0 keeps exact counts for every peer ever seen. When
  /// `sketch.enabled()`, the sketch mode takes precedence over `capacity`.
  explicit FrequencyTable(size_t capacity = 0,
                          const FreqSketchParams& sketch = {});
  FrequencyTable(const FrequencyTable&) = delete;
  FrequencyTable& operator=(const FrequencyTable&) = delete;
  FrequencyTable(FrequencyTable&&) noexcept;
  FrequencyTable& operator=(FrequencyTable&&) noexcept;
  ~FrequencyTable();

  /// Records one query answered by `peer_id`.
  void Record(uint64_t peer_id, uint64_t weight = 1);

  /// Drops a peer from the table (e.g., observed to have left the overlay).
  /// Returns true when the entry was fully removed (exact mode, or the
  /// peer was never tracked). In bounded and sketch modes the summary has no
  /// true deletion; the entry's count is zeroed (making it the next eviction
  /// victim rather than pinning the slot forever) — and in sketch mode the
  /// count-min counters are compensated so the peer's estimate reads zero —
  /// then Forget returns false so the caller knows to push a frequency-zero
  /// update into any selector state derived from this table. Either way,
  /// subsequent Records start from zero: a drain after Forget always yields
  /// absolute weights, never the pre-Forget count. The peer is dirtied only
  /// when its weight changed (see the class comment).
  bool Forget(uint64_t peer_id);

  /// Multiplies every exact count by `factor` in (0, 1]; lets long-running
  /// nodes favor recent popularity. No-op in bounded and sketch modes.
  void Decay(double factor);

  /// Number of distinct peers currently tracked.
  size_t distinct() const;

  /// Total recorded weight.
  uint64_t total() const { return total_; }

  /// Current weight estimate for one peer (0 if untracked).
  double ObservedWeight(uint64_t peer_id) const;

  /// Returns the sorted, distinct ids whose weight may have changed since
  /// the last drain, and clears the dirty marks. Pair with `ObservedWeight`
  /// to turn the table's mutations into selector deltas.
  std::vector<uint64_t> DrainDirty();

  /// Exports the table as selector input peers. Never includes
  /// `exclude_self`. Exact mode lists its entries in slot order, which
  /// depends on the insertion history: consumers that need an order sort
  /// (the selectors read through an id-sorted view). In sketch mode the
  /// entries are the heavy-hitter summary with zero-weight slots skipped,
  /// ordered by weight descending with ties broken by ascending id —
  /// deterministic at any thread count.
  std::vector<PeerFreq> Snapshot(uint64_t exclude_self) const;

  void Clear();

  bool sketch_enabled() const;
  /// The configured sketch parameters; a table built without a summary
  /// (exact mode) reports the disabled defaults.
  const FreqSketchParams& sketch_params() const;

  /// Modeled per-node footprint of the frequency summary, in bytes. The
  /// model is platform-invariant so telemetry stays bit-identical across
  /// toolchains: exact mode costs kExactEntryBytes per distinct peer,
  /// bounded mode kBoundedSlotBytes per configured slot, sketch mode the
  /// flat summary slots plus the count-min counter matrix; all plus a fixed
  /// kTableOverheadBytes. The dirty buffer is excluded: it is the shared
  /// maintainer delta feed, identical across modes and drained every round.
  size_t SummaryMemoryBytes() const;

  /// Model constants for SummaryMemoryBytes (documented in
  /// docs/OBSERVABILITY.md).
  static constexpr size_t kExactEntryBytes = 48;
  static constexpr size_t kBoundedSlotBytes = 88;
  static constexpr size_t kTableOverheadBytes = 64;

 private:
  /// One cell of the exact-mode array. `state` tells an empty cell from an
  /// occupied one, so every id, 0 included, can be stored.
  struct Slot {
    uint64_t id = 0;
    double weight = 0.0;
    uint8_t state = 0;  // kEmpty, kClean or kDirty (frequency_table.cc)
  };
  /// Bounded or sketch summary (frequency_table.cc).
  struct Summary;

  size_t Home(uint64_t id) const;
  /// The cell holding `id`, or the empty cell that ends its probe run.
  /// Requires a non-empty array.
  size_t Find(uint64_t id) const;
  void MarkDirty(Slot& slot);
  void Grow();
  void EraseCell(size_t hole);

  std::vector<Slot> slots_;      // exact mode; empty until the first Record
  std::vector<uint64_t> dirty_;  // exact mode; may repeat until drained
  size_t size_ = 0;              // occupied slots
  int shift_ = 64;               // 64 - log2(slots_.size())
  uint64_t total_ = 0;
  std::unique_ptr<Summary> summary_;  // null in exact mode
};

}  // namespace peercache::auxsel

#endif  // PEERCACHE_AUXSEL_FREQUENCY_TABLE_H_
