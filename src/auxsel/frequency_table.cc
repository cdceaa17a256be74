#include "auxsel/frequency_table.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "common/count_min.h"
#include "common/top_n.h"

namespace peercache::auxsel {

namespace {

constexpr uint8_t kEmpty = 0;
constexpr uint8_t kClean = 1;
constexpr uint8_t kDirty = 2;

/// Odd multiplier of the slot hash: an id's home cell in an array of 2^b
/// cells is the top b bits of `id * kHashMul` (as in overlay::NodeStore).
constexpr uint64_t kHashMul = 0x9E3779B97F4A7C15ull;
constexpr size_t kMinCells = 16;

}  // namespace

/// The bounded-memory modes' state. Bounded mode uses `bounded`; sketch
/// mode `top` and `cm`. The unused members keep their minimum size.
struct FrequencyTable::Summary {
  Summary(size_t capacity, const FreqSketchParams& sketch)
      : params(sketch),
        capacity(capacity),
        bounded(capacity == 0 ? 1 : capacity),
        top(sketch.enabled() ? sketch.top_capacity : 1),
        cm(sketch.enabled() ? sketch.cm_width : 2,
           sketch.enabled() ? sketch.cm_depth : 1, sketch.seed) {}

  bool sketch() const { return params.enabled(); }

  void Record(uint64_t peer_id, uint64_t weight) {
    dirty.insert(peer_id);
    // An eviction silently zeroes the victim's estimate; dirty it so
    // maintainers replace the stale weight next drain.
    uint64_t evicted = 0;
    if (sketch()) {
      cm.Add(peer_id, weight);
      if (top.Offer(peer_id, weight, &evicted)) dirty.insert(evicted);
    } else if (bounded.Offer(peer_id, weight, &evicted)) {
      dirty.insert(evicted);
    }
  }

  bool Forget(uint64_t peer_id) {
    if (!sketch()) {
      // Zero the Space-Saving slot so the departed peer becomes the next
      // eviction victim, and report that a true removal did not apply.
      const bool tracked = bounded.Reset(peer_id);
      if (tracked) dirty.insert(peer_id);
      return !tracked;
    }
    // Zero the summary slot and compensate the count-min counters so the
    // peer's estimate — and hence ObservedWeight — reads zero. Records
    // after this start from zero again (absolute, not stale, weights).
    if (Weight(peer_id) != 0.0) dirty.insert(peer_id);
    const bool tracked = top.Reset(peer_id);
    cm.Forget(peer_id);
    return !tracked;
  }

  double Weight(uint64_t peer_id) const {
    if (!sketch()) return static_cast<double>(bounded.EstimatedCount(peer_id));
    // Both the summary count and the sketch estimate overestimate an
    // insert-only stream, so their minimum is a tighter overestimate; it
    // is exact whenever the summary never evicted.
    const uint64_t est = cm.Estimate(peer_id);
    if (!top.Contains(peer_id)) return static_cast<double>(est);
    return static_cast<double>(std::min(top.EstimatedCount(peer_id), est));
  }

  void Snapshot(uint64_t exclude_self, std::vector<PeerFreq>& out) const {
    if (!sketch()) {
      for (const TopNEntry& e : bounded.Entries()) {
        if (e.key == exclude_self) continue;
        out.push_back(PeerFreq{e.key, static_cast<double>(e.count), -1});
      }
      return;
    }
    for (const FlatTopEntry& e : top.Entries()) {
      if (e.key == exclude_self) continue;
      const uint64_t w = std::min(e.count, cm.Estimate(e.key));
      if (w == 0) continue;
      out.push_back(PeerFreq{e.key, static_cast<double>(w), -1});
    }
  }

  void Clear() {
    bounded.Clear();
    top.Clear();
    cm.Clear();
    dirty.clear();
  }

  FreqSketchParams params;
  size_t capacity;
  SpaceSaving bounded;
  SpaceSavingFlat top;
  CountMinSketch cm;
  std::unordered_set<uint64_t> dirty;
};

FrequencyTable::FrequencyTable(size_t capacity, const FreqSketchParams& sketch)
    : summary_(capacity > 0 || sketch.enabled()
                   ? std::make_unique<Summary>(capacity, sketch)
                   : nullptr) {}

FrequencyTable::FrequencyTable(FrequencyTable&&) noexcept = default;
FrequencyTable& FrequencyTable::operator=(FrequencyTable&&) noexcept = default;
FrequencyTable::~FrequencyTable() = default;

size_t FrequencyTable::Home(uint64_t id) const {
  return static_cast<size_t>((id * kHashMul) >> shift_);
}

size_t FrequencyTable::Find(uint64_t id) const {
  const size_t mask = slots_.size() - 1;
  size_t cell = Home(id);
  while (slots_[cell].state != kEmpty && slots_[cell].id != id) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

void FrequencyTable::MarkDirty(Slot& slot) {
  if (slot.state == kDirty) return;
  slot.state = kDirty;
  dirty_.push_back(slot.id);
}

void FrequencyTable::Grow() {
  const size_t cells = slots_.empty() ? kMinCells : 2 * slots_.size();
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cells));
  shift_ = 64 - std::countr_zero(cells);
  for (const Slot& slot : old) {
    if (slot.state != kEmpty) slots_[Find(slot.id)] = slot;
  }
}

void FrequencyTable::EraseCell(size_t hole) {
  const size_t mask = slots_.size() - 1;
  for (size_t cell = (hole + 1) & mask; slots_[cell].state != kEmpty;
       cell = (cell + 1) & mask) {
    // The entry at `cell` may fill the hole iff the hole lies on its probe
    // path, i.e. its home is no further along than the hole.
    if (((cell - Home(slots_[cell].id)) & mask) >= ((cell - hole) & mask)) {
      slots_[hole] = slots_[cell];
      hole = cell;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void FrequencyTable::Record(uint64_t peer_id, uint64_t weight) {
  total_ += weight;
  if (summary_) {
    summary_->Record(peer_id, weight);
    return;
  }
  if (slots_.empty()) Grow();
  size_t cell = Find(peer_id);
  if (slots_[cell].state == kEmpty) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
      cell = Find(peer_id);
    }
    slots_[cell] = Slot{peer_id, 0.0, kClean};
    ++size_;
  }
  slots_[cell].weight += static_cast<double>(weight);
  MarkDirty(slots_[cell]);
}

bool FrequencyTable::Forget(uint64_t peer_id) {
  if (summary_) return summary_->Forget(peer_id);
  if (size_ == 0) return true;
  const size_t cell = Find(peer_id);
  if (slots_[cell].state == kEmpty) return true;
  // A dirty entry's id is already queued; a clean one's is queued now.
  if (slots_[cell].state == kClean) dirty_.push_back(peer_id);
  EraseCell(cell);
  return true;
}

void FrequencyTable::Decay(double factor) {
  assert(factor > 0 && factor <= 1);
  if (summary_) return;
  for (Slot& slot : slots_) {
    if (slot.state == kEmpty) continue;
    slot.weight *= factor;
    MarkDirty(slot);
  }
}

size_t FrequencyTable::distinct() const {
  if (!summary_) return size_;
  return summary_->sketch() ? summary_->top.size() : summary_->bounded.size();
}

double FrequencyTable::ObservedWeight(uint64_t peer_id) const {
  if (summary_) return summary_->Weight(peer_id);
  if (size_ == 0) return 0.0;
  const Slot& slot = slots_[Find(peer_id)];
  return slot.state == kEmpty ? 0.0 : slot.weight;
}

std::vector<uint64_t> FrequencyTable::DrainDirty() {
  if (summary_) {
    std::vector<uint64_t> out(summary_->dirty.begin(), summary_->dirty.end());
    summary_->dirty.clear();
    std::sort(out.begin(), out.end());
    return out;
  }
  // An id forgotten and re-recorded since the last drain was queued twice.
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  if (size_ > 0) {
    for (uint64_t id : dirty_) {
      Slot& slot = slots_[Find(id)];
      if (slot.state == kDirty) slot.state = kClean;
    }
  }
  // Copied out so the queue keeps its capacity for the next round.
  std::vector<uint64_t> out(dirty_);
  dirty_.clear();
  return out;
}

std::vector<PeerFreq> FrequencyTable::Snapshot(uint64_t exclude_self) const {
  std::vector<PeerFreq> out;
  if (summary_) {
    summary_->Snapshot(exclude_self, out);
    return out;
  }
  out.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.state == kEmpty || slot.id == exclude_self) continue;
    out.push_back(PeerFreq{slot.id, slot.weight, -1});
  }
  return out;
}

void FrequencyTable::Clear() {
  slots_ = {};
  dirty_.clear();
  size_ = 0;
  shift_ = 64;
  total_ = 0;
  if (summary_) summary_->Clear();
}

bool FrequencyTable::sketch_enabled() const {
  return summary_ && summary_->sketch();
}

const FreqSketchParams& FrequencyTable::sketch_params() const {
  static const FreqSketchParams kDisabled;
  return summary_ ? summary_->params : kDisabled;
}

size_t FrequencyTable::SummaryMemoryBytes() const {
  if (!summary_) return kTableOverheadBytes + size_ * kExactEntryBytes;
  if (!summary_->sketch()) {
    return kTableOverheadBytes + summary_->capacity * kBoundedSlotBytes;
  }
  return kTableOverheadBytes + summary_->top.MemoryBytes() +
         summary_->cm.MemoryBytes();
}

}  // namespace peercache::auxsel
