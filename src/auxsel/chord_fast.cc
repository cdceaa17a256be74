#include "auxsel/chord_fast.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>
#include <vector>

#include "auxsel/chord_common.h"
#include "common/bits.h"

namespace peercache::auxsel {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One DP layer: row_min[m] = min over candidate positions p in
/// [0, #cands<=m) of prev[cand[p]-1] + S(cand[p], m), exploiting argmin
/// monotonicity (total monotonicity from the concave QI of s).
class LayerSolver {
 public:
  LayerSolver(const ChordFastPlan& plan, const std::vector<double>& prev,
              std::vector<double>& row_min, std::vector<int>& row_arg)
      : inst_(plan.instance()),
        plan_(plan),
        prev_(prev),
        row_min_(row_min),
        row_arg_(row_arg) {}

  void Run() {
    if (inst_.n >= 1) {
      Solve(1, inst_.n, 0, static_cast<int>(inst_.candidates.size()) - 1);
    }
  }

 private:
  void Solve(int mlo, int mhi, int plo, int phi) {
    if (mlo > mhi) return;
    const int mid = mlo + (mhi - mlo) / 2;
    // Eligible candidate positions for row mid: cand[p] <= mid.
    const auto& cand = inst_.candidates;
    const int hi = std::min(
        phi, inst_.candidates_upto[static_cast<size_t>(mid)] - 1);
    double best = kInf;
    int best_p = -1;
    for (int p = plo; p <= hi; ++p) {
      const int j = cand[static_cast<size_t>(p)];
      const double val =
          prev_[static_cast<size_t>(j - 1)] + plan_.S(j, mid);
      if (val < best) {
        best = val;
        best_p = p;
      }
    }
    row_min_[static_cast<size_t>(mid)] = best;
    row_arg_[static_cast<size_t>(mid)] = best_p < 0 ? 0 : cand[static_cast<size_t>(best_p)];
    const int left_hi = best_p < 0 ? phi : best_p;
    const int right_lo = best_p < 0 ? plo : best_p;
    Solve(mlo, mid - 1, plo, left_hi);
    Solve(mid + 1, mhi, right_lo, phi);
  }

  const ChordInstance& inst_;
  const ChordFastPlan& plan_;
  const std::vector<double>& prev_;
  std::vector<double>& row_min_;
  std::vector<int>& row_arg_;
};

}  // namespace

double ChordFastPlan::S(int j, int m) const {
  assert(j >= 1 && j <= m);
  const int nc = inst_.next_core[static_cast<size_t>(j)];
  const int limit = std::min(m, nc - 1);
  double s = 0;
  if (limit > j) {
    assert(!inst_.is_core[static_cast<size_t>(j)]);
    const size_t base =
        static_cast<size_t>(inst_.candidates_upto[static_cast<size_t>(j)] - 1) *
        stride_;
    const int dl = inst_.Hop(j, limit);
    assert(dl >= 1);
    const int pprev = p_[base + static_cast<size_t>(dl - 1)];
    s += w_[base + static_cast<size_t>(dl - 1)] +
         dl * (inst_.F[static_cast<size_t>(limit)] -
               inst_.F[static_cast<size_t>(pprev)]);
  }
  if (m >= nc) {
    s += inst_.B[static_cast<size_t>(m)] - inst_.B[static_cast<size_t>(nc - 1)];
  }
  return s;
}

void ChordFastPlan::BuildRow(size_t row, int j, std::vector<int>& reach) {
  const size_t base = row * stride_;
  const uint64_t idj = inst_.ids[static_cast<size_t>(j)];
  p_[base] = j;  // p_j(0): only j itself is within hop 0
  w_[base] = 0.0;
  int prev_p = j;
  for (int r = 1; r <= inst_.bits; ++r) {
    // Largest successor index l with ids[l] - idj <= 2^r - 1. The previous
    // candidate's p(r) and this row's p_j(r - 1) are both lower bounds, so
    // the pointer only moves forward.
    const uint64_t limit_id = idj + LowBitMask(r);  // may wrap; see below
    int& l = reach[static_cast<size_t>(r)];
    l = std::max(l, prev_p);
    if (limit_id < idj) {
      // 2^r - 1 overflows past the top of the id space: everything fits.
      l = inst_.n;
    } else {
      while (l < inst_.n && inst_.ids[static_cast<size_t>(l) + 1] <= limit_id) {
        ++l;
      }
    }
    p_[base + static_cast<size_t>(r)] = l;
    w_[base + static_cast<size_t>(r)] =
        w_[base + static_cast<size_t>(r - 1)] +
        r * (inst_.F[static_cast<size_t>(l)] -
             inst_.F[static_cast<size_t>(prev_p)]);
    prev_p = l;
  }
}

void ChordFastPlan::RefreshRow(size_t row, int j) {
  // Same recurrence as BuildRow, over the stored jump pointers.
  const size_t base = row * stride_;
  w_[base] = 0.0;
  int prev_p = j;
  for (int r = 1; r <= inst_.bits; ++r) {
    const int l = p_[base + static_cast<size_t>(r)];
    w_[base + static_cast<size_t>(r)] =
        w_[base + static_cast<size_t>(r - 1)] +
        r * (inst_.F[static_cast<size_t>(l)] -
             inst_.F[static_cast<size_t>(prev_p)]);
    prev_p = l;
  }
}

Result<ChordFastPlan> ChordFastPlan::Build(const SelectionInput& input) {
  auto inst_r = BuildChordInstance(input);
  if (!inst_r.ok()) return inst_r.status();
  ChordFastPlan plan;
  plan.inst_ = std::move(inst_r).value();
  const ChordInstance& inst = plan.inst_;
  plan.stride_ = static_cast<size_t>(inst.bits) + 1;
  const size_t rows = inst.candidates.size();
  plan.p_.assign(rows * plan.stride_, 0);
  plan.w_.assign(rows * plan.stride_, 0.0);
  // p_j(r) is the farthest successor in the arc [id_j, id_j + 2^r), which
  // slides clockwise as j grows, so p_j(r) never decreases in j: one
  // pointer per r sweeps the successors once over all rows.
  std::vector<int> reach(plan.stride_, 0);
  for (size_t row = 0; row < rows; ++row) {
    plan.BuildRow(row, inst.candidates[row], reach);
  }
  return plan;
}

Status ChordFastPlan::RefreshWeights(const SelectionInput& input) {
  if (input.bits != inst_.bits) {
    return Status::InvalidArgument("plan built for different id space");
  }
  // The plan's successors are the view rotated at self: same ids, same core
  // flags, in the same clockwise order. Anything else makes the geometry
  // stale.
  auto inst_r = BuildChordInstance(input);
  if (!inst_r.ok()) return inst_r.status();
  ChordInstance fresh = std::move(inst_r).value();
  if (fresh.orig_id != inst_.orig_id || fresh.is_core != inst_.is_core) {
    return Status::InvalidArgument("membership or core set differs from plan");
  }
  for (int j : inst_.candidates) {
    if (fresh.freq[static_cast<size_t>(j)] <= 0.0) {
      return Status::InvalidArgument("candidate lost its frequency");
    }
  }
  inst_.freq = std::move(fresh.freq);
  inst_.delay_bound = std::move(fresh.delay_bound);
  inst_.F = std::move(fresh.F);
  inst_.B = std::move(fresh.B);
  for (size_t row = 0; row < inst_.candidates.size(); ++row) {
    RefreshRow(row, inst_.candidates[row]);
  }
  return Status::Ok();
}

Result<Selection> ChordFastPlan::Solve(const SelectionInput& input) const {
  const ChordInstance& inst = inst_;
  const int n = inst.n;
  const int k = std::min(input.k, static_cast<int>(inst.candidates.size()));

  std::vector<double> prev(inst.B.begin(), inst.B.end());  // C_0 = B
  std::vector<double> row_min(static_cast<size_t>(n) + 1, kInf);
  std::vector<int> row_arg(static_cast<size_t>(n) + 1, 0);
  std::vector<std::vector<int>> choice(
      static_cast<size_t>(k) + 1,
      std::vector<int>(static_cast<size_t>(n) + 1, 0));

  for (int i = 1; i <= k; ++i) {
    LayerSolver(*this, prev, row_min, row_arg).Run();
    auto& row = choice[static_cast<size_t>(i)];
    for (int m = 1; m <= n; ++m) {
      const size_t um = static_cast<size_t>(m);
      if (row_min[um] < prev[um]) {  // strict: prefer fewer pointers on ties
        prev[um] = row_min[um];
        row[um] = row_arg[um];
      }
    }
  }

  std::vector<int> chosen;
  int m = n;
  for (int i = k; i >= 1 && m >= 1;) {
    int j = choice[static_cast<size_t>(i)][static_cast<size_t>(m)];
    if (j == 0) {
      --i;
      continue;
    }
    chosen.push_back(j);
    m = j - 1;
    --i;
  }
  return MakeChordSelection(input, inst, chosen);
}

Result<Selection> SelectChordFast(const SelectionInput& input) {
  auto plan_r = ChordFastPlan::Build(input);
  if (!plan_r.ok()) return plan_r.status();
  return plan_r.value().Solve(input);
}

}  // namespace peercache::auxsel
