#ifndef PEERCACHE_TESTS_AUXSEL_MAINTAINER_TEST_UTIL_H_
#define PEERCACHE_TESTS_AUXSEL_MAINTAINER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "auxsel/maintainer.h"
#include "auxsel/selection_types.h"
#include "common/random.h"

namespace peercache::auxsel::testing {

/// Differential replay harness for Maintainer backends: applies `steps`
/// randomized join/leave/frequency-delta/core-set mutations to `m` and,
/// after EVERY step, asserts that the incremental `Reselect()` cost equals
/// both (a) a from-scratch selector run on the maintainer's logical state
/// and (b) the reference Eq. 1 evaluation of the incrementally chosen set —
/// so neither the delta bookkeeping nor the incremental cost pricing can
/// drift from the one-shot selectors.
///
/// `fresh` is a one-shot selector (SelectPastryGreedy / SelectChordFast /
/// SelectKademliaDp); `eval` the reference evaluator (EvaluatePastryCost /
/// EvaluateChordCost / EvaluateKademliaCost).
template <Maintainer M, typename FreshSelect, typename EvalCost>
void ReplayDeltasAgainstFresh(M& m, FreshSelect fresh, EvalCost eval,
                              Rng& rng, int steps) {
  const uint64_t bound = uint64_t{1} << m.bits();
  std::vector<uint64_t> seen;  // ids ever touched (some may have left)
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng.UniformU64(4));
    if (op == 0 || seen.size() < 3) {
      // Join (or re-weight, when the id is already tracked).
      const uint64_t id = rng.UniformU64(bound);
      if (id == m.self_id()) continue;
      const double f = static_cast<double>(rng.UniformU64(500)) + 1.0;
      ASSERT_TRUE(m.OnPeerJoin(id, f).ok());
      seen.push_back(id);
    } else if (op == 1) {
      // Leave (possibly of an id that already left: must be a no-op).
      const uint64_t id = seen[rng.UniformU64(seen.size())];
      ASSERT_TRUE(m.OnPeerLeave(id).ok());
    } else if (op == 2) {
      // Frequency delta; 0 exercises the bounded-Forget fallback path.
      const uint64_t id = seen[rng.UniformU64(seen.size())];
      const double f = static_cast<double>(rng.UniformU64(500));
      ASSERT_TRUE(m.OnFrequencyDelta(id, f).ok());
    } else {
      // Replace the core set with a random draw over seen + fresh ids.
      std::vector<uint64_t> cores;
      const size_t n_cores = rng.UniformU64(5);
      for (size_t i = 0; i < n_cores; ++i) {
        cores.push_back(rng.Bernoulli(0.3)
                            ? rng.UniformU64(bound)  // possibly never seen
                            : seen[rng.UniformU64(seen.size())]);
      }
      auto changed = m.SetCores(cores);
      ASSERT_TRUE(changed.ok()) << changed.status();
    }

    auto inc = m.Reselect();
    ASSERT_TRUE(inc.ok()) << inc.status() << " at step " << step;
    const SelectionInput state = m.FreshInput();
    auto ref = fresh(state);
    ASSERT_TRUE(ref.ok()) << ref.status() << " at step " << step;
    const double tol = 1e-9 * (1.0 + std::abs(ref->cost));
    EXPECT_NEAR(inc->cost, ref->cost, tol) << "fresh mismatch, step " << step;
    EXPECT_NEAR(inc->cost, eval(state, inc->chosen), tol)
        << "Eq. 1 pricing mismatch, step " << step;
  }
}

}  // namespace peercache::auxsel::testing

#endif  // PEERCACHE_TESTS_AUXSEL_MAINTAINER_TEST_UTIL_H_
