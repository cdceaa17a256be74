// Reproduces paper Figure 6: Chord, percentage reduction in average lookup
// hops versus the frequency-oblivious baseline, as the auxiliary budget k
// varies over {log n, 2 log n, 3 log n} at n = 1024, stable and under churn.
//
// Paper's reported trend: improvement *decreases* with k (churn: ~26% at
// k = log n down to ~17% at k = 3 log n) — with more pointers, random
// choices get luckier, and under churn a larger auxiliary set accumulates
// more stale entries between recomputations.

#include "figure_sweeps.h"

// The rows, their configs and the paper's values are Fig6ChordVaryK in
// figure_sweeps.h.
int main(int argc, char** argv) {
  using namespace peercache::bench;
  return RunFigure(Fig6ChordVaryK, argc, argv);
}
