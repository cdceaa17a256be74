// Reproduces paper Figure 5: Chord, percentage reduction in average lookup
// hops versus the frequency-oblivious baseline, as the overlay size n varies
// with k = log2(n), in a stable system and under heavy churn.
//
// Paper's setup: zipf(1.2) item popularity, five popularity lists assigned
// to nodes at random; churn = exponential 900 s mean alive/dead durations,
// 4 queries/s, stabilization every 25 s, auxiliary recomputation every
// 62.5 s. Paper's reported trend: improvement grows with n, up to ~57%
// stable and ~25% under churn at n = 1024.

#include "figure_sweeps.h"

// The rows, their configs and the paper's values are Fig5ChordVaryN in
// figure_sweeps.h.
int main(int argc, char** argv) {
  using namespace peercache::bench;
  return RunFigure(Fig5ChordVaryN, argc, argv);
}
