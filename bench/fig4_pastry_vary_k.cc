// Reproduces paper Figure 4: Pastry, percentage reduction in average lookup
// hops versus the frequency-oblivious baseline, as the auxiliary budget k
// varies over {log n, 2 log n, 3 log n} at n = 1024.
//
// Paper's reported trend: improvement *increases* with k (from ~50% to ~60%
// at alpha=1.2) — an artifact of FreePastry's locality-aware routing, which
// our simulator reproduces: among equal prefix progress, the proximity-
// closest candidate is taken, so extra oblivious entries rarely shorten
// routes while optimal entries keep adding long prefix jumps.

#include "figure_sweeps.h"

// The rows, their configs and the paper's values are Fig4PastryVaryK in
// figure_sweeps.h.
int main(int argc, char** argv) {
  using namespace peercache::bench;
  return RunFigure(Fig4PastryVaryK, argc, argv);
}
