// Reproduces paper Figure 3: Pastry, percentage reduction in average lookup
// hops versus the frequency-oblivious baseline, as the overlay size n varies
// with k = log2(n) auxiliary neighbors, for zipf parameters 1.2 and 0.91.
//
// Paper's reported trend: improvement grows with n; ~49% at n=2048 with
// alpha=1.2; up to ~29% with alpha=0.91.

#include "figure_sweeps.h"

// The rows, their configs and the paper's values are Fig3PastryVaryN in
// figure_sweeps.h.
int main(int argc, char** argv) {
  using namespace peercache::bench;
  return RunFigure(Fig3PastryVaryN, argc, argv);
}
