// Kademlia backend sweep: percentage reduction in average lookup hops
// versus the frequency-oblivious baseline, as the auxiliary budget k
// varies over {log n, 2 log n, 3 log n} at n = 1024, in a stable system.
//
// Companion to kademlia_vary_n.cc (see the header comment there for why
// the setup mirrors the Pastry figures). The Chord/Pastry versions of this
// sweep (fig4/fig6) show improvement *decreasing* with k — more pointers
// let random choices get luckier — and the XOR geometry is expected to
// follow the same trend since its distance classes coincide with Pastry's
// prefix slices.

#include "figure_sweeps.h"

// The rows, their configs and the paper's values are KademliaVaryK in
// figure_sweeps.h.
int main(int argc, char** argv) {
  using namespace peercache::bench;
  return RunFigure(KademliaVaryK, argc, argv);
}
