// Kademlia backend sweep: percentage reduction in average lookup hops
// versus the frequency-oblivious baseline, as the overlay size n varies
// with k = log2(n), in a stable system and under heavy churn.
//
// The paper evaluates Chord and Pastry only; this driver extends the same
// experiment to the XOR-metric overlay the generic engine gained with the
// Kademlia backend. Setup mirrors the Pastry figures (zipf(1.2) popularity,
// one shared popularity list): Kademlia's prefix-class routing makes hop
// counts directly comparable to Pastry's, so any divergence in the
// improvement trend isolates the effect of the routing geometry rather
// than the workload. Unlike the legacy Chord/Pastry figures, the churn
// rows here use the default incremental (observed-frequency) maintainer
// path — the backend never had a full-rebuild era to stay comparable with.

#include "figure_sweeps.h"

// The rows, their configs and the paper's values are KademliaVaryN in
// figure_sweeps.h.
int main(int argc, char** argv) {
  using namespace peercache::bench;
  return RunFigure(KademliaVaryN, argc, argv);
}
