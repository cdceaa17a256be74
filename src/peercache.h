#ifndef PEERCACHE_PEERCACHE_H_
#define PEERCACHE_PEERCACHE_H_

/// \mainpage peercache
///
/// C++20 implementation of "Accelerating Lookups in P2P Systems using Peer
/// Caching" (Deb, Linga, Rastogi, Srinivasan — ICDE 2008): frequency-aware
/// selection of k auxiliary neighbor pointers that minimizes average lookup
/// hops in Pastry and Chord, plus the overlay simulators and experiment
/// harnesses that reproduce the paper's evaluation.
///
/// Umbrella header: includes the whole public API. Fine for applications;
/// library code should include the specific headers it uses.
///
/// Layering (each layer only depends on the ones above it):
///   - common/    ids, RNG, zipf, streaming top-n, stats, Status/Result
///   - trie/      path-compressed binary id trie (Pastry selection substrate)
///   - auxsel/    the paper's selection algorithms (the core contribution)
///   - chord/     event-simulable Chord overlay (paper's variant)
///   - pastry/    event-simulable Pastry overlay (FreePastry-style locality)
///   - sim/       deterministic discrete-event engine
///   - workload/  items, zipf popularity lists, query generation
///   - experiments/ stable & churn experiment harnesses (Sec. VI)

#include "auxsel/chord_dp.h"
#include "auxsel/chord_fast.h"
#include "auxsel/chord_qos.h"
#include "auxsel/frequency_table.h"
#include "auxsel/oblivious.h"
#include "auxsel/pastry_dp.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/pastry_qos.h"
#include "auxsel/selection_types.h"
#include "chord/chord_network.h"
#include "common/bits.h"
#include "common/logging.h"
#include "common/node_store.h"
#include "common/overlay.h"
#include "common/random.h"
#include "common/ring_id.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/top_n.h"
#include "common/zipf.h"
#include "experiments/experiment_config.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "pastry/pastry_network.h"
#include "sim/event_queue.h"
#include "trie/binary_trie.h"
#include "itemcache/item_cache.h"
#include "itemcache/strategy_compare.h"
#include "workload/workload.h"

#endif  // PEERCACHE_PEERCACHE_H_
