#ifndef PEERCACHE_EXPERIMENTS_BATCH_ENGINE_H_
#define PEERCACHE_EXPERIMENTS_BATCH_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"
#include "common/thread_pool.h"

/// Batched lookup engine: interleaves a window of W in-flight lookups over
/// one overlay, advancing each suspended route (overlay::RouteCursor) one
/// node visit per pass and prefetching the next hop's node record and table
/// slices while the other W-1 routes execute. A single lookup chases
/// pointers through a multi-gigabyte table arena at million-node scale —
/// every hop is a dependent cache miss — but the W routes are independent,
/// so the interleaving converts route-latency-bound execution into
/// memory-level parallelism. Each visit is overlay::RouteKernel's, the one
/// LookupInto runs, so a batched route is the single route by construction
/// (untraced, fault-free, untimed).
///
/// Determinism: each job's outcome is written to its own index-addressed
/// slot and depends only on (origin, key, overlay state), so results are
/// independent of the window size, the interleaving, and the thread count.
/// Checksums are folded serially in job order afterwards (FoldChecksum),
/// matching an unbatched LookupInto loop's per-lookup fold bit for bit.
namespace peercache::experiments {

/// One lookup to route: `origin` must name a node (dead origins fail the
/// job, mirroring LookupInto's Unavailable).
struct LookupJob {
  uint64_t origin = 0;
  uint64_t key = 0;
};

/// Outcome of one batched lookup. `ok` is false when the route could not
/// begin (dead origin / empty overlay); such jobs carry zeroed route fields
/// and are skipped by FoldChecksum, exactly as the unbatched measurement
/// loops skip failed LookupInto calls.
struct BatchLookupResult {
  uint64_t destination = 0;
  int hops = 0;
  int aux_hops = 0;
  bool success = false;
  bool ok = false;
};

/// Serial-fold summary over a result span in job order.
struct BatchSummary {
  uint64_t checksum = 0;
  uint64_t lookups = 0;    ///< Jobs with ok == true.
  uint64_t successes = 0;  ///< Delivered at the responsible node.
  uint64_t sum_hops = 0;
  uint64_t sum_aux_hops = 0;
};

/// Folds results in job order with the checksum recurrence
/// MixHash64(checksum ^ destination ^ hops << 32), so a batched run and an
/// unbatched reference loop over the same jobs produce the same checksum.
inline BatchSummary FoldChecksum(std::span<const BatchLookupResult> results) {
  BatchSummary sum;
  for (const BatchLookupResult& r : results) {
    if (!r.ok) continue;
    ++sum.lookups;
    sum.successes += r.success ? 1 : 0;
    sum.sum_hops += static_cast<uint64_t>(r.hops);
    sum.sum_aux_hops += static_cast<uint64_t>(r.aux_hops);
    sum.checksum = MixHash64(sum.checksum ^ r.destination ^
                             (static_cast<uint64_t>(r.hops) << 32));
  }
  return sum;
}

/// Routes `jobs` through `net` with up to `window` lookups in flight,
/// writing each outcome to results[i]. `results.size()` must be >=
/// `jobs.size()`. Single-threaded; see the ThreadPool overload for the
/// sharded form.
template <typename Network>
void RunBatchedLookups(const Network& net, std::span<const LookupJob> jobs,
                       int window, std::span<BatchLookupResult> results) {
  using Kernel = overlay::RouteKernel<Network>;
  using Node = typename Network::NodeType;
  if (jobs.empty()) return;
  const size_t w =
      window < 1 ? 1 : std::min<size_t>(jobs.size(),
                                        static_cast<size_t>(window));
  std::vector<overlay::RouteCursor> slots(w);
  std::vector<overlay::RouteResult> routes(w);
  std::vector<size_t> slot_job(w, 0);

  size_t next = 0;  // next unstarted job
  // Starts jobs into slot i until one begins (failed jobs are recorded
  // immediately). Returns false when the job list is dry.
  auto refill = [&](size_t i) {
    while (next < jobs.size()) {
      const size_t j = next++;
      results[j] = BatchLookupResult{};
      if (Kernel::Begin(net, jobs[j].origin, jobs[j].key, slots[i], routes[i],
                        nullptr)
              .ok()) {
        slot_job[i] = j;
        return true;
      }
    }
    return false;
  };

  size_t in_flight = 0;
  for (size_t i = 0; i < w; ++i) {
    if (refill(i)) ++in_flight;
  }
  while (in_flight > 0) {
    for (size_t i = 0; i < w; ++i) {
      overlay::RouteCursor& c = slots[i];
      if (!c.done) {
        Kernel::Visit(net, c, routes[i], {});
        if (!c.done) {
          // Stage 1: pull the next node's record toward the cache; its
          // table slices are prefetched half a window later (below), by
          // which time the record — holding the slice offsets — is warm.
          c.node = net.GetNode(c.current);
          __builtin_prefetch(c.node, 0, 1);
        } else {
          const overlay::RouteResult& route = routes[i];
          BatchLookupResult& r = results[slot_job[i]];
          r.destination = route.destination;
          r.hops = route.hops;
          r.aux_hops = route.aux_hops;
          r.success = route.success;
          r.ok = true;
          if (!refill(i)) {
            --in_flight;
            continue;
          }
        }
      }
      // Stage 2: table slices for the slot half a window ahead — W/2 steps
      // of other routes hide the miss before that slot is stepped again.
      const overlay::RouteCursor& ahead = slots[(i + w / 2) % w];
      if (!ahead.done) {
        net.PrefetchTables(*static_cast<const Node*>(ahead.node));
      }
    }
  }
}

/// Sharded form: contiguous job shards run on the pool's threads, each
/// interleaving its own `window` lookups. Per-job results land in the
/// same global slots, so output is identical to the single-threaded form
/// (and to the unbatched reference loop) at any thread count.
template <typename Network>
void RunBatchedLookups(ThreadPool& pool, const Network& net,
                       std::span<const LookupJob> jobs, int window,
                       std::span<BatchLookupResult> results) {
  const size_t shards = static_cast<size_t>(pool.num_threads());
  if (shards <= 1 || jobs.size() <= shards) {
    RunBatchedLookups(net, jobs, window, results);
    return;
  }
  pool.ParallelFor(0, shards, 1, [&](size_t s) {
    const size_t begin = jobs.size() * s / shards;
    const size_t end = jobs.size() * (s + 1) / shards;
    RunBatchedLookups(net, jobs.subspan(begin, end - begin), window,
                      results.subspan(begin, end - begin));
  });
}

/// Batched ground-truth resolution (the perf ledger's layer timing; warmup
/// resolves each item once with ResponsibleNode instead): interleaves a
/// window of `window` in-flight ResponsibleCursor bisections, one probe per
/// pass, prefetching each suspended cursor's next probe while the others
/// run.
/// Every cursor reproduces ResponsibleNode's answer exactly (the bisection
/// bound / bit-descent range is unique), so results[i] is byte-identical
/// to calling net.ResponsibleNode(keys[i]) in a loop — independent of the
/// window size and the interleaving. Fails only when the overlay is empty,
/// ResponsibleNode's sole failure mode, in which case no result is written.
template <typename Network>
Status RunBatchedResponsible(const Network& net,
                             std::span<const uint64_t> keys, int window,
                             std::span<uint64_t> results) {
  using Cursor = typename Network::ResponsibleCursor;
  if (keys.empty()) return Status::Ok();
  const size_t w =
      window < 1 ? 1 : std::min<size_t>(keys.size(),
                                        static_cast<size_t>(window));
  std::vector<Cursor> slots(w);
  std::vector<size_t> slot_key(w, 0);

  size_t next = 0;  // next unstarted key
  for (size_t i = 0; i < w; ++i) {
    const size_t j = next++;
    Status st = net.BeginResponsible(keys[j], slots[i]);
    if (!st.ok()) return st;  // empty overlay: fails for every key alike
    slot_key[i] = j;
  }
  size_t in_flight = w;
  while (in_flight > 0) {
    for (size_t i = 0; i < w; ++i) {
      Cursor& c = slots[i];
      if (c.done) continue;
      net.StepResponsible(c);
      if (!c.done) {
        net.PrefetchResponsible(c);
      } else {
        results[slot_key[i]] = c.result;
        if (next < keys.size()) {
          const size_t j = next++;
          // Cannot fail: the overlay was non-empty at the first Begin and
          // the net is const here.
          (void)net.BeginResponsible(keys[j], c);
          slot_key[i] = j;
          net.PrefetchResponsible(c);
        } else {
          --in_flight;
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace peercache::experiments

#endif  // PEERCACHE_EXPERIMENTS_BATCH_ENGINE_H_
