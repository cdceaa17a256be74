#include "experiments/generic_experiment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/profiler.h"
#include "common/random.h"
#include "common/route_result.h"
#include "common/thread_pool.h"
#include "experiments/parallel_engine.h"
#include "sim/event_queue.h"
#include "workload/workload.h"

namespace peercache::experiments {

namespace {

using auxsel::SelectionInput;
using internal::ObliviousPool;
using internal::PhaseTimer;

/// True for the selectors that optimize over the node's observed
/// frequencies (kQos is kOptimal plus RTT-derived delay bounds). An arm
/// learns frequencies if and only if its selector reads them: the
/// core-only and oblivious arms skip stable warmup and churn-time
/// recording, since their selections, routes and RNG streams never depend
/// on the tables.
bool FrequencyAware(SelectorKind selector) {
  return selector == SelectorKind::kOptimal || selector == SelectorKind::kQos;
}

/// Fills the rest of a node's budget `k` with oblivious picks from the
/// round's validated pool, never the node itself, one of its `cores` or a
/// peer already in `chosen`. A frequency-aware selection that saw fewer
/// usable peers than k (common early under churn, where few queries have
/// been seen between recomputations) still installs k pointers, which is
/// what the paper's comparison assumes. The round validated the pool and
/// `node_id` is a live id of the overlay, so the draw cannot fail.
template <typename Policy>
void PadWithOblivious(std::span<const auxsel::PeerFreq> peer_pool,
                      uint64_t node_id, int bits, int k,
                      const std::vector<uint64_t>& cores, Rng& rng,
                      std::vector<uint64_t>& chosen) {
  if (static_cast<int>(chosen.size()) >= k) return;
  std::vector<uint64_t> excluded = cores;
  excluded.insert(excluded.end(), chosen.begin(), chosen.end());
  const std::vector<uint64_t> extra = Policy::DrawOblivious(
      peer_pool, node_id, excluded, k - static_cast<int>(chosen.size()), bits,
      rng);
  chosen.insert(chosen.end(), extra.begin(), extra.end());
}

/// Builds the SelectionInput for one node and computes the chosen
/// auxiliaries into `chosen_out` (the caller installs them serially after
/// the parallel round — SetAuxiliaries writes the shared table arena, which
/// has a single-writer contract). The frequency-aware policies optimize
/// over the node's observed frequencies; the oblivious policy draws from
/// `peer_pool`, the shared snapshot of the full live membership built and
/// validated once per selection round (it needs no query history, matching
/// the paper's baseline). The oblivious arm checks only this node's own
/// fields, in O(|N|), and computes no Eq. 1 cost: nothing reads it. Runs
/// concurrently for distinct nodes: it reads the overlay, reads its own
/// node's frequency table, and writes only its own slots.
///
/// SelectorKind::kQos additionally consults `latency`: observed peers whose
/// base RTT from this node exceeds `config.qos_rtt_threshold_ms` get
/// `config.qos_delay_bound` as their delay bound, and the policy's QoS
/// selector must place pointers meeting them. Infeasible bounds fall back
/// to the unconstrained optimal selection for that node.
///
/// For frequency-aware policies, `predicted_hops` (if non-null) receives
/// the selector's Eq. 1 cost normalized by the node's total observed
/// frequency — the cost model's promised frequency-weighted route length,
/// audited against measured hops (experiments/cost_audit.h). NaN when no
/// prediction exists (non-frequency-aware policies, or no observed peers).
/// `k_budget` is this node's auxiliary budget — config.k everywhere except
/// the heterogeneous-budget sweep (config.budget_gamma > 0), where
/// ComputeAuxiliaryBudgets redistributes the global budget across nodes.
template <typename Policy>
Status InstallAuxiliaries(typename Policy::Network& net, uint64_t node_id,
                          SelectorKind selector, const ExperimentConfig& config,
                          const latency::LatencyModel* latency,
                          Rng& selection_rng,
                          std::span<const auxsel::PeerFreq> peer_pool,
                          int k_budget, std::vector<uint64_t>& chosen_out,
                          double* predicted_hops = nullptr) {
  chosen_out.clear();
  if (predicted_hops != nullptr) {
    *predicted_hops = std::numeric_limits<double>::quiet_NaN();
  }
  if (selector == SelectorKind::kNone) {
    return Status::Ok();
  }
  auto* node = net.GetNode(node_id);
  if (node == nullptr) return Status::NotFound("node");

  SelectionInput input;
  input.bits = net.params().bits;
  input.self_id = node_id;
  input.k = k_budget;
  input.core_ids = net.CoreNeighborIds(node_id);

  if (!FrequencyAware(selector)) {
    // `input.peers` is empty: this checks bits, k, self_id and the cores.
    if (Status s = auxsel::ValidateInput(input); !s.ok()) return s;
    chosen_out = Policy::DrawOblivious(peer_pool, node_id, input.core_ids,
                                       k_budget, input.bits, selection_rng);
    return Status::Ok();
  }

  input.peers = node->frequencies.Snapshot(node_id);
  Result<auxsel::Selection> sel = [&]() -> Result<auxsel::Selection> {
    if (selector == SelectorKind::kQos && latency != nullptr &&
        config.qos_rtt_threshold_ms > 0.0) {
      for (auxsel::PeerFreq& p : input.peers) {
        if (latency->BaseRttMs(node_id, p.id) > config.qos_rtt_threshold_ms) {
          p.delay_bound = config.qos_delay_bound;
        }
      }
      Result<auxsel::Selection> qos = Policy::SelectQos(input);
      if (qos.ok() || qos.status().code() != StatusCode::kInfeasible) {
        return qos;
      }
      // Bounds unmeetable with k pointers at this node: route the
      // latency-heavy peers like everyone else rather than failing the
      // whole run.
      for (auxsel::PeerFreq& p : input.peers) p.delay_bound = -1;
    }
    return Policy::SelectOptimal(input);
  }();
  if (!sel.ok()) return sel.status();

  if (predicted_hops != nullptr) {
    double total_freq = 0.0;
    for (const auxsel::PeerFreq& p : input.peers) total_freq += p.frequency;
    if (total_freq > 0.0) *predicted_hops = sel->cost / total_freq;
  }

  chosen_out = std::move(sel->chosen);
  PadWithOblivious<Policy>(peer_pool, node_id, input.bits, k_budget,
                           input.core_ids, selection_rng, chosen_out);
  return Status::Ok();
}

/// One full-rebuild selection round over `ids`: builds and validates the
/// shared frequency-oblivious pool once, sizes the per-node prediction slots,
/// computes every node's selection in parallel into index-addressed slots,
/// then installs them serially in node order (the table arena's
/// single-writer contract — and serial installs make arena layout, hence
/// memory telemetry, independent of thread count). Shared by the stable
/// path's single selection pass and the churn recompute rounds of every
/// policy without a maintainer.
template <typename Policy>
Status InstallRound(ThreadPool& pool, typename Policy::Network& net,
                    const std::vector<uint64_t>& ids, SelectorKind selector,
                    const ExperimentConfig& config,
                    const latency::LatencyModel* latency, uint64_t round_seed,
                    std::vector<double>& predicted) {
  const Result<std::vector<auxsel::PeerFreq>> peer_pool =
      ObliviousPool(ids, net.params().bits);
  if (!peer_pool.ok()) return peer_pool.status();
  const std::vector<int> budgets = ComputeAuxiliaryBudgets(config, ids);
  predicted.assign(ids.size(), std::numeric_limits<double>::quiet_NaN());
  std::vector<std::vector<uint64_t>> chosen(ids.size());
  if (Status s = internal::ParallelInstall(
          pool, ids, round_seed, [&](size_t i, uint64_t id, Rng& rng) {
            return InstallAuxiliaries<Policy>(net, id, selector, config,
                                              latency, rng, peer_pool.value(),
                                              budgets[i], chosen[i],
                                              &predicted[i]);
          });
      !s.ok()) {
    return s;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (Status s = net.SetAuxiliaries(ids[i], std::move(chosen[i])); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

/// Builds the run's latency model from the experiment config (synthetic
/// coordinates, optionally overridden by a loaded ping matrix). Callers
/// pass the model on only when it is enabled, as with the FaultPlan: a
/// null model routes untimed and gives kQos no delay bounds.
latency::LatencyModel MakeLatencyModel(const ExperimentConfig& config) {
  if (!config.latency_matrix.empty()) {
    return latency::LatencyModel(config.latency, config.latency_matrix);
  }
  return latency::LatencyModel(config.latency);
}

/// Persistent per-node maintenance state of the optimal policy's churn
/// path: one Policy::Maintainer per node ever seen live, surviving across
/// recompute rounds, plus the global departure log nodes catch up on.
/// Entries are created in a serial pre-pass before each round's parallel
/// loop, which only looks them up — rehashing can never run under the
/// worker threads, so entry references stay valid.
template <typename Policy>
struct MaintenanceState {
  struct Entry {
    explicit Entry(typename Policy::Maintainer m)
        : maintainer(std::move(m)) {}
    typename Policy::Maintainer maintainer;
    /// First departure batch this node has not applied yet. A node that
    /// spends several rounds dead replays the missed batches when it next
    /// reselects instead of carrying ghost frequencies forever.
    size_t next_batch = 0;
    /// Set until the node's first reselection, which seeds the maintainer
    /// from a full frequency-table snapshot instead of replaying deltas.
    bool fresh = true;
  };
  std::unordered_map<uint64_t, Entry> entries;
  /// One sorted batch per recompute round: who left the overlay since the
  /// previous round (difference of consecutive live sets). A peer that
  /// leaves and rejoins within one interval produces no event — its
  /// retained frequency history is still valid.
  std::vector<std::vector<uint64_t>> departures;
  std::vector<uint64_t> prev_live;  ///< Sorted live set at the last round.
};

/// Per-node delta tallies of one maintenance round, written into an
/// index-addressed slot by the parallel loop and summed serially after.
struct NodeDeltaCounts {
  bool bootstrapped = false;
  uint64_t peer_joins = 0;
  uint64_t peer_leaves = 0;
  uint64_t freq_deltas = 0;
  uint64_t core_deltas = 0;
  bool audited = false;
};

/// Applies one recompute round's deltas to one node's persistent
/// maintainer and computes the reselected auxiliaries into `chosen_out`
/// (installed serially by the caller — arena single-writer contract). Safe
/// to run concurrently for distinct nodes: it reads the overlay, mutates
/// only its own node's frequency table and maintainer entry, and writes
/// its tallies into caller-provided slots.
template <typename Policy>
Status MaintainNode(typename Policy::Network& net,
                    MaintenanceState<Policy>& maint, uint64_t node_id,
                    int k, bool audit_round,
                    std::span<const auxsel::PeerFreq> peer_pool, Rng& rng,
                    std::vector<uint64_t>& chosen_out, double* predicted_hops,
                    NodeDeltaCounts& counts) {
  chosen_out.clear();
  *predicted_hops = std::numeric_limits<double>::quiet_NaN();
  auto* node = net.GetNode(node_id);
  if (node == nullptr) return Status::NotFound("node");
  auto it = maint.entries.find(node_id);
  if (it == maint.entries.end()) {
    return Status::Internal("no maintainer for live node");
  }
  typename MaintenanceState<Policy>::Entry& entry = it->second;
  typename Policy::Maintainer& m = entry.maintainer;

  if (entry.fresh) {
    // Bootstrap: seed the maintainer from everything observed so far,
    // dropping peers that are already dead (and Forgetting them so the
    // table stops counting ghosts). The drain below would replay the same
    // weights, so it is discarded.
    std::vector<auxsel::PeerFreq> snap = node->frequencies.Snapshot(node_id);
    std::sort(snap.begin(), snap.end(),
              [](const auxsel::PeerFreq& a, const auxsel::PeerFreq& b) {
                return a.id < b.id;
              });
    for (const auxsel::PeerFreq& p : snap) {
      if (net.IsAlive(p.id)) {
        if (Status s = m.OnPeerJoin(p.id, p.frequency); !s.ok()) return s;
        ++counts.peer_joins;
      } else {
        (void)node->frequencies.Forget(p.id);
      }
    }
    (void)node->frequencies.DrainDirty();
    entry.fresh = false;
    counts.bootstrapped = true;
  } else {
    // 1. Departures since this node's last reselection (possibly several
    //    rounds ago, if it was dead in between). Peers alive again by now
    //    are skipped wholesale: their observed history is still valid.
    for (; entry.next_batch < maint.departures.size(); ++entry.next_batch) {
      for (uint64_t gone : maint.departures[entry.next_batch]) {
        if (gone == node_id || net.IsAlive(gone)) continue;
        if (Status s = m.OnPeerLeave(gone); !s.ok()) return s;
        if (!node->frequencies.Forget(gone)) {
          // Bounded table: Forget only zeroed the Space-Saving slot. Push
          // the zero weight explicitly so maintainer and table agree.
          if (Status s = m.OnFrequencyDelta(
                  gone, node->frequencies.ObservedWeight(gone));
              !s.ok()) {
            return s;
          }
        }
        ++counts.peer_leaves;
      }
    }
    // 2. Frequency deltas observed since the last visit. Dead dirty peers
    //    were either just forgotten (weight now zero) or died after their
    //    last record without a departure event covering them — in both
    //    cases their weight must not re-enter the maintainer.
    for (uint64_t dirty_id : node->frequencies.DrainDirty()) {
      if (dirty_id == node_id || !net.IsAlive(dirty_id)) continue;
      if (Status s = m.OnFrequencyDelta(
              dirty_id, node->frequencies.ObservedWeight(dirty_id));
          !s.ok()) {
        return s;
      }
      ++counts.freq_deltas;
    }
  }
  entry.next_batch = maint.departures.size();

  // 3. Core-neighbor set as of the last stabilization: the DHT's tables,
  //    not the selector, decide core membership.
  const std::vector<uint64_t> cores = net.CoreNeighborIds(node_id);
  Result<size_t> changed = m.SetCores(cores);
  if (!changed.ok()) return changed.status();
  counts.core_deltas += changed.value();

  // 4. Reselect from persistent state (cached when nothing changed).
  Result<auxsel::Selection> sel = m.Reselect();
  if (!sel.ok()) return sel.status();
  const double total_freq = m.total_frequency();
  if (total_freq > 0.0) *predicted_hops = sel->cost / total_freq;

  // 5. Periodic audit: the incremental selection must be cost-equal to a
  //    from-scratch run of the one-shot selector on the same input.
  if (audit_round) {
    Result<auxsel::Selection> fresh = Policy::SelectOptimal(m.FreshInput());
    if (!fresh.ok()) return fresh.status();
    const double tol = 1e-7 * (1.0 + std::abs(fresh->cost));
    if (std::abs(sel->cost - fresh->cost) > tol) {
      return Status::Internal(
          "maintenance audit failed at node " + std::to_string(node_id) +
          ": incremental cost " + std::to_string(sel->cost) +
          " != fresh cost " + std::to_string(fresh->cost));
    }
    counts.audited = true;
  }

  // 6. Pad to k with oblivious picks, exactly like the one-shot path.
  chosen_out = sel->chosen;
  PadWithOblivious<Policy>(peer_pool, node_id, net.params().bits, k, cores,
                           rng, chosen_out);
  return Status::Ok();
}

/// One incremental churn maintenance round: logs the membership delta,
/// creates maintainers for first-seen nodes (serially), then applies each
/// live node's deltas and reselects in parallel. Appends the round's
/// tallies to `result.maintenance_rounds`.
template <typename Policy>
Status MaintainRound(ThreadPool& pool, typename Policy::Network& net,
                     MaintenanceState<Policy>& maint,
                     const std::vector<uint64_t>& live,
                     const ExperimentConfig& config, uint64_t round_seed,
                     uint64_t round_index, double sim_time_s,
                     std::vector<double>& predicted, RunResult& result) {
  PhaseTimer round_timer;

  std::vector<uint64_t> sorted_live = live;
  std::sort(sorted_live.begin(), sorted_live.end());
  std::vector<uint64_t> departed;
  std::set_difference(maint.prev_live.begin(), maint.prev_live.end(),
                      sorted_live.begin(), sorted_live.end(),
                      std::back_inserter(departed));
  maint.departures.push_back(std::move(departed));
  maint.prev_live = std::move(sorted_live);

  for (uint64_t id : live) {
    auto [it, inserted] = maint.entries.try_emplace(
        id, typename MaintenanceState<Policy>::Entry(
                Policy::MakeMaintainer(config, id)));
    if (inserted) it->second.next_batch = maint.departures.size();
  }

  const bool audit_round =
      config.maintenance_audit_period > 0 &&
      round_index % static_cast<uint64_t>(config.maintenance_audit_period) ==
          0;
  const Result<std::vector<auxsel::PeerFreq>> peer_pool =
      ObliviousPool(live, net.params().bits);
  if (!peer_pool.ok()) return peer_pool.status();
  predicted.assign(live.size(), std::numeric_limits<double>::quiet_NaN());
  std::vector<NodeDeltaCounts> counts(live.size());
  std::vector<std::vector<uint64_t>> chosen(live.size());
  if (Status s = internal::ParallelInstall(
          pool, live, round_seed,
          [&](size_t i, uint64_t id, Rng& rng) {
            return MaintainNode<Policy>(net, maint, id, config.k, audit_round,
                                        peer_pool.value(), rng, chosen[i],
                                        &predicted[i], counts[i]);
          });
      !s.ok()) {
    return s;
  }
  // Serial install in node order: arena writes have a single-writer
  // contract, and node-order installs keep the arena layout — hence the
  // memory telemetry — independent of thread count.
  for (size_t i = 0; i < live.size(); ++i) {
    if (Status s = net.SetAuxiliaries(live[i], std::move(chosen[i]));
        !s.ok()) {
      return s;
    }
  }

  MaintenanceRoundStats stats;
  stats.sim_time_s = sim_time_s;
  stats.live_nodes = live.size();
  for (const NodeDeltaCounts& c : counts) {
    stats.bootstrapped += c.bootstrapped ? 1 : 0;
    stats.peer_joins += c.peer_joins;
    stats.peer_leaves += c.peer_leaves;
    stats.freq_deltas += c.freq_deltas;
    stats.core_deltas += c.core_deltas;
    stats.audited_nodes += c.audited ? 1 : 0;
  }
  stats.seconds = round_timer.Seconds();
  result.maintenance_rounds.push_back(stats);
  return Status::Ok();
}

Comparison MakeComparison(RunResult none, RunResult oblivious,
                          RunResult optimal) {
  Comparison cmp;
  cmp.none = std::move(none);
  cmp.oblivious = std::move(oblivious);
  cmp.optimal = std::move(optimal);
  cmp.improvement_pct =
      ImprovementPct(cmp.oblivious.avg_hops, cmp.optimal.avg_hops);
  cmp.improvement_vs_none_pct =
      ImprovementPct(cmp.none.avg_hops, cmp.optimal.avg_hops);
  return cmp;
}

}  // namespace

std::vector<uint64_t> SampleNodeIds(const ExperimentConfig& config,
                                    uint64_t ids_seed) {
  Rng ids_rng(ids_seed);
  const uint64_t space =
      config.bits == 64 ? ~uint64_t{0} : (uint64_t{1} << config.bits);
  return ids_rng.SampleDistinct(space, static_cast<size_t>(config.n_nodes));
}

template <typename Policy>
Result<RunResult> RunStable(const ExperimentConfig& config,
                            SelectorKind selector) {
  const SeedPlan seeds = Policy::MakeSeedPlan(config.seed);
  typename Policy::Network net = Policy::MakeNetwork(config, seeds);

  const std::vector<uint64_t> node_ids = SampleNodeIds(config, seeds.ids);
  {
    ScopedProfile span("stable.build");
    // Bulk join, then one global stabilization: StabilizeAll rebuilds
    // every table from final membership, so the finished state is an
    // AddNode-then-StabilizeAll loop's without its per-join table builds.
    if (Status s = net.BulkAdd(node_ids); !s.ok()) return s;
    net.StabilizeAll();  // perfect routing state before the experiment
  }

  WorkloadBundle workload(config, seeds, node_ids);
  ThreadPool pool(config.threads);
  RunResult result;

  // Warmup: every node observes which peer answers each of its queries,
  // in the arms whose selector reads what it learns (FrequencyAware). In
  // the stable overlay the responsible node is known without routing.
  // With popularity drift enabled, warmup and measurement share one
  // monotone per-node query index so the drift timeline spans both phases.
  const workload::DriftModel* drift = workload.drift();
  PhaseTimer warmup_timer;
  {
    ScopedProfile span("stable.warmup");
    if (FrequencyAware(selector)) {
      if (Status s = internal::ParallelWarmup(
              pool, net, node_ids, workload.queries(), seeds.warmup,
              config.warmup_queries_per_node, drift, 0);
          !s.ok()) {
        return s;
      }
    }
  }
  result.warmup_seconds = warmup_timer.Seconds();

  // Auxiliary selection, one independent RNG stream per node. Each task
  // also records the selector's Eq. 1 prediction into its own slot for the
  // cost-model audit. The latency model (if enabled) is built before
  // selection because the QoS selector derives delay bounds from it.
  const latency::LatencyModel lmodel = MakeLatencyModel(config);
  const latency::LatencyModel* latency =
      lmodel.enabled() ? &lmodel : nullptr;
  PhaseTimer selection_timer;
  std::vector<double> predicted;
  {
    ScopedProfile span("stable.selection");
    if (Status s = InstallRound<Policy>(pool, net, node_ids, selector, config,
                                        latency, seeds.selection, predicted);
        !s.ok()) {
      return s;
    }
  }
  result.selection_seconds = selection_timer.Seconds();
  internal::CollectAuxiliaries(net, node_ids, result);

  // Measurement, optionally under fault injection (config.faults) and an
  // enabled latency model. Each pointer is null when its feature is off: a
  // null plan routes the fault-free path, a null model routes untimed.
  const fault::FaultPlan plan(config.faults);
  PhaseTimer measure_timer;
  {
    ScopedProfile span("stable.measure");
    if (Status s = internal::ParallelMeasure(
            pool, net, node_ids, workload.queries(), seeds.measure,
            config.measure_queries_per_node, config.trace_sample_period,
            predicted, result, plan.enabled() ? &plan : nullptr, latency,
            drift, config.warmup_queries_per_node);
        !s.ok()) {
      return s;
    }
  }
  result.measure_seconds = measure_timer.Seconds();
  internal::RecordFrequencySummary(net, node_ids, config, result);
  if (config.report_memory) result.memory = net.MemoryUsage();
  return result;
}

template <typename Policy>
Result<RunResult> RunChurn(const ExperimentConfig& config,
                           const ChurnConfig& churn, SelectorKind selector) {
  if (config.budget_gamma > 0.0) {
    return Status::InvalidArgument(
        "heterogeneous budgets (budget_gamma > 0) are stable-only: the "
        "churn maintainers keep uniform k");
  }
  const SeedPlan seeds = Policy::MakeSeedPlan(config.seed);
  typename Policy::Network net = Policy::MakeNetwork(config, seeds);

  const std::vector<uint64_t> node_ids = SampleNodeIds(config, seeds.ids);
  if (Status s = net.BulkAdd(node_ids); !s.ok()) return s;
  net.StabilizeAll();

  WorkloadBundle workload(config, seeds, node_ids);
  ThreadPool pool(config.threads);
  sim::EventQueue eq;
  Rng churn_rng(seeds.churn);
  Rng query_time_rng(seeds.query_times);
  Rng origin_rng(seeds.origins);
  Rng query_key_rng(seeds.measure);

  const double t_end = churn.warmup_s + churn.measure_s;
  RunResult result;
  internal::ChurnWindow window(config.trace_sample_period);

  // Latency model shared by the QoS recompute rounds and the query loop;
  // null when disabled, which routes untimed.
  const latency::LatencyModel lmodel = MakeLatencyModel(config);
  const latency::LatencyModel* latency =
      lmodel.enabled() ? &lmodel : nullptr;

  // Node life cycle: alternate alive/dead with exp(mean_lifetime) stays.
  // The overlay is never drained below two live nodes.
  std::function<void(uint64_t)> schedule_leave;
  std::function<void(uint64_t)> schedule_rejoin;
  schedule_leave = [&](uint64_t id) {
    eq.ScheduleAfter(churn_rng.Exponential(churn.mean_lifetime_s), [&, id] {
      if (net.live_count() <= 2 || !net.IsAlive(id)) {
        schedule_leave(id);  // keep the overlay populated; try again later
        return;
      }
      (void)net.RemoveNode(id);
      schedule_rejoin(id);
    });
  };
  schedule_rejoin = [&](uint64_t id) {
    eq.ScheduleAfter(churn_rng.Exponential(churn.mean_lifetime_s), [&, id] {
      (void)net.RejoinNode(id);
      schedule_leave(id);
    });
  };
  for (uint64_t id : node_ids) schedule_leave(id);

  // Periodic stabilization.
  std::function<void()> stabilize_tick = [&] {
    ScopedProfile span("churn.stabilize");
    net.StabilizeAll();
    if (eq.now() + churn.stabilize_interval_s <= t_end) {
      eq.ScheduleAfter(churn.stabilize_interval_s, stabilize_tick);
    }
  };
  eq.ScheduleAfter(churn.stabilize_interval_s, stabilize_tick);

  // Periodic auxiliary recomputation: the per-node loop runs on the pool
  // while the event queue is paused. Each round splits a fresh stream base
  // off the selection seed so repeated rounds draw fresh randomness, and
  // each node then splits its own stream off the round base — recomputation
  // results depend on (seed, round, node), never on thread interleaving.
  //
  // Two round implementations share this scheduling shell:
  //  * the optimal policy's incremental maintainers: persistent per-node
  //    selector state updated with this round's join/leave/frequency
  //    deltas only;
  //  * every other policy: each node's selection rebuilt in full via
  //    InstallRound.
  // A failed round (including a failed maintenance audit) stops further
  // recomputation and fails the run after the event loop drains.
  const bool use_maintainers = selector == SelectorKind::kOptimal;
  MaintenanceState<Policy> maint;
  if (use_maintainers) {
    maint.prev_live = net.LiveNodeIds();
    std::sort(maint.prev_live.begin(), maint.prev_live.end());
  }
  Status recompute_status = Status::Ok();
  uint64_t recompute_round = 0;
  std::function<void()> recompute_tick = [&] {
    ScopedProfile span("churn.recompute");
    PhaseTimer selection_timer;
    std::vector<uint64_t> live = net.LiveNodeIds();
    const uint64_t round_seed = SplitSeed(seeds.selection, recompute_round);
    std::vector<double> predicted;
    if (use_maintainers) {
      recompute_status = MaintainRound<Policy>(
          pool, net, maint, live, config, round_seed, recompute_round,
          eq.now(), predicted, result);
    } else {
      recompute_status = InstallRound<Policy>(
          pool, net, live, selector, config, latency, round_seed, predicted);
    }
    ++recompute_round;
    for (size_t i = 0; i < predicted.size(); ++i) {
      if (std::isfinite(predicted[i])) {
        window.predicted[live[i]] = predicted[i];
      }
    }
    result.selection_seconds += selection_timer.Seconds();
    if (recompute_status.ok() &&
        eq.now() + churn.recompute_interval_s <= t_end) {
      eq.ScheduleAfter(churn.recompute_interval_s, recompute_tick);
    }
  };
  eq.ScheduleAfter(churn.recompute_interval_s, recompute_tick);

  // Poisson query arrivals. One RouteResult serves the whole simulation —
  // the routing loop writes into it without allocating once the path
  // vector's capacity has grown to the longest route seen. With fault
  // injection on, every query routes resiliently; under churn the plan's
  // stale windows can fire too (dead entries linger between a departure and
  // the next stabilization).
  const fault::FaultPlan plan(config.faults);
  const fault::FaultPlan* faults = plan.enabled() ? &plan : nullptr;
  const bool learns_frequencies = FrequencyAware(selector);
  overlay::RouteResult route;
  std::function<void()> query_event = [&] {
    std::vector<uint64_t> live = net.LiveNodeIds();
    if (!live.empty()) {
      const uint64_t origin =
          live[static_cast<size_t>(origin_rng.UniformU64(live.size()))];
      const uint64_t key = workload.queries().SampleKey(origin, query_key_rng);
      const bool in_window = eq.now() >= churn.warmup_s;
      const bool trace_this = in_window && window.ShouldTraceNext();
      RouteTrace trace;
      const overlay::RouteOptions options{trace_this ? &trace : nullptr,
                                          faults, latency};
      if (net.LookupInto(origin, key, route, options).ok()) {
        // Dead entries discovered the hard way (stale-window forwards) are
        // evicted from the holder's auxiliary list right away — the
        // timeout is the liveness information. Core entries heal at the
        // holder's next stabilization, as in the fault-free model. The
        // event loop is serial, so mutating tables here is safe.
        for (const auto& [holder, entry] : route.dead_evictions) {
          net.EraseAuxiliary(holder, entry);
        }
        if (in_window) window.Add(origin, route, options);
        // Every node that saw the query learns which peer answered it
        // (paper Sec. III: "the set of nodes for which s has seen
        // queries"). Under the paper's low global query rate this is what
        // gives nodes usable frequency tables between recomputations.
        if (route.success && learns_frequencies) {
          for (uint64_t seen_by : route.path) {
            if (auto* n = net.GetNode(seen_by); n != nullptr) {
              n->frequencies.Record(route.destination);
            }
          }
        }
      }
    }
    const double dt = query_time_rng.Exponential(1.0 / churn.queries_per_s);
    if (eq.now() + dt <= t_end) eq.ScheduleAfter(dt, query_event);
  };
  eq.ScheduleAfter(query_time_rng.Exponential(1.0 / churn.queries_per_s),
                   query_event);

  {
    ScopedProfile span("churn.event_loop");
    eq.RunUntil(t_end);
  }
  if (!recompute_status.ok()) return recompute_status;

  window.Finalize(result);
  internal::CollectAuxiliaries(net, net.LiveNodeIds(), result);
  internal::RecordFrequencySummary(net, net.LiveNodeIds(), config, result);
  if (config.report_memory) result.memory = net.MemoryUsage();
  return result;
}

template <typename Policy>
Result<Comparison> CompareStable(const ExperimentConfig& config) {
  auto none = RunStable<Policy>(config, SelectorKind::kNone);
  if (!none.ok()) return none.status();
  auto oblivious = RunStable<Policy>(config, SelectorKind::kOblivious);
  if (!oblivious.ok()) return oblivious.status();
  auto optimal = RunStable<Policy>(config, SelectorKind::kOptimal);
  if (!optimal.ok()) return optimal.status();
  return MakeComparison(std::move(none).value(), std::move(oblivious).value(),
                        std::move(optimal).value());
}

template <typename Policy>
Result<Comparison> CompareChurn(const ExperimentConfig& config,
                                const ChurnConfig& churn) {
  auto none = RunChurn<Policy>(config, churn, SelectorKind::kNone);
  if (!none.ok()) return none.status();
  auto oblivious = RunChurn<Policy>(config, churn, SelectorKind::kOblivious);
  if (!oblivious.ok()) return oblivious.status();
  auto optimal = RunChurn<Policy>(config, churn, SelectorKind::kOptimal);
  if (!optimal.ok()) return optimal.status();
  return MakeComparison(std::move(none).value(), std::move(oblivious).value(),
                        std::move(optimal).value());
}

template Result<RunResult> RunStable<ChordPolicy>(const ExperimentConfig&,
                                                  SelectorKind);
template Result<RunResult> RunStable<PastryPolicy>(const ExperimentConfig&,
                                                   SelectorKind);
template Result<RunResult> RunStable<KademliaPolicy>(const ExperimentConfig&,
                                                     SelectorKind);
template Result<RunResult> RunChurn<ChordPolicy>(const ExperimentConfig&,
                                                 const ChurnConfig&,
                                                 SelectorKind);
template Result<RunResult> RunChurn<PastryPolicy>(const ExperimentConfig&,
                                                  const ChurnConfig&,
                                                  SelectorKind);
template Result<RunResult> RunChurn<KademliaPolicy>(const ExperimentConfig&,
                                                    const ChurnConfig&,
                                                    SelectorKind);
template Result<Comparison> CompareStable<ChordPolicy>(
    const ExperimentConfig&);
template Result<Comparison> CompareStable<PastryPolicy>(
    const ExperimentConfig&);
template Result<Comparison> CompareStable<KademliaPolicy>(
    const ExperimentConfig&);
template Result<Comparison> CompareChurn<ChordPolicy>(const ExperimentConfig&,
                                                      const ChurnConfig&);
template Result<Comparison> CompareChurn<PastryPolicy>(const ExperimentConfig&,
                                                       const ChurnConfig&);
template Result<Comparison> CompareChurn<KademliaPolicy>(
    const ExperimentConfig&, const ChurnConfig&);

}  // namespace peercache::experiments
