#ifndef PERF_LEDGER_FLOW_H_
#define PERF_LEDGER_FLOW_H_

// The overlay and message-runtime flow shared by the cluster_actor workload
// and the layer pass: build an overlay, warm its nodes' frequency tables,
// install and persist top-k auxiliaries, drive lookup rounds over the
// MessageBus, crash and restart actors, and restore them from the
// PeerCache. Every step is a public entry point of the library; callers
// time and trace the steps themselves.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/fault.h"
#include "common/latency.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "experiments/batch_engine.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "experiments/parallel_engine.h"
#include "ledger.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/peer_cache.h"
#include "net/wire.h"

namespace perf_ledger {

namespace ex = peercache::experiments;
namespace net = peercache::net;
using peercache::Result;
using peercache::Rng;
using peercache::SplitSeed;
using peercache::ThreadPool;

/// Calls fn.template operator()<Policy>() for chord, pastry and kademlia in
/// that order, stopping at the first failure.
template <typename Fn>
Status ForEachOverlay(Fn&& fn) {
  if (Status s = fn.template operator()<ex::ChordPolicy>(); !s.ok()) return s;
  if (Status s = fn.template operator()<ex::PastryPolicy>(); !s.ok()) {
    return s;
  }
  return fn.template operator()<ex::KademliaPolicy>();
}

/// Pastry row-fill probes per row for route_scale's builds: exact row scans
/// are quadratic in n (the repo's scale frontier samples 16 for the same
/// reason).
inline constexpr int kSampledPastryProbes = 16;

template <typename Policy>
typename Policy::Network MakeNet(const ex::ExperimentConfig& config,
                                 const ex::SeedPlan& seeds,
                                 bool sampled_pastry) {
  if constexpr (std::is_same_v<Policy, ex::PastryPolicy>) {
    if (sampled_pastry) {
      peercache::pastry::PastryParams params;
      params.bits = config.bits;
      params.frequency_capacity = config.frequency_capacity;
      params.leaf_set_half = config.leaf_set_half;
      params.stabilize_sample = kSampledPastryProbes;
      return typename Policy::Network(params, seeds.coords);
    }
  }
  return Policy::MakeNetwork(config, seeds);
}

/// Outcome of one lookup round driven over the bus.
struct RoundStats {
  uint64_t issued = 0;
  uint64_t delivered = 0;  ///< DONE frames that reached the client.
  uint64_t answered = 0;   ///< DONE frames carrying a completed route.
  uint64_t successes = 0;  ///< Routes delivered at the responsible node.
  uint64_t sum_hops = 0;   ///< Over successful routes.
  uint64_t route_hops = 0;  ///< Over every answered route.
  uint64_t checksum = 0;   ///< Folded in lookup-id order.
  uint64_t bus_posted = 0;
  uint64_t bus_delivered = 0;
  uint64_t bus_ticks = 0;
  double run_s = 0;   ///< MessageBus::Run wall time.
  double wall_s = 0;  ///< Post + Run + fold.
  ex::ResilienceStats resilience;
  peercache::LogHistogram latency_ms;

  double DeliveryRate() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(issued);
  }
};

/// Per-message instrumentation of a round. The handler writes it without
/// synchronisation, so it may only be used with a one-thread pool.
struct RoundProbe {
  double actor_s = 0;  ///< ActorHost::HandleMessage time.
  uint64_t actor_msgs = 0;
  double client_s = 0;  ///< Client-side DONE decode and bookkeeping.
  std::vector<std::vector<uint8_t>> corpus;  ///< Every 64th bus payload.
};

struct PersistStats {
  double put_s = 0;
  uint64_t puts = 0;
  double sync_s = 0;
  uint64_t evictions = 0;
};

struct RestoreStats {
  double open_s = 0;
  double get_s = 0;
  uint64_t gets = 0;
  uint64_t recovered = 0;
  uint64_t cold = 0;  ///< Killed nodes the cache no longer held.
  uint64_t mismatches = 0;
  uint64_t rejected = 0;
};

/// Top-k-by-observed-frequency auxiliaries (count desc, id asc): the
/// deterministic selection the message runtime persists and audits.
std::vector<uint64_t> TopKByFrequency(
    std::vector<peercache::auxsel::PeerFreq> snapshot, int k);
/// (peer, count) pairs of a snapshot, count desc, id asc.
std::vector<std::pair<uint64_t, uint64_t>> FrequencyPairs(
    std::vector<peercache::auxsel::PeerFreq> snapshot);

/// `count` jobs with origins uniform over `ids` and keys uniform over the
/// id space.
std::vector<ex::LookupJob> UniformJobs(const std::vector<uint64_t>& ids,
                                       int bits, uint64_t seed, size_t count);

/// The runtime's deterministic network conditions: the light fault plan
/// and latency model of the repo's cluster runtime.
peercache::fault::FaultConfig ClusterFaults(uint64_t seed);
peercache::latency::LatencyConfig ClusterLatency(uint64_t seed);

template <typename Policy>
class Cluster {
 public:
  using Net = typename Policy::Network;

  Cluster(const ex::ExperimentConfig& config, bool sampled_pastry)
      : config_(config),
        seeds_(Policy::MakeSeedPlan(config.seed)),
        net_(MakeNet<Policy>(config_, seeds_, sampled_pastry)),
        ids_(ex::SampleNodeIds(config_, seeds_.ids)),
        workload_(config_, seeds_, ids_),
        faults_(ClusterFaults(config.seed)),
        latency_(ClusterLatency(config.seed)) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ex::SeedPlan& seeds() const { return seeds_; }
  Net& net() { return net_; }
  const std::vector<uint64_t>& ids() const { return ids_; }
  /// The nodes Warmup ran on: a prefix of ids() (ids are sampled in
  /// random order, so any prefix is a uniform sample).
  std::span<const uint64_t> warmed() const {
    return std::span<const uint64_t>(ids_).first(warm_);
  }

  Status BulkAdd() { return net_.BulkAdd(ids_); }
  void Stabilize() { net_.StabilizeAll(); }

  /// Every one of the first `nodes` ids learns which peer answers each of
  /// its warmup queries.
  Status Warmup(ThreadPool& pool, size_t nodes) {
    warm_ = std::min(nodes, ids_.size());
    const std::vector<uint64_t> warm(warmed().begin(), warmed().end());
    return ex::internal::ParallelWarmup(pool, net_, warm, workload_.queries(),
                                        seeds_.warmup,
                                        config_.warmup_queries_per_node);
  }

  /// Installs top-k auxiliaries on every warmed node.
  Status SelectTopK() {
    installed_.assign(warm_, {});
    for (size_t i = 0; i < warm_; ++i) {
      installed_[i] = TopKByFrequency(
          net_.GetNode(ids_[i])->frequencies.Snapshot(ids_[i]), config_.k);
      if (Status s = net_.SetAuxiliaries(ids_[i], installed_[i]); !s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  /// Writes every warmed node's record into a fresh cache file and syncs.
  Status Persist(const std::string& path, PersistStats& stats) {
    net::PeerCacheConfig cache_config;
    cache_config.slot_count = static_cast<uint32_t>(4 * warm_ + 64);
    cache_config.aux_capacity = static_cast<uint32_t>(config_.k);
    cache_config.freq_capacity = 32;
    cache_config.salt = SplitSeed(config_.seed, 0x70636373);  // "pccs"
    Result<net::PeerCache> created = net::PeerCache::Create(path, cache_config);
    if (!created.ok()) return created.status();
    net::PeerCache cache = std::move(created).value();
    const auto put_start = Clock::now();
    for (size_t i = 0; i < warm_; ++i) {
      net::PeerRecord record;
      record.node_id = ids_[i];
      record.auxiliaries = installed_[i];
      record.frequencies = FrequencyPairs(
          net_.GetNode(ids_[i])->frequencies.Snapshot(ids_[i]));
      if (Status s = cache.Put(record); !s.ok()) return s;
    }
    stats.put_s += SecondsSince(put_start);
    stats.puts += warm_;
    const auto sync_start = Clock::now();
    if (Status s = cache.Sync(); !s.ok()) return s;
    stats.sync_s += SecondsSince(sync_start);
    stats.evictions += cache.stats().evictions;
    return Status::Ok();
  }

  /// `count` jobs with origins drawn uniformly from `origins` and keys from
  /// each origin's popularity list.
  std::vector<ex::LookupJob> DrawJobs(std::span<const uint64_t> origins,
                                      size_t count, uint64_t stream) {
    Rng rng(SplitSeed(seeds_.measure, stream));
    std::vector<ex::LookupJob> jobs(count);
    for (ex::LookupJob& job : jobs) {
      job.origin = origins[static_cast<size_t>(rng.UniformU64(origins.size()))];
      job.key = workload_.queries().SampleKey(job.origin, rng);
    }
    return jobs;
  }

  /// Issues `jobs` as LOOKUP_REQ frames over a fresh bus and folds the DONE
  /// stream, in lookup-id order, into `round`.
  Status Round(ThreadPool& pool, const std::vector<ex::LookupJob>& jobs,
               uint64_t bus_stream, SpanLog& spans, RoundStats& round,
               RoundProbe* probe) {
    const auto start = Clock::now();
    typename net::ActorHost<Net>::Config host_config;
    host_config.faults = &faults_;
    host_config.latency = &latency_;
    net::ActorHost<Net> host(net_, host_config);
    net::BusConfig bus_config;
    bus_config.seed = SplitSeed(config_.seed, bus_stream);
    net::MessageBus bus(bus_config, &pool);
    for (size_t i = 0; i < jobs.size(); ++i) {
      bus.Post(net::kClientAddress, jobs[i].origin, 0.0,
               host.MakeLookupReq(i, jobs[i].origin, jobs[i].key));
    }
    std::vector<net::LookupDone> dones(jobs.size());
    std::vector<bool> seen(jobs.size(), false);
    auto client = [&](const net::Envelope& env) {
      // The client mailbox is one destination, so this runs serially.
      Result<net::AnyMessage> decoded =
          net::Decode(std::span<const uint8_t>(env.payload));
      if (!decoded.ok() ||
          !std::holds_alternative<net::LookupDone>(decoded.value())) {
        return;
      }
      net::LookupDone& done = std::get<net::LookupDone>(decoded.value());
      if (done.lookup_id < dones.size() && !seen[done.lookup_id]) {
        const uint64_t id = done.lookup_id;
        dones[id] = std::move(done);
        seen[id] = true;
      }
    };
    {
      SpanLog::Scope run_span(spans, "bus.run");
      const auto run_start = Clock::now();
      if (probe == nullptr) {
        bus.Run([&](const net::Envelope& env, std::vector<net::Outbound>& out) {
          if (env.dst != net::kClientAddress) {
            host.HandleMessage(env, out);
          } else {
            client(env);
          }
        });
      } else {
        bus.Run([&](const net::Envelope& env, std::vector<net::Outbound>& out) {
          if (env.seq % 64 == 0) probe->corpus.push_back(env.payload);
          const auto t0 = Clock::now();
          if (env.dst != net::kClientAddress) {
            host.HandleMessage(env, out);
            probe->actor_s += SecondsSince(t0);
            ++probe->actor_msgs;
          } else {
            client(env);
            probe->client_s += SecondsSince(t0);
          }
        });
      }
      round.run_s = SecondsSince(run_start);
    }
    round.issued = jobs.size();
    round.bus_posted = bus.posted();
    round.bus_delivered = bus.delivered();
    round.bus_ticks = bus.last_tick();
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!seen[i]) continue;
      ++round.delivered;
      peercache::overlay::RouteResult result;
      if (!net::UnpackDone(dones[i], result, nullptr).ok()) continue;
      ++round.answered;
      round.route_hops += static_cast<uint64_t>(result.hops);
      round.resilience.Accumulate(result);
      round.latency_ms.Add(result.latency_ms);
      if (result.success) {
        ++round.successes;
        round.sum_hops += static_cast<uint64_t>(result.hops);
      }
      round.checksum =
          Fold(round.checksum,
               result.destination ^ (static_cast<uint64_t>(result.hops) << 32));
    }
    round.wall_s = SecondsSince(start);
    return Status::Ok();
  }

  /// Hard-crashes a deterministic `frac` of the warmed nodes through
  /// control-plane LEAVE frames (state forgotten where supported).
  Status Crash(double frac) {
    Rng rng(SplitSeed(config_.seed, 0xdead));
    std::vector<uint64_t> pool(warmed().begin(), warmed().end());
    const size_t n_kill =
        static_cast<size_t>(frac * static_cast<double>(pool.size()));
    killed_.clear();
    for (size_t i = 0; i < n_kill && !pool.empty(); ++i) {
      const size_t pick = static_cast<size_t>(rng.UniformU64(pool.size()));
      killed_.push_back(pool[pick]);
      pool[pick] = pool.back();
      pool.pop_back();
    }
    std::sort(killed_.begin(), killed_.end());
    for (uint64_t id : killed_) {
      if (Status s = Control(net::Leave{id, 1}); !s.ok()) return s;
    }
    return Status::Ok();
  }

  /// Warmed nodes still alive, in warm order.
  std::vector<uint64_t> LiveWarmed() const {
    std::vector<uint64_t> live;
    for (uint64_t id : warmed()) {
      if (net_.IsAlive(id)) live.push_back(id);
    }
    return live;
  }

  /// JOIN frames for every crashed node.
  Status Rejoin() {
    for (uint64_t id : killed_) {
      if (Status s = Control(net::Join{id}); !s.ok()) return s;
    }
    return Status::Ok();
  }

  /// One STABILIZE frame for every live node.
  Status StabilizeFrame() { return Control(net::Stabilize{net::kAllNodes}); }

  /// Reopens the cache file, warms every rejoined node from its record and
  /// audits the recovered auxiliaries against the pre-crash installation.
  Status Restore(const std::string& path, RestoreStats& stats) {
    const auto open_start = Clock::now();
    Result<net::PeerCache> reopened = net::PeerCache::Open(path);
    if (!reopened.ok()) return reopened.status();
    const net::PeerCache cache = std::move(reopened).value();
    stats.open_s += SecondsSince(open_start);
    stats.rejected += cache.stats().rejected;
    std::vector<std::pair<uint64_t, size_t>> index;
    index.reserve(warm_);
    for (size_t i = 0; i < warm_; ++i) index.emplace_back(ids_[i], i);
    std::sort(index.begin(), index.end());
    for (uint64_t id : killed_) {
      net::PeerRecord record;
      const auto get_start = Clock::now();
      const bool found = cache.Get(id, record);
      stats.get_s += SecondsSince(get_start);
      ++stats.gets;
      if (!found) {
        ++stats.cold;
        continue;
      }
      auto* node = net_.GetNode(id);
      node->frequencies.Clear();  // pastry retains state across RemoveNode
      for (const auto& [peer, count] : record.frequencies) {
        node->frequencies.Record(peer, count);
      }
      if (Status s = net_.SetAuxiliaries(id, record.auxiliaries); !s.ok()) {
        return s;
      }
      ++stats.recovered;
      const auto it = std::lower_bound(index.begin(), index.end(),
                                       std::make_pair(id, size_t{0}));
      if (it == index.end() || it->first != id ||
          record.auxiliaries != installed_[it->second]) {
        ++stats.mismatches;
      }
    }
    return Status::Ok();
  }

 private:
  /// Round-trips a control message through the wire format before applying
  /// it, so the control plane exercises Encode/Decode like the data plane.
  Status Control(const net::AnyMessage& msg) {
    Result<net::AnyMessage> decoded =
        net::Decode(std::span<const uint8_t>(net::Encode(msg)));
    if (!decoded.ok()) return decoded.status();
    return net::ActorHost<Net>::ApplyControl(net_, decoded.value());
  }

  ex::ExperimentConfig config_;
  ex::SeedPlan seeds_;
  Net net_;
  std::vector<uint64_t> ids_;
  ex::WorkloadBundle workload_;
  const peercache::fault::FaultPlan faults_;
  const peercache::latency::LatencyModel latency_;
  size_t warm_ = 0;
  std::vector<std::vector<uint64_t>> installed_;
  std::vector<uint64_t> killed_;
};

/// What the layer pass is run on: the configuration of the workload whose
/// traced run it belongs to, so each layer is measured at that workload's
/// size and key distribution.
struct LayerConfig {
  ex::ExperimentConfig config;
  bool sampled_pastry = false;
  bool uniform_keys = false;  ///< Route-probe keys uniform over the id space.
};

/// Measures every layer on fresh overlays built from `lc` and adds the
/// per-layer metrics to report.layer; its correctness gates go to
/// report.gates.
Status RunLayerPass(const LayerConfig& lc, const Options& opt, Report& report);

}  // namespace perf_ledger

#endif  // PERF_LEDGER_FLOW_H_
