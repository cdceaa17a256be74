// Message-driven cluster runtime (docs/RUNTIME.md): the end-to-end gate for
// the wire protocol + bus + actor + persistent peer-cache stack. One process
// hosts an n-actor overlay cluster on the MessageBus, drives a Zipf lookup
// workload through framed LOOKUP_REQ/STEP/DONE chains, hard-crashes a
// fraction of the actors (control-plane LEAVE frames, state forgotten where
// the overlay supports it), keeps serving during the outage, then restarts
// the crashed actors warm from the crash-safe PeerCache file and audits that
// the recovered auxiliary state is byte-identical to what was persisted
// before the crash.
//
// Exit gates (CI cluster-smoke):
//   * every round's delivery rate (DONE frames received / lookups issued)
//     must be >= 0.99;
//   * the post-restart selection audit must find zero mismatches between
//     each recovered actor's installed auxiliaries and its pre-crash state.
//
// Telemetry: one schema-versioned JSON document with `resilience` and
// `latency` blocks. Every field except the `timing` sub-object is a pure
// function of (seed, config) at any thread count — strip `timing` (like
// phase_seconds elsewhere) and diff runs byte for byte.
//
//   cluster_runtime [--system chord|pastry|kademlia] [--n N] [--lookups M]
//                   [--kill-frac F] [--cache-file PATH] [--quick]
//                   [--threads T] [--seed S] [--json-out FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/latency.h"
#include "common/random.h"
#include "common/stats.h"
#include "experiments/generic_experiment.h"
#include "experiments/json_report.h"
#include "experiments/overlay_policy.h"
#include "experiments/parallel_engine.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/peer_cache.h"
#include "net/wire.h"

namespace peercache {
namespace {

using experiments::ExperimentConfig;
using experiments::SeedPlan;

struct ClusterArgs {
  std::string system = "chord";
  int n = 10000;
  int lookups = 0;  // per round; 0 = one per actor
  double kill_frac = 0.1;
  std::string cache_file = "cluster_runtime_cache.bin";
};

/// Outcome of one lookup round driven over the bus.
struct RoundStats {
  std::string name;
  uint64_t issued = 0;
  uint64_t delivered = 0;  ///< DONE frames that reached the client mailbox
  uint64_t successes = 0;  ///< routes delivered at the responsible node
  uint64_t sum_hops = 0;   ///< over successful routes
  uint64_t checksum = 0;   ///< folded in lookup-id order
  uint64_t bus_posted = 0;
  uint64_t bus_delivered = 0;
  uint64_t bus_ticks = 0;

  double DeliveryRate() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(issued);
  }
  double SuccessRate() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(successes) /
                             static_cast<double>(issued);
  }
  double AvgHops() const {
    return successes == 0 ? 0.0
                          : static_cast<double>(sum_hops) /
                                static_cast<double>(successes);
  }
};

struct RecoveryStats {
  uint64_t killed = 0;
  uint64_t recovered = 0;      ///< warm restarts served from the cache file
  uint64_t cold_restarts = 0;  ///< record evicted or torn; rejoined empty
  uint64_t audited = 0;
  uint64_t aux_mismatches = 0;
  uint64_t restored_observations = 0;  ///< frequency weight replayed
};

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// Round-trips a control message through the wire format before applying
/// it, so the control plane exercises Encode/Decode like the data plane.
template <typename Net>
Status ApplyControlFrame(Net& net, const net::AnyMessage& msg) {
  Result<net::AnyMessage> decoded =
      net::Decode(std::span<const uint8_t>(net::Encode(msg)));
  if (!decoded.ok()) return decoded.status();
  return net::ActorHost<Net>::ApplyControl(net, decoded.value());
}

/// Issues `origins.size()` lookups over a fresh bus and folds the DONE
/// stream, in lookup-id order, into round telemetry plus the run-wide
/// resilience and latency accumulators.
template <typename Net>
Status RunLookupRound(const Net& net, const std::string& name,
                      const std::vector<std::pair<uint64_t, uint64_t>>& jobs,
                      const fault::FaultPlan& faults,
                      const latency::LatencyModel& latency, int threads,
                      uint64_t bus_seed, experiments::ResilienceStats& res,
                      LogHistogram& latency_hist, RoundStats& round) {
  typename net::ActorHost<Net>::Config host_config;
  host_config.faults = &faults;
  host_config.latency = &latency;
  net::ActorHost<Net> host(net, host_config);

  ThreadPool pool(threads);
  net::BusConfig bus_config;
  bus_config.seed = bus_seed;
  net::MessageBus bus(bus_config, &pool);
  for (size_t i = 0; i < jobs.size(); ++i) {
    bus.Post(net::kClientAddress, jobs[i].first, 0.0,
             host.MakeLookupReq(i, jobs[i].first, jobs[i].second));
  }
  std::vector<net::LookupDone> dones(jobs.size());
  std::vector<bool> seen(jobs.size(), false);
  bus.Run([&](const net::Envelope& env, std::vector<net::Outbound>& out) {
    if (env.dst != net::kClientAddress) {
      host.HandleMessage(env, out);
      return;
    }
    // The client mailbox is one destination, so this branch runs serially.
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
  });

  round.name = name;
  round.issued = jobs.size();
  round.bus_posted = bus.posted();
  round.bus_delivered = bus.delivered();
  round.bus_ticks = bus.last_tick();
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!seen[i]) continue;
    ++round.delivered;
    overlay::RouteResult result;
    if (!net::UnpackDone(dones[i], result, nullptr).ok()) continue;
    res.Accumulate(result);
    latency_hist.Add(result.latency_ms);
    if (result.success) {
      ++round.successes;
      round.sum_hops += static_cast<uint64_t>(result.hops);
    }
    round.checksum =
        MixHash64(round.checksum ^ result.destination ^
                  (static_cast<uint64_t>(result.hops) << 32));
  }
  return Status::Ok();
}

/// Draws one round's (origin, key) jobs: origins uniformly from `origins`,
/// keys from the node's Zipf list.
std::vector<std::pair<uint64_t, uint64_t>> DrawJobs(
    workload::QueryWorkload& queries, const std::vector<uint64_t>& origins,
    size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> jobs(count);
  for (auto& job : jobs) {
    job.first = origins[static_cast<size_t>(rng.UniformU64(origins.size()))];
    job.second = queries.SampleKey(job.first, rng);
  }
  return jobs;
}

/// Top-k-by-observed-frequency auxiliary choice (count desc, id asc) — the
/// deterministic selection the runtime persists and audits. The full
/// cost-model selectors stay on the simulator path; the runtime needs a
/// selection that is a pure function of the frequency table so the
/// post-restart audit has an exact target.
std::vector<uint64_t> TopKByFrequency(
    const auxsel::FrequencyTable& frequencies, uint64_t self, int k) {
  std::vector<auxsel::PeerFreq> snapshot = frequencies.Snapshot(self);
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auxsel::PeerFreq& a, const auxsel::PeerFreq& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.id < b.id;
            });
  if (snapshot.size() > static_cast<size_t>(k)) {
    snapshot.resize(static_cast<size_t>(k));
  }
  std::vector<uint64_t> out;
  out.reserve(snapshot.size());
  for (const auxsel::PeerFreq& p : snapshot) out.push_back(p.id);
  return out;
}

/// Sorted (count desc, id asc) frequency pairs for one persisted record.
std::vector<std::pair<uint64_t, uint64_t>> FrequencyPairs(
    const auxsel::FrequencyTable& frequencies, uint64_t self) {
  std::vector<auxsel::PeerFreq> snapshot = frequencies.Snapshot(self);
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auxsel::PeerFreq& a, const auxsel::PeerFreq& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.id < b.id;
            });
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(snapshot.size());
  for (const auxsel::PeerFreq& p : snapshot) {
    out.emplace_back(p.id, static_cast<uint64_t>(p.frequency));
  }
  return out;
}

/// The runtime's deterministic network conditions, seeded from the run's
/// seed: a light fault plan (so routes exercise retries and stale-entry
/// eviction during the outage) and the latency model that doubles as the
/// bus delivery clock. The shared fault and latency flags override these
/// field by field.
bench::BenchArgs DefaultNetworkConditions(uint64_t seed) {
  bench::BenchArgs args;
  args.faults.drop_prob = 0.02;
  args.faults.stale_prob = 0.5;
  args.faults.max_retries = 4;
  args.faults.seed = SplitSeed(seed, 0x666c74);  // "flt"
  args.latency.base_rtt_ms = 12.0;
  args.latency.coord_scale_ms = 40.0;
  args.latency.jitter_ms = 3.0;
  args.latency.timeout_ms = 50.0;
  args.latency.seed = SplitSeed(seed, 0x6c6174);  // "lat"
  return args;
}

/// The run: build + warmup + select + persist, three lookup rounds around a
/// crash/restart cycle, recovery audit, JSON document. Returns false when an
/// exit gate failed.
template <typename Policy>
bool RunCluster(const bench::BenchArgs& bench_args, const ClusterArgs& cargs,
                std::string& json_doc) {
  using Net = typename Policy::Network;
  const auto t_start = std::chrono::steady_clock::now();

  ExperimentConfig config;
  config.n_nodes = cargs.n;
  config.k = 10;
  config.seed = bench_args.base_seed;
  config.threads = bench_args.threads;
  const SeedPlan seeds = Policy::MakeSeedPlan(config.seed);

  Net net = Policy::MakeNetwork(config, seeds);
  const std::vector<uint64_t> ids =
      experiments::SampleNodeIds(config, seeds.ids);
  if (Status st = net.BulkAdd(ids); !st.ok()) {
    std::fprintf(stderr, "BulkAdd failed: %s\n", st.ToString().c_str());
    return false;
  }
  net.StabilizeAll();
  const double build_seconds = Seconds(t_start);

  // Warmup: every actor learns its query-answering peers (each item
  // resolved once, then per-actor draws; byte-identical at any thread
  // count).
  const auto t_warm = std::chrono::steady_clock::now();
  const int threads = bench_args.threads <= 0 ? 1 : bench_args.threads;
  experiments::WorkloadBundle workload(config, seeds, ids);
  {
    ThreadPool pool(threads);
    Status st = experiments::internal::ParallelWarmup(
        pool, net, ids, workload.queries(), seeds.warmup,
        config.warmup_queries_per_node);
    if (!st.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n", st.ToString().c_str());
      return false;
    }
  }

  // Select + persist: install top-k auxiliaries and write every actor's
  // record (auxiliaries + the frequency observations that produced them)
  // into the crash-safe cache file.
  net::PeerCacheConfig cache_config;
  cache_config.slot_count = static_cast<uint32_t>(4 * cargs.n + 64);
  cache_config.aux_capacity = static_cast<uint32_t>(config.k);
  cache_config.freq_capacity = 32;
  cache_config.salt = SplitSeed(config.seed, 0x70636373);  // "pccs"
  std::vector<std::vector<uint64_t>> installed(ids.size());
  {
    // The writer closes at the end of this block: the file has one writer
    // at a time, and the restart below reopens it.
    Result<net::PeerCache> cache_result =
        net::PeerCache::Create(cargs.cache_file, cache_config);
    if (!cache_result.ok()) {
      std::fprintf(stderr, "PeerCache::Create failed: %s\n",
                   cache_result.status().ToString().c_str());
      return false;
    }
    net::PeerCache cache = std::move(cache_result).value();
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto* node = net.GetNode(ids[i]);
      installed[i] = TopKByFrequency(node->frequencies, ids[i], config.k);
      if (Status st = net.SetAuxiliaries(ids[i], installed[i]); !st.ok()) {
        std::fprintf(stderr, "SetAuxiliaries failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
      net::PeerRecord record;
      record.node_id = ids[i];
      record.auxiliaries = installed[i];
      record.frequencies = FrequencyPairs(node->frequencies, ids[i]);
      if (Status st = cache.Put(record); !st.ok()) {
        std::fprintf(stderr, "PeerCache::Put failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
    }
    if (Status st = cache.Sync(); !st.ok()) {
      std::fprintf(stderr, "PeerCache::Sync failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
  }
  const double warmup_seconds = Seconds(t_warm);

  // The fault plan and latency model: DefaultNetworkConditions with the
  // command line's fault and latency flags applied over it.
  const fault::FaultPlan faults(bench_args.faults);
  const latency::LatencyModel latency(bench_args.latency);

  const size_t lookups_per_round =
      cargs.lookups > 0 ? static_cast<size_t>(cargs.lookups) : ids.size();
  experiments::ResilienceStats resilience;
  LogHistogram latency_hist;
  std::vector<RoundStats> rounds(3);

  // Round 1: healthy cluster.
  const auto t_rounds = std::chrono::steady_clock::now();
  Status st = RunLookupRound(net, "healthy",
                             DrawJobs(workload.queries(), ids,
                                      lookups_per_round,
                                      SplitSeed(seeds.measure, 1)),
                             faults, latency, threads,
                             SplitSeed(config.seed, 0x627573),  // "bus"
                             resilience, latency_hist, rounds[0]);
  if (!st.ok()) return false;

  // Hard crash: a deterministic kill set leaves over control-plane frames,
  // forgetting its in-memory state (frequencies and tables). No
  // stabilization yet — survivors route over tables that still name the
  // dead, exactly the stale-entry regime the resilient path is for.
  RecoveryStats recovery;
  std::vector<uint64_t> killed;
  {
    Rng rng(SplitSeed(config.seed, 0xdead));
    std::vector<uint64_t> pool_ids = ids;
    const size_t n_kill =
        static_cast<size_t>(cargs.kill_frac *
                            static_cast<double>(pool_ids.size()));
    for (size_t i = 0; i < n_kill && !pool_ids.empty(); ++i) {
      const size_t pick =
          static_cast<size_t>(rng.UniformU64(pool_ids.size()));
      killed.push_back(pool_ids[pick]);
      pool_ids[pick] = pool_ids.back();
      pool_ids.pop_back();
    }
    std::sort(killed.begin(), killed.end());
    for (uint64_t id : killed) {
      if (Status s = ApplyControlFrame(net, net::Leave{id, 1}); !s.ok()) {
        std::fprintf(stderr, "LEAVE failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
  }
  recovery.killed = killed.size();

  // Round 2: outage — lookups from the survivors while the dead linger in
  // every routing table.
  st = RunLookupRound(net, "outage",
                      DrawJobs(workload.queries(), net.LiveNodeIds(),
                               lookups_per_round, SplitSeed(seeds.measure, 2)),
                      faults, latency, threads,
                      SplitSeed(config.seed, 0x62757333),
                      resilience, latency_hist, rounds[1]);
  if (!st.ok()) return false;

  // Restart: rejoin every crashed actor (control-plane JOIN), stabilize the
  // cluster, then warm the rejoined actors from the cache file and audit
  // the recovered state against what was installed before the crash.
  for (uint64_t id : killed) {
    if (Status s = ApplyControlFrame(net, net::Join{id}); !s.ok()) {
      std::fprintf(stderr, "JOIN failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  if (Status s = ApplyControlFrame(net, net::Stabilize{net::kAllNodes});
      !s.ok()) {
    std::fprintf(stderr, "STABILIZE failed: %s\n", s.ToString().c_str());
    return false;
  }
  // id -> position in `ids` (sample order), for the audit against the
  // pre-crash installation.
  std::vector<std::pair<uint64_t, size_t>> id_index;
  id_index.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) id_index.emplace_back(ids[i], i);
  std::sort(id_index.begin(), id_index.end());
  Result<net::PeerCache> reopened = net::PeerCache::Open(cargs.cache_file);
  if (!reopened.ok()) {
    std::fprintf(stderr, "PeerCache::Open failed: %s\n",
                 reopened.status().ToString().c_str());
    return false;
  }
  const net::PeerCache recovered_cache = std::move(reopened).value();
  for (uint64_t id : killed) {
    net::PeerRecord record;
    if (!recovered_cache.Get(id, record)) {
      ++recovery.cold_restarts;  // evicted by a slot collision at persist
      continue;
    }
    auto* node = net.GetNode(id);
    for (const auto& [peer, count] : record.frequencies) {
      node->frequencies.Record(peer, count);
      recovery.restored_observations += count;
    }
    if (Status s = net.SetAuxiliaries(id, record.auxiliaries); !s.ok()) {
      std::fprintf(stderr, "recovery SetAuxiliaries failed: %s\n",
                   s.ToString().c_str());
      return false;
    }
    ++recovery.recovered;
    // Selection audit: the recovered auxiliaries must equal the pre-crash
    // installation byte for byte (disk round trip changed nothing).
    const auto it = std::lower_bound(
        id_index.begin(), id_index.end(),
        std::make_pair(id, size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    ++recovery.audited;
    if (it == id_index.end() || it->first != id ||
        record.auxiliaries != installed[it->second]) {
      ++recovery.aux_mismatches;
    }
  }

  // Round 3: recovered cluster, full membership again.
  st = RunLookupRound(net, "recovered",
                      DrawJobs(workload.queries(), ids, lookups_per_round,
                               SplitSeed(seeds.measure, 3)),
                      faults, latency, threads,
                      SplitSeed(config.seed, 0x62757334),
                      resilience, latency_hist, rounds[2]);
  if (!st.ok()) return false;
  const double rounds_seconds = Seconds(t_rounds);

  // Exit gates.
  bool ok = true;
  for (const RoundStats& r : rounds) {
    if (r.DeliveryRate() < 0.99) {
      std::fprintf(stderr, "GATE FAILED: round %s delivery %.4f < 0.99\n",
                   r.name.c_str(), r.DeliveryRate());
      ok = false;
    }
  }
  if (recovery.aux_mismatches != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: %llu recovered auxiliary sets differ from "
                 "their pre-crash state\n",
                 static_cast<unsigned long long>(recovery.aux_mismatches));
    ok = false;
  }

  // Telemetry document.
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(experiments::kTelemetrySchemaVersion);
  w.Key("generator");
  w.String("cluster_runtime");
  w.Key("kind");
  w.String("cluster_runtime");
  w.Key("system");
  w.String(Policy::kName);
  w.Key("config");
  w.BeginObject();
  w.Key("n_nodes");
  w.Int(config.n_nodes);
  w.Key("bits");
  w.Int(config.bits);
  w.Key("k");
  w.Int(config.k);
  w.Key("seed");
  w.UInt(config.seed);
  w.Key("warmup_queries_per_node");
  w.Int(config.warmup_queries_per_node);
  w.Key("lookups_per_round");
  w.UInt(lookups_per_round);
  w.Key("kill_fraction");
  w.Double(cargs.kill_frac);
  w.Key("fault_drop");
  w.Double(bench_args.faults.drop_prob);
  w.Key("fault_stale");
  w.Double(bench_args.faults.stale_prob);
  w.Key("latency_base_ms");
  w.Double(bench_args.latency.base_rtt_ms);
  w.Key("cache_slots");
  w.UInt(cache_config.slot_count);
  w.Key("cache_aux_capacity");
  w.UInt(cache_config.aux_capacity);
  w.Key("cache_freq_capacity");
  w.UInt(cache_config.freq_capacity);
  w.EndObject();
  w.Key("actors");
  w.UInt(ids.size());
  w.Key("rounds");
  w.BeginArray();
  for (const RoundStats& r : rounds) {
    w.BeginObject();
    w.Key("name");
    w.String(r.name);
    w.Key("lookups");
    w.UInt(r.issued);
    w.Key("delivered");
    w.UInt(r.delivered);
    w.Key("delivery_rate");
    w.Double(r.DeliveryRate());
    w.Key("success_rate");
    w.Double(r.SuccessRate());
    w.Key("avg_hops");
    w.Double(r.AvgHops());
    w.Key("checksum");
    w.UInt(r.checksum);
    w.Key("bus");
    w.BeginObject();
    w.Key("posted");
    w.UInt(r.bus_posted);
    w.Key("delivered");
    w.UInt(r.bus_delivered);
    w.Key("ticks");
    w.UInt(r.bus_ticks);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("resilience");
  experiments::WriteResilienceJson(w, resilience);
  w.Key("latency");
  experiments::WriteLatencyJson(w, latency_hist);
  w.Key("recovery");
  w.BeginObject();
  w.Key("killed");
  w.UInt(recovery.killed);
  w.Key("recovered_from_cache");
  w.UInt(recovery.recovered);
  w.Key("cold_restarts");
  w.UInt(recovery.cold_restarts);
  w.Key("audited");
  w.UInt(recovery.audited);
  w.Key("aux_mismatches");
  w.UInt(recovery.aux_mismatches);
  w.Key("restored_observations");
  w.UInt(recovery.restored_observations);
  w.Key("cache_used");
  w.UInt(recovered_cache.stats().used);
  w.Key("cache_rejected");
  w.UInt(recovered_cache.stats().rejected);
  w.EndObject();
  // Wall-clock: the one non-deterministic sub-object. Byte-diff tooling
  // strips it, like phase_seconds elsewhere.
  w.Key("timing");
  w.BeginObject();
  w.Key("build_seconds");
  w.Double(build_seconds);
  w.Key("warmup_seconds");
  w.Double(warmup_seconds);
  w.Key("rounds_seconds");
  w.Double(rounds_seconds);
  w.EndObject();
  w.EndObject();
  json_doc = w.TakeString();

  std::printf("cluster_runtime system=%s actors=%zu threads=%d\n",
              Policy::kName, ids.size(), threads);
  for (const RoundStats& r : rounds) {
    std::printf(
        "  round %-9s lookups=%llu delivery=%.4f success=%.4f "
        "avg_hops=%.3f checksum=%016llx\n",
        r.name.c_str(), static_cast<unsigned long long>(r.issued),
        r.DeliveryRate(), r.SuccessRate(), r.AvgHops(),
        static_cast<unsigned long long>(r.checksum));
  }
  std::printf(
      "  recovery killed=%llu warm=%llu cold=%llu audit_mismatches=%llu\n",
      static_cast<unsigned long long>(recovery.killed),
      static_cast<unsigned long long>(recovery.recovered),
      static_cast<unsigned long long>(recovery.cold_restarts),
      static_cast<unsigned long long>(recovery.aux_mismatches));
  std::printf("  %s\n", ok ? "GATES PASSED" : "GATES FAILED");
  return ok;
}

}  // namespace
}  // namespace peercache

int main(int argc, char** argv) {
  using namespace peercache;
  // Split off this binary's own flags, hand the rest to BenchArgs.
  ClusterArgs cargs;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--system") == 0 && i + 1 < argc) {
      cargs.system = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      cargs.n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--lookups") == 0 && i + 1 < argc) {
      cargs.lookups = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-frac") == 0 && i + 1 < argc) {
      cargs.kill_frac = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-file") == 0 && i + 1 < argc) {
      cargs.cache_file = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  // One seed per run, no route traces, no ping matrix and no profile block.
  constexpr std::string_view kRefused[] = {"--seeds", "--trace-",
                                           "--latency-matrix", "--profile"};
  const int rest_argc = static_cast<int>(rest.size());
  // The default network conditions derive their seeds from --seed, so read
  // that first; every given fault or latency flag then overrides its own
  // field of those defaults.
  const uint64_t seed =
      bench::BenchArgs::Parse(rest_argc, rest.data(), kRefused).base_seed;
  bench::BenchArgs args = bench::BenchArgs::Parse(
      rest_argc, rest.data(), kRefused, DefaultNetworkConditions(seed));
  if (args.quick && cargs.n == 10000) cargs.n = 1000;
  // A kill fraction of 1 would leave the outage round no origin to draw.
  if (!(cargs.kill_frac >= 0.0 && cargs.kill_frac < 1.0)) {
    std::fprintf(stderr, "--kill-frac must be in [0, 1), got %g\n",
                 cargs.kill_frac);
    return 2;
  }
  if (cargs.n < 1) {
    std::fprintf(stderr, "--n must be at least 1, got %d\n", cargs.n);
    return 2;
  }

  std::string json_doc;
  bool ok = false;
  if (cargs.system == "chord") {
    ok = RunCluster<experiments::ChordPolicy>(args, cargs, json_doc);
  } else if (cargs.system == "pastry") {
    ok = RunCluster<experiments::PastryPolicy>(args, cargs, json_doc);
  } else if (cargs.system == "kademlia") {
    ok = RunCluster<experiments::KademliaPolicy>(args, cargs, json_doc);
  } else {
    std::fprintf(stderr, "unknown --system %s\n", cargs.system.c_str());
    return 2;
  }
  if (!json_doc.empty() && !args.json_out.empty()) {
    Status st = experiments::WriteStringToFile(args.json_out, json_doc);
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
