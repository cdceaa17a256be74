// cluster_actor: the repo's message-driven cluster runtime re-composed for
// each overlay. Build, warm every actor's frequency table, install and
// persist top-k auxiliaries to the PeerCache, then three rounds of lookups
// over the MessageBus under light faults and the latency model: healthy,
// with 10% of the actors crashed, and after they restart warm from the
// cache. Wire, bus, actor and peer-cache work dominate; routing runs at an
// in-cache n. It also exposes each overlay's control plane (Pastry's exact
// row fill in build and in the restart stabilization).

#include <cstdio>
#include <string>

#include "flow.h"

namespace perf_ledger {

std::vector<uint64_t> TopKByFrequency(
    std::vector<peercache::auxsel::PeerFreq> snapshot, int k) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs =
      FrequencyPairs(std::move(snapshot));
  if (pairs.size() > static_cast<size_t>(k)) {
    pairs.resize(static_cast<size_t>(k));
  }
  std::vector<uint64_t> out;
  out.reserve(pairs.size());
  for (const auto& p : pairs) out.push_back(p.first);
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> FrequencyPairs(
    std::vector<peercache::auxsel::PeerFreq> snapshot) {
  std::sort(snapshot.begin(), snapshot.end(),
            [](const peercache::auxsel::PeerFreq& a,
               const peercache::auxsel::PeerFreq& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.id < b.id;
            });
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(snapshot.size());
  for (const peercache::auxsel::PeerFreq& p : snapshot) {
    out.emplace_back(p.id, static_cast<uint64_t>(p.frequency));
  }
  return out;
}

peercache::fault::FaultConfig ClusterFaults(uint64_t seed) {
  peercache::fault::FaultConfig faults;
  faults.drop_prob = 0.02;
  faults.stale_prob = 0.5;
  faults.max_retries = 4;
  faults.seed = SplitSeed(seed, 0x666c74);  // "flt"
  return faults;
}

peercache::latency::LatencyConfig ClusterLatency(uint64_t seed) {
  peercache::latency::LatencyConfig latency;
  latency.base_rtt_ms = 12.0;
  latency.coord_scale_ms = 40.0;
  latency.jitter_ms = 3.0;
  latency.timeout_ms = 50.0;
  latency.seed = SplitSeed(seed, 0x6c6174);  // "lat"
  return latency;
}

namespace {

constexpr int kActors = 4000;
constexpr size_t kLookupsPerRound = 20000;
constexpr double kKillFrac = 0.1;

ex::ExperimentConfig ClusterConfig(const Options& opt) {
  ex::ExperimentConfig config;
  config.n_nodes = kActors;
  config.k = 10;
  // Five popularity lists instead of one shared ranking, so hop counts do
  // not hinge on where a handful of hot items land for one seed.
  config.n_popularity_lists = 5;
  config.seed = opt.seed;
  config.threads = opt.threads;
  return config;
}

}  // namespace

Status RunClusterActor(const Options& opt, Report& report, SpanLog& spans) {
  const ex::ExperimentConfig config = ClusterConfig(opt);
  ThreadPool pool(opt.threads);
  Status st = RunUnits(opt, 3, report, spans, [&](uint64_t, bool traced) {
    std::map<std::string, std::string> det;
    double setup_s = 0, issued = 0, successes = 0, hops = 0;
    peercache::LogHistogram latency;
    Status s = ForEachOverlay([&]<typename P>() -> Status {
      const std::string cache_path =
          opt.scratch_dir + "/cluster-" + P::kName + ".bin";
      const auto setup_start = Clock::now();
      Cluster<P> c(config, false);
      {
        SpanLog::Scope span(spans, "build.bulk_add");
        if (Status b = c.BulkAdd(); !b.ok()) return b;
      }
      {
        SpanLog::Scope span(spans, "build.stabilize");
        c.Stabilize();
      }
      {
        SpanLog::Scope span(spans, "warmup.parallel");
        if (Status w = c.Warmup(pool, c.ids().size()); !w.ok()) return w;
      }
      {
        SpanLog::Scope span(spans, "select.topk");
        if (Status t = c.SelectTopK(); !t.ok()) return t;
      }
      PersistStats persist;
      {
        SpanLog::Scope span(spans, "cache.persist");
        if (Status p = c.Persist(cache_path, persist); !p.ok()) return p;
      }
      setup_s += SecondsSince(setup_start);

      RoundStats rounds[3];
      auto round = [&](int r, const char* name,
                       std::span<const uint64_t> origins,
                       uint64_t bus_stream) -> Status {
        const std::vector<ex::LookupJob> jobs = c.DrawJobs(
            origins, kLookupsPerRound, static_cast<uint64_t>(r + 1));
        SpanLog::Scope span(spans, name);
        return c.Round(pool, jobs, bus_stream, spans, rounds[r], nullptr);
      };
      if (Status r = round(0, "client.round_healthy", c.ids(), 0x627573);
          !r.ok()) {
        return r;
      }
      {
        SpanLog::Scope span(spans, "restart.crash");
        if (Status k = c.Crash(kKillFrac); !k.ok()) return k;
      }
      const std::vector<uint64_t> live = c.LiveWarmed();
      if (Status r = round(1, "client.round_outage", live, 0x62757333);
          !r.ok()) {
        return r;
      }
      {
        SpanLog::Scope span(spans, "restart.join");
        if (Status j = c.Rejoin(); !j.ok()) return j;
      }
      {
        SpanLog::Scope span(spans, "restart.stabilize");
        if (Status z = c.StabilizeFrame(); !z.ok()) return z;
      }
      RestoreStats restore;
      {
        SpanLog::Scope span(spans, "cache.restore");
        if (Status w = c.Restore(cache_path, restore); !w.ok()) return w;
      }
      if (Status r = round(2, "client.round_recovered", c.ids(), 0x62757334);
          !r.ok()) {
        return r;
      }
      std::remove(cache_path.c_str());

      report.Check(restore.mismatches == 0, "restore_audit",
                   std::string(P::kName) + ": " +
                       std::to_string(restore.mismatches) +
                       " recovered auxiliary sets differ from the pre-crash "
                       "installation");
      uint64_t checksum = Fold(restore.recovered, restore.cold);
      for (const RoundStats& r : rounds) {
        report.Check(r.DeliveryRate() >= 0.99, "delivery_ge_0.99",
                     std::string(P::kName) + " delivery " +
                         std::to_string(r.DeliveryRate()));
        checksum = Fold(checksum, r.checksum);
        issued += static_cast<double>(r.issued);
        successes += static_cast<double>(r.successes);
        hops += static_cast<double>(r.sum_hops);
        latency.Merge(r.latency_ms);
        report.attempted += r.issued;
        report.failed += r.issued - r.answered;
        if (!traced) {
          report.e2e.Add(std::string("lookups_per_s.") + P::kName, "1/s",
                         static_cast<double>(r.delivered) / r.wall_s);
          report.e2e.Add("messages_per_s", "1/s",
                         static_cast<double>(r.bus_delivered) / r.wall_s);
        }
      }
      det[std::string("checksum.") + P::kName] = HexText(checksum);
      return Status::Ok();
    });
    if (!s.ok()) return s;
    det["mean_hops"] = ExactText(hops / successes);
    det["delivered_frac"] = ExactText(successes / issued);
    det["sim_latency_ms_p99"] = ExactText(latency.Percentile(0.99));
    report.Repeat(det);
    if (!traced) {
      report.e2e.Add("setup_s", "s", setup_s);
      report.e2e.Add("mean_hops", "hops", hops / successes);
      report.e2e.Add("delivered_frac", "ratio", successes / issued);
    }
    return Status::Ok();
  });
  if (!st.ok() || !opt.trace) return st;
  AddTraceMetrics(spans, {"bus"}, {"bus", "client"}, report);
  LayerConfig lc;
  lc.config = config;
  return RunLayerPass(lc, opt, report);
}

}  // namespace perf_ledger
