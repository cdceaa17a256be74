// The layer pass of a traced run: every layer of the library measured on
// its own, on fresh overlays built from the configuration of the workload
// being traced, so each layer's cost is read at that workload's size and
// key distribution. The traced loop itself gives where the workload's time
// goes (share.*); this pass gives what each layer costs per operation.
// Everything runs on one thread so a layer's time is its own.

#include <algorithm>
#include <cstdio>
#include <string>

#include "flow.h"

namespace perf_ledger {
namespace {

constexpr size_t kWarmNodes = 1024;      ///< Warmed (and selected) nodes.
constexpr size_t kMaintainNodes = 32;
constexpr int kMaintainRounds = 8;
constexpr int kDeltasPerRound = 64;
constexpr size_t kRouteJobs = 8192;
constexpr size_t kRoundLookups = 4096;  ///< Per bus round.
constexpr int kRepeats = 3;             ///< Timing repetitions (median).
constexpr int kWindow = 16;

/// Accumulated across the three overlays.
struct Totals {
  double bus_run_s = 0;
  double handler_s = 0;
  uint64_t bus_delivered = 0;
  uint64_t bus_posted = 0;
  uint64_t bus_ticks = 0;
  uint64_t route_hops = 0;
  uint64_t retries = 0;
  PersistStats persist;
  RestoreStats restore;
  std::vector<double> sync_s;
  std::vector<double> open_s;
  std::vector<std::vector<uint8_t>> corpus;
};

/// One maintainer mutation, drawn before timing.
struct Delta {
  int op = 0;  // 0 leave, 1 join, 2 frequency
  uint64_t id = 0;
  double freq = 0;
};

template <typename P>
Status MeasureOverlay(const LayerConfig& lc, const Options& opt,
                      HwCounters& hw, Totals& totals, Report& report) {
  const std::string ov = P::kName;
  auto add = [&](const std::string& name, const char* unit, double value) {
    report.layer.Add(name + "." + ov, unit, value);
  };
  const ex::ExperimentConfig& config = lc.config;
  Cluster<P> c(config, lc.sampled_pastry);
  auto& net = c.net();

  // Overlay build.
  auto start = Clock::now();
  if (Status s = c.BulkAdd(); !s.ok()) return s;
  add("build.bulk_add_s", "s", SecondsSince(start));
  start = Clock::now();
  c.Stabilize();
  add("build.stabilize_s", "s", SecondsSince(start));
  add("build.bytes_per_node", "B", net.MemoryUsage().bytes_per_node);

  // Routing jobs; their keys also feed the ground-truth resolution probe.
  const std::vector<ex::LookupJob> jobs =
      lc.uniform_keys
          ? UniformJobs(c.ids(), config.bits,
                        SplitSeed(c.seeds().measure, 0x726f757465),
                        kRouteJobs)
          : c.DrawJobs(c.ids(), kRouteJobs, 0x726f757465);  // "route"
  std::vector<uint64_t> keys(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) keys[i] = jobs[i].key;
  std::vector<uint64_t> answers(keys.size());
  std::vector<double> per_key;
  for (int r = 0; r < kRepeats; ++r) {
    start = Clock::now();
    if (Status s = ex::RunBatchedResponsible(net, std::span(keys), kWindow,
                                             std::span(answers));
        !s.ok()) {
      return s;
    }
    per_key.push_back(SecondsSince(start) / static_cast<double>(keys.size()));
  }
  add("warmup.resolve_ns_per_key", "ns", Median(per_key) * 1e9);

  // Warmup: frequency learning on a sample of nodes.
  ThreadPool one(1);
  start = Clock::now();
  if (Status s = c.Warmup(one, kWarmNodes); !s.ok()) return s;
  add("warmup.ns_per_query", "ns",
      SecondsSince(start) * 1e9 /
          static_cast<double>(c.warmed().size() *
                              static_cast<size_t>(
                                  config.warmup_queries_per_node)));

  // Selection: the optimal selector on every warmed node's observed
  // frequencies, and the oblivious one on a few nodes (its input is the
  // whole membership, so its cost grows with n).
  std::vector<double> select_us;
  double peers = 0;
  for (uint64_t id : c.warmed()) {
    peercache::auxsel::SelectionInput input;
    input.bits = config.bits;
    input.self_id = id;
    input.peers = net.GetNode(id)->frequencies.Snapshot(id);
    input.core_ids = net.CoreNeighborIds(id);
    input.k = config.k;
    peers += static_cast<double>(input.peers.size());
    start = Clock::now();
    const Result<peercache::auxsel::Selection> sel = P::SelectOptimal(input);
    select_us.push_back(SecondsSince(start) * 1e6);
    report.Check(sel.ok(), "layer_select_ok", ov + " SelectOptimal failed");
  }
  add("select.optimal_us_p50", "us", Quantile(select_us, 0.5));
  add("select.optimal_us_p99", "us", Quantile(select_us, 0.99));
  add("select.peers_per_node", "count",
      peers / static_cast<double>(c.warmed().size()));
  {
    std::vector<peercache::auxsel::PeerFreq> membership;
    membership.reserve(c.ids().size());
    for (uint64_t id : c.ids()) membership.push_back({id, 0.0, -1});
    const size_t nodes = std::clamp<size_t>(
        (size_t{1} << 22) / c.ids().size(), 8, 64);
    std::vector<double> oblivious_us;
    for (size_t i = 0; i < nodes && i < c.warmed().size(); ++i) {
      const uint64_t id = c.warmed()[i];
      peercache::auxsel::SelectionInput input;
      input.bits = config.bits;
      input.self_id = id;
      for (const auto& p : membership) {
        if (p.id != id) input.peers.push_back(p);
      }
      input.core_ids = net.CoreNeighborIds(id);
      input.k = config.k;
      Rng rng(SplitSeed(c.seeds().selection, id));
      start = Clock::now();
      const Result<peercache::auxsel::Selection> sel =
          P::SelectOblivious(input, rng);
      oblivious_us.push_back(SecondsSince(start) * 1e6);
      report.Check(sel.ok(), "layer_select_ok", ov + " SelectOblivious failed");
    }
    add("select.oblivious_us_p50", "us", Median(oblivious_us));
  }

  // Maintenance: incremental maintainers bootstrapped from warmed nodes,
  // then seeded rounds of join/leave/frequency deltas and a Reselect each.
  {
    double delta_s = 0;
    uint64_t deltas = 0;
    std::vector<double> reselect_us;
    size_t done = 0;
    for (uint64_t id : c.warmed()) {
      if (done == kMaintainNodes) break;
      const std::vector<peercache::auxsel::PeerFreq> snapshot =
          net.GetNode(id)->frequencies.Snapshot(id);
      if (snapshot.size() < static_cast<size_t>(config.k) + 2) continue;
      ++done;
      typename P::Maintainer m = P::MakeMaintainer(config, id);
      std::vector<uint64_t> tracked;
      for (const auto& p : snapshot) {
        if (Status s = m.OnPeerJoin(p.id, p.frequency); !s.ok()) return s;
        tracked.push_back(p.id);
      }
      if (auto cores = m.SetCores(net.CoreNeighborIds(id)); !cores.ok()) {
        return cores.status();
      }
      if (auto sel = m.Reselect(); !sel.ok()) return sel.status();
      Rng rng(SplitSeed(c.seeds().selection ^ id, 0x6d61696e));  // "main"
      for (int round = 0; round < kMaintainRounds; ++round) {
        std::vector<Delta> batch;
        for (int d = 0; d < kDeltasPerRound; ++d) {
          const uint64_t op = rng.UniformU64(8);
          Delta delta;
          if (op == 0 && tracked.size() > static_cast<size_t>(config.k) + 2) {
            const size_t at =
                static_cast<size_t>(rng.UniformU64(tracked.size()));
            delta = {0, tracked[at], 0.0};
            tracked[at] = tracked.back();
            tracked.pop_back();
          } else if (op == 1) {
            const uint64_t peer =
                c.ids()[static_cast<size_t>(rng.UniformU64(c.ids().size()))];
            if (peer == id || std::find(tracked.begin(), tracked.end(),
                                        peer) != tracked.end()) {
              continue;
            }
            delta = {1, peer, 1.0 + static_cast<double>(rng.UniformU64(100))};
            tracked.push_back(peer);
          } else {
            const uint64_t peer =
                tracked[static_cast<size_t>(rng.UniformU64(tracked.size()))];
            delta = {2, peer, 1.0 + static_cast<double>(rng.UniformU64(1000))};
          }
          batch.push_back(delta);
        }
        start = Clock::now();
        for (const Delta& d : batch) {
          Status s = d.op == 0   ? m.OnPeerLeave(d.id)
                     : d.op == 1 ? m.OnPeerJoin(d.id, d.freq)
                                 : m.OnFrequencyDelta(d.id, d.freq);
          if (!s.ok()) return s;
        }
        delta_s += SecondsSince(start);
        deltas += batch.size();
        start = Clock::now();
        const auto sel = m.Reselect();
        reselect_us.push_back(SecondsSince(start) * 1e6);
        if (!sel.ok()) return sel.status();
      }
    }
    report.Check(done > 0, "layer_maintainers_ran",
                 ov + ": no warmed node had enough peers");
    add("maintain.ns_per_delta", "ns",
        deltas == 0 ? 0.0 : delta_s * 1e9 / static_cast<double>(deltas));
    add("maintain.reselect_us", "us", Median(reselect_us));
  }

  // Routing, core tables only (before any auxiliary is installed): the
  // direct loop timed per lookup and as a whole, then the batched engine on
  // the same jobs, whose outcomes must agree.
  {
    peercache::overlay::RouteResult route;
    std::vector<double> per_lookup(jobs.size());
    uint64_t sum = 0, hops = 0, ok = 0, successes = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      const auto t0 = Clock::now();
      const bool routed =
          net.LookupInto(jobs[i].origin, jobs[i].key, route).ok();
      per_lookup[i] = SecondsSince(t0);
      if (!routed) continue;
      ++ok;
      hops += static_cast<uint64_t>(route.hops);
      successes += route.success ? 1 : 0;
      sum = Fold(sum, route.destination ^
                          (static_cast<uint64_t>(route.hops) << 32));
    }
    std::vector<double> direct_s, batched_s;
    std::vector<ex::BatchLookupResult> results(jobs.size());
    for (int r = 0; r < kRepeats; ++r) {
      const bool count = hw.ok() && r == 0;
      if (count) hw.Start();
      start = Clock::now();
      for (const ex::LookupJob& job : jobs) {
        (void)net.LookupInto(job.origin, job.key, route);
      }
      direct_s.push_back(SecondsSince(start));
      if (count) {
        const std::vector<uint64_t> counts = hw.Stop();
        const double n = static_cast<double>(jobs.size());
        add("hw.cycles_per_lookup", "count",
            static_cast<double>(counts[0]) / n);
        add("hw.instructions_per_lookup", "count",
            static_cast<double>(counts[1]) / n);
        add("hw.llc_misses_per_lookup", "count",
            static_cast<double>(counts[2]) / n);
      }
      start = Clock::now();
      ex::RunBatchedLookups(net, std::span<const ex::LookupJob>(jobs), kWindow,
                            std::span<ex::BatchLookupResult>(results));
      batched_s.push_back(SecondsSince(start));
    }
    const ex::BatchSummary batched = ex::FoldChecksum(results);
    report.Check(batched.checksum == sum && batched.sum_hops == hops &&
                     batched.successes == successes && batched.lookups == ok,
                 "layer_batched_equals_direct", ov);
    const double n = static_cast<double>(jobs.size());
    add("route.direct_us_p50", "us", Quantile(per_lookup, 0.5) * 1e6);
    add("route.direct_us_p99", "us", Quantile(per_lookup, 0.99) * 1e6);
    add("route.ns_per_hop", "ns",
        Median(direct_s) * 1e9 / static_cast<double>(hops));
    add("route.batched_ns_per_lookup", "ns", Median(batched_s) * 1e9 / n);
    add("route.batch_speedup", "x", Median(direct_s) / Median(batched_s));
    add("route.hops_mean", "hops", static_cast<double>(hops) / n);
  }

  // Message runtime: install and persist top-k auxiliaries, a healthy and
  // an outage round over the bus, then restart from the peer cache.
  const std::string cache_path = opt.scratch_dir + "/layer-" + ov + ".bin";
  if (Status s = c.SelectTopK(); !s.ok()) return s;
  const double sync_before = totals.persist.sync_s;
  if (Status s = c.Persist(cache_path, totals.persist); !s.ok()) return s;
  totals.sync_s.push_back(totals.persist.sync_s - sync_before);

  SpanLog untraced;
  RoundProbe probe;
  RoundStats rounds[2];
  if (Status s = c.Round(one, c.DrawJobs(c.warmed(), kRoundLookups, 11),
                         0x6c617931, untraced, rounds[0], &probe);
      !s.ok()) {
    return s;
  }
  if (Status s = c.Crash(0.1); !s.ok()) return s;
  if (Status s = c.Round(one, c.DrawJobs(c.LiveWarmed(), kRoundLookups, 12),
                         0x6c617932, untraced, rounds[1], &probe);
      !s.ok()) {
    return s;
  }
  start = Clock::now();
  if (Status s = c.Rejoin(); !s.ok()) return s;
  add("restart.join_s", "s", SecondsSince(start));
  start = Clock::now();
  if (Status s = c.StabilizeFrame(); !s.ok()) return s;
  add("restart.stabilize_s", "s", SecondsSince(start));
  const double open_before = totals.restore.open_s;
  const uint64_t mismatches_before = totals.restore.mismatches;
  if (Status s = c.Restore(cache_path, totals.restore); !s.ok()) return s;
  totals.open_s.push_back(totals.restore.open_s - open_before);
  report.Check(totals.restore.mismatches == mismatches_before,
               "layer_restore_audit", ov);
  std::remove(cache_path.c_str());

  ex::ResilienceStats resilience;
  for (const RoundStats& r : rounds) {
    report.Check(r.DeliveryRate() >= 0.99, "layer_delivery_ge_0.99", ov);
    resilience.Merge(r.resilience);
    totals.bus_run_s += r.run_s;
    totals.bus_delivered += r.bus_delivered;
    totals.bus_posted += r.bus_posted;
    totals.bus_ticks += r.bus_ticks;
    totals.route_hops += r.route_hops;
  }
  totals.retries += resilience.retries;
  totals.handler_s += probe.actor_s + probe.client_s;
  add("actor.handle_ns_per_msg", "ns",
      probe.actor_s * 1e9 / static_cast<double>(probe.actor_msgs));
  add("actor.retries", "count", static_cast<double>(resilience.retries));
  add("actor.stale_forwards", "count",
      static_cast<double>(resilience.stale_forwards));
  add("actor.dropped_forwards", "count",
      static_cast<double>(resilience.dropped_forwards));
  for (auto& frame : probe.corpus) totals.corpus.push_back(std::move(frame));
  return Status::Ok();
}

/// Encode and decode cost per frame type over the corpus of bus payloads,
/// and the CRC-32 the frames are checked with.
void MeasureWire(const std::vector<std::vector<uint8_t>>& corpus,
                 Report& report) {
  static const std::pair<net::MessageType, const char*> kTypes[] = {
      {net::MessageType::kLookupReq, "lookup_req"},
      {net::MessageType::kLookupStep, "lookup_step"},
      {net::MessageType::kLookupDone, "lookup_done"}};
  for (const auto& [type, name] : kTypes) {
    std::vector<const std::vector<uint8_t>*> frames;
    for (const auto& frame : corpus) {
      const Result<net::MessageType> t =
          net::PeekType(std::span<const uint8_t>(frame));
      if (t.ok() && t.value() == type) frames.push_back(&frame);
    }
    report.Check(!frames.empty(), "wire_corpus_covers_types", name);
    if (frames.empty()) continue;
    const double n = static_cast<double>(frames.size());
    std::vector<net::AnyMessage> messages;
    double bytes = 0;
    for (const auto* frame : frames) {
      Result<net::AnyMessage> m = net::Decode(std::span<const uint8_t>(*frame));
      report.Check(m.ok(), "wire_corpus_decodes", name);
      if (m.ok()) messages.push_back(std::move(m).value());
      bytes += static_cast<double>(frame->size());
    }
    std::vector<double> decode_s, encode_s;
    size_t sink = 0;
    for (int r = 0; r < kRepeats; ++r) {
      auto start = Clock::now();
      for (const auto* frame : frames) {
        sink += net::Decode(std::span<const uint8_t>(*frame)).ok() ? 1 : 0;
      }
      decode_s.push_back(SecondsSince(start));
      start = Clock::now();
      for (const net::AnyMessage& m : messages) sink += net::Encode(m).size();
      encode_s.push_back(SecondsSince(start));
    }
    report.Check(sink > 0, "wire_corpus_decodes", name);
    report.layer.Add(std::string("wire.decode_ns.") + name, "ns",
                     Median(decode_s) * 1e9 / n);
    report.layer.Add(std::string("wire.encode_ns.") + name, "ns",
                     Median(encode_s) * 1e9 / static_cast<double>(
                                                  messages.size()));
    report.layer.Add(std::string("wire.bytes.") + name, "B", bytes / n);
  }

  constexpr size_t kKiB = 64;
  constexpr int kPasses = 16;
  std::vector<uint8_t> buffer(kKiB * 1024);
  Rng rng(0x637263);  // "crc"
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextU64());
  std::vector<double> per_kib;
  uint32_t crc = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
      crc = net::Crc32(std::span<const uint8_t>(buffer), crc);
    }
    per_kib.push_back(SecondsSince(start) / (kKiB * kPasses));
  }
  report.Check(crc != 0, "wire_crc_nonzero", "");
  report.layer.Add("wire.crc32_ns_per_kib", "ns", Median(per_kib) * 1e9);
}

}  // namespace

Status RunLayerPass(const LayerConfig& lc, const Options& opt,
                    Report& report) {
  HwCounters hw;
  Totals totals;
  Status s = ForEachOverlay([&]<typename P>() -> Status {
    return MeasureOverlay<P>(lc, opt, hw, totals, report);
  });
  if (!s.ok()) return s;
  MeasureWire(totals.corpus, report);

  const double delivered = static_cast<double>(totals.bus_delivered);
  report.layer.Add("bus.ns_per_msg", "ns", totals.bus_run_s * 1e9 / delivered);
  report.layer.Add("bus.self_ns_per_msg", "ns",
                   (totals.bus_run_s - totals.handler_s) * 1e9 / delivered);
  report.layer.Add("bus.msgs_per_tick", "count",
                   delivered / static_cast<double>(totals.bus_ticks));
  report.layer.Add("bus.ticks", "count",
                   static_cast<double>(totals.bus_ticks));
  report.layer.Add("bus.posted", "count",
                   static_cast<double>(totals.bus_posted));
  report.layer.Add("actor.useful_frac", "ratio",
                   static_cast<double>(totals.route_hops) /
                       static_cast<double>(totals.route_hops + totals.retries));

  const PersistStats& p = totals.persist;
  const RestoreStats& r = totals.restore;
  report.layer.Add("cache.put_us", "us",
                   p.put_s * 1e6 / static_cast<double>(p.puts));
  report.layer.Add("cache.sync_ms", "ms", Median(totals.sync_s) * 1e3);
  report.layer.Add("cache.open_ms", "ms", Median(totals.open_s) * 1e3);
  report.layer.Add("cache.get_ns", "ns",
                   r.get_s * 1e9 / static_cast<double>(r.gets));
  report.layer.Add("cache.evictions", "count",
                   static_cast<double>(p.evictions));
  report.layer.Add("cache.rejected", "count", static_cast<double>(r.rejected));
  report.layer.Add("cache.warm_restores", "count",
                   static_cast<double>(r.recovered));
  return Status::Ok();
}

}  // namespace perf_ledger
