// route_scale: routing and build at a size where the overlays' routing
// state stops fitting the caches unevenly. At n = 2^17 Kademlia's arena
// (about 3.1 KB/node, about 400 MB) exceeds the 300 MB last-level cache
// while Chord and Pastry (about 1 KB/node, about 130 MB) fit, so per-hop
// compute and cache-miss cost separate. No auxiliaries, no selection and
// no message runtime: only BulkAdd/StabilizeAll and the two routing paths,
// the direct LookupInto loop and the window-16 batched engine, on
// identical jobs whose outcomes must agree. Single-threaded; one overlay
// is alive at a time to bound memory.

#include <string>

#include "flow.h"

namespace perf_ledger {
namespace {

constexpr int kLog2Nodes = 17;
constexpr size_t kBlocks = 16;
constexpr size_t kBlockLookups = 1024;
constexpr int kWindow = 16;

ex::ExperimentConfig ScaleConfig(const Options& opt) {
  ex::ExperimentConfig config;
  config.n_nodes = 1 << kLog2Nodes;
  config.alpha = 0.0;  // the layer pass's warmup keys: uniform items
  config.n_items = 32768;
  config.seed = opt.seed;
  config.threads = 1;
  return config;
}

}  // namespace

std::vector<ex::LookupJob> UniformJobs(const std::vector<uint64_t>& ids,
                                       int bits, uint64_t seed, size_t count) {
  Rng rng(seed);
  const uint64_t space = uint64_t{1} << bits;
  std::vector<ex::LookupJob> jobs(count);
  for (ex::LookupJob& job : jobs) {
    job.origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    job.key = rng.UniformU64(space);
  }
  return jobs;
}

Status RunRouteScale(const Options& opt, Report& report, SpanLog& spans) {
  const ex::ExperimentConfig config = ScaleConfig(opt);
  Status st = RunUnits(opt, 3, report, spans, [&](uint64_t, bool traced) {
    std::map<std::string, std::string> det;
    double setup_s = 0, lookups = 0, successes = 0, success_hops = 0;
    Status s = ForEachOverlay([&]<typename P>() -> Status {
      const auto build_start = Clock::now();
      const ex::SeedPlan seeds = P::MakeSeedPlan(config.seed);
      typename P::Network net = MakeNet<P>(config, seeds, true);
      const std::vector<uint64_t> ids = ex::SampleNodeIds(config, seeds.ids);
      {
        SpanLog::Scope span(spans, "build.bulk_add");
        if (Status b = net.BulkAdd(ids); !b.ok()) return b;
      }
      {
        SpanLog::Scope span(spans, "build.stabilize");
        net.StabilizeAll();
      }
      setup_s += SecondsSince(build_start);
      const std::vector<ex::LookupJob> jobs =
          UniformJobs(ids, config.bits, SplitSeed(seeds.measure, 0x5ca1e),
                      kBlocks * kBlockLookups);
      std::vector<ex::BatchLookupResult> results(kBlockLookups);
      peercache::overlay::RouteResult route;
      uint64_t checksum = 0;
      for (size_t b = 0; b < kBlocks; ++b) {
        const std::span<const ex::LookupJob> block(
            jobs.data() + b * kBlockLookups, kBlockLookups);
        uint64_t block_sum = 0, block_hops = 0, block_ok = 0, block_succ = 0;
        const auto direct_start = Clock::now();
        {
          SpanLog::Scope span(spans, "route.direct");
          for (const ex::LookupJob& job : block) {
            if (!net.LookupInto(job.origin, job.key, route).ok()) continue;
            ++block_ok;
            block_hops += static_cast<uint64_t>(route.hops);
            if (route.success) {
              ++block_succ;
              success_hops += route.hops;
            }
            block_sum = Fold(block_sum,
                             route.destination ^
                                 (static_cast<uint64_t>(route.hops) << 32));
          }
        }
        const double direct_s = SecondsSince(direct_start);
        const auto batched_start = Clock::now();
        {
          SpanLog::Scope span(spans, "route.batched");
          ex::RunBatchedLookups(net, block, kWindow,
                                std::span<ex::BatchLookupResult>(results));
        }
        const double batched_s = SecondsSince(batched_start);
        const ex::BatchSummary batched = ex::FoldChecksum(results);
        report.Check(batched.checksum == block_sum &&
                         batched.sum_hops == block_hops &&
                         batched.successes == block_succ &&
                         batched.lookups == block_ok,
                     "batched_equals_direct",
                     std::string(P::kName) + " block " + std::to_string(b));
        report.attempted += block.size();
        report.failed += block.size() - block_ok;
        if (!traced) {
          report.e2e.Add(std::string("lookups_per_s.") + P::kName, "1/s",
                         static_cast<double>(block.size()) / direct_s);
          report.e2e.Add(std::string("batched_lookups_per_s.") + P::kName,
                         "1/s", static_cast<double>(block.size()) / batched_s);
        }
        checksum = Fold(checksum, block_sum);
        lookups += static_cast<double>(block.size());
        successes += static_cast<double>(block_succ);
      }
      det[std::string("checksum.") + P::kName] = HexText(checksum);
      return Status::Ok();
    });
    if (!s.ok()) return s;
    det["mean_hops"] = ExactText(success_hops / successes);
    det["delivered_frac"] = ExactText(successes / lookups);
    report.Repeat(det);
    if (!traced) {
      report.e2e.Add("setup_s", "s", setup_s);
      report.e2e.Add("mean_hops", "hops", success_hops / successes);
      report.e2e.Add("delivered_frac", "ratio", successes / lookups);
    }
    return Status::Ok();
  });
  if (!st.ok() || !opt.trace) return st;
  AddTraceMetrics(spans, {"build", "route"}, {}, report);
  LayerConfig lc;
  lc.config = config;
  lc.sampled_pastry = true;
  lc.uniform_keys = true;
  return RunLayerPass(lc, opt, report);
}

}  // namespace perf_ledger
