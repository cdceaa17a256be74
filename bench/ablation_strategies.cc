// Reproduces the paper's *motivating* trade-off (Sec. I / Sec. II-C, the
// argument against item caching and Beehive-style replication): as items
// update faster, item caches serve more stale answers and replication pays
// more maintenance messages, while pointer caching keeps fresh 1-2-hop
// lookups at zero update cost.

#include <cstdio>

#include "bench_util.h"
#include "itemcache/strategy_compare.h"

int main(int argc, char** argv) {
  using peercache::itemcache::CompareStrategies;
  using peercache::itemcache::StrategyCompareConfig;
  peercache::bench::BenchArgs args = peercache::bench::BenchArgs::Parse(
      argc, argv, peercache::bench::kLookupRunFlags);

  // Strategy comparisons have their own result shape (no three-policy
  // Comparison), so this binary emits its own row schema.
  peercache::JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Int(peercache::experiments::kTelemetrySchemaVersion);
  json.Key("generator");
  json.String("ablation_strategies");
  json.Key("kind");
  json.String("strategy_ablation");
  json.Key("base_seed");
  json.UInt(args.base_seed);
  json.Key("rows");
  json.BeginArray();

  std::printf(
      "Ablation — acceleration strategies vs item update period\n"
      "(Chord n=256, 1024 items, zipf 1.2; item cache TTL 60 s, cap 64;\n"
      " replication: top-64 items x 8 replicas; peer cache k=8)\n\n");
  std::printf("%-18s %10s %12s %12s %12s %14s\n", "update period",
              "baseline", "item-cache", "item stale", "replication",
              "peer-cache");
  std::printf("%s\n", std::string(84, '-').c_str());

  for (double period : {30.0, 120.0, 600.0, 3600.0}) {
    StrategyCompareConfig cfg;
    cfg.seed = args.base_seed;
    cfg.item_update_period_s = period;
    cfg.duration_s = args.quick ? 600 : 3600;
    auto cmp = CompareStrategies(cfg);
    if (!cmp.ok()) {
      std::fprintf(stderr, "failed: %s\n", cmp.status().ToString().c_str());
      return 1;
    }
    std::printf("%11.0f s/item %7.2f hp %9.2f hp %11.1f%% %9.2f hp %11.2f hp\n",
                period, cmp->baseline.avg_hops, cmp->item_cache.avg_hops,
                100 * cmp->item_cache.stale_fraction,
                cmp->replication.avg_hops, cmp->peer_cache.avg_hops);
    json.BeginObject();
    json.Key("update_period_s");
    json.Double(period);
    json.Key("baseline_hops");
    json.Double(cmp->baseline.avg_hops);
    json.Key("item_cache_hops");
    json.Double(cmp->item_cache.avg_hops);
    json.Key("item_cache_stale_fraction");
    json.Double(cmp->item_cache.stale_fraction);
    json.Key("replication_hops");
    json.Double(cmp->replication.avg_hops);
    json.Key("peer_cache_hops");
    json.Double(cmp->peer_cache.avg_hops);
    json.EndObject();
  }
  std::printf(
      "\n(item-cache hops exclude its 0-hop hits; its cost is staleness."
      "\n replication update cost: every item update fans out to every "
      "replica.)\n");

  json.EndArray();
  json.EndObject();
  if (!args.json_out.empty()) {
    peercache::Status st = peercache::experiments::WriteStringToFile(
        args.json_out, json.TakeString() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", args.json_out.c_str());
  }
  return 0;
}
