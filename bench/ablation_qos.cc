// Ablation (paper Secs. IV-D, V-C): what does QoS admission cost?
//
// On random skewed instances, a growing fraction of peers receives a tight
// delay bound. We report the optimal unconstrained Eq. 1 cost, the optimal
// cost subject to the bounds, and how often the bounds are infeasible with
// k pointers. The expected shape: tighter/wider constraint sets push the
// constrained optimum away from the unconstrained one and eventually become
// infeasible.

#include <cstdio>

#include "auxsel/chord_qos.h"
#include "auxsel/chord_dp.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/pastry_qos.h"
#include "auxsel/selection_types.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/zipf.h"

namespace {

using namespace peercache;
using namespace peercache::auxsel;

SelectionInput MakeInstance(Rng& rng, int n, int k, double bound_fraction,
                            int bound) {
  SelectionInput input;
  input.bits = 32;
  input.k = k;
  ZipfDistribution zipf(static_cast<size_t>(n), 1.2);
  auto ids =
      rng.SampleDistinct(uint64_t{1} << 32, static_cast<size_t>(n) + 11);
  input.self_id = ids[0];
  for (int i = 0; i < n; ++i) {
    PeerFreq p;
    p.id = ids[static_cast<size_t>(i + 1)];
    p.frequency = zipf.Pmf(static_cast<size_t>(i) + 1) * 1e6;
    if (rng.Bernoulli(bound_fraction)) p.delay_bound = bound;
    input.peers.push_back(p);
  }
  for (int i = 0; i < 10; ++i) {
    input.core_ids.push_back(ids[static_cast<size_t>(n + 1 + i)]);
  }
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  peercache::bench::BenchArgs args = peercache::bench::BenchArgs::Parse(
      argc, argv, peercache::bench::kLookupRunFlags);
  const int n = args.quick ? 100 : 300;
  const int k = 12;
  const int kTrials = args.quick ? 10 : 40;

  // This ablation measures selector costs, not lookup runs, so it emits its
  // own row schema instead of the shared figure document.
  peercache::JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Int(peercache::experiments::kTelemetrySchemaVersion);
  json.Key("generator");
  json.String("ablation_qos");
  json.Key("kind");
  json.String("qos_ablation");
  json.Key("n");
  json.Int(n);
  json.Key("k");
  json.Int(k);
  json.Key("trials");
  json.Int(kTrials);
  json.Key("base_seed");
  json.UInt(args.base_seed);
  json.Key("rows");
  json.BeginArray();

  std::printf(
      "Ablation — QoS-constrained vs unconstrained selection "
      "(n=%d, k=%d, zipf 1.2)\n",
      n, k);
  std::printf("%-10s %-8s %14s %14s %12s %12s\n", "system", "bound",
              "frac bounded", "uncon cost", "QoS cost", "infeasible");
  std::printf("%s\n", std::string(76, '-').c_str());

  for (const char* system : {"pastry", "chord"}) {
    for (int bound : {4, 8}) {
      for (double frac : {0.01, 0.02, 0.03}) {
        double uncon_total = 0, qos_total = 0;
        int feasible = 0, infeasible = 0;
        Rng rng(args.base_seed * 977 + static_cast<uint64_t>(bound));
        for (int t = 0; t < kTrials; ++t) {
          SelectionInput input = MakeInstance(rng, n, k, frac, bound);
          if (system[0] == 'p') {
            auto uncon = SelectPastryGreedy(input);
            auto qos = SelectPastryGreedyQos(input);
            if (!uncon.ok()) continue;
            if (!qos.ok()) {
              ++infeasible;
              continue;
            }
            uncon_total += uncon->cost;
            qos_total += qos->cost;
            ++feasible;
          } else {
            auto uncon = SelectChordDp(input);
            auto qos = SelectChordDpQos(input);
            if (!uncon.ok()) continue;
            if (!qos.ok()) {
              ++infeasible;
              continue;
            }
            uncon_total += uncon->cost;
            qos_total += qos->cost;
            ++feasible;
          }
        }
        if (feasible > 0) {
          uncon_total /= feasible;
          qos_total /= feasible;
        }
        std::printf("%-10s %-8d %13.0f%% %14.0f %12.0f %9d/%d\n", system,
                    bound, 100 * frac, uncon_total, qos_total, infeasible,
                    kTrials);
        json.BeginObject();
        json.Key("system");
        json.String(system);
        json.Key("bound");
        json.Int(bound);
        json.Key("bounded_fraction");
        json.Double(frac);
        json.Key("unconstrained_cost");
        json.Double(uncon_total);
        json.Key("qos_cost");
        json.Double(qos_total);
        json.Key("feasible");
        json.Int(feasible);
        json.Key("infeasible");
        json.Int(infeasible);
        json.EndObject();
      }
    }
  }

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
