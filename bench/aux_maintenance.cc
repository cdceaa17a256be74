// Microbenchmark for the persistent auxiliary maintainers (paper Secs.
// IV-C, V-B): per recompute round, incremental delta application plus
// Reselect() versus the from-scratch selector on the same logical state.
//
// Two delta regimes per overlay and size:
//
//  * stable — membership is fixed; each round re-weights existing peers
//    (observed-frequency drift). Pastry pays O(b·k) per delta on the live
//    gain tree; Chord refreshes the weight planes of its cached jump tables
//    instead of rebuilding the ring geometry. This is the regime where
//    incremental maintenance should beat the full rebuild at n >= 1024;
//    the binary prints whether it does.
//  * churn — joins, leaves, and periodic core-set replacement. Chord's
//    structural deltas force plan rebuilds, so the two paths converge; the
//    row demonstrates cost equality holds even when reuse degrades.
//
// Every round asserts the incremental cost equals the fresh selector's cost
// (the engine's audit invariant); any mismatch fails the binary. That is
// the only exit gate: the speedup bar is printed, not enforced, because
// timing ratios on a shared host are too noisy to gate on.
//
//   $ ./aux_maintenance                  # full sizes, bar printed
//   $ ./aux_maintenance --quick --json-out aux.json

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "auxsel/chord_fast.h"
#include "auxsel/chord_maintainer.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/pastry_maintainer.h"
#include "auxsel/selection_types.h"
#include "common/bits.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/random.h"
#include "experiments/json_report.h"

using namespace peercache;
using namespace peercache::auxsel;

namespace {

constexpr int kBits = 20;  ///< Id length; 2^20 ids keeps draws collision-light.

struct Args {
  bool quick = false;
  uint64_t seed = 1;
  int rounds = 12;
  int deltas = 32;
  std::string json_out;

  static Args Parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", flag);
          std::exit(2);
        }
        return argv[++i];
      };
      if (!std::strcmp(argv[i], "--quick")) {
        a.quick = true;
      } else if (!std::strcmp(argv[i], "--seed")) {
        a.seed = static_cast<uint64_t>(std::atoll(next("--seed")));
      } else if (!std::strcmp(argv[i], "--rounds")) {
        a.rounds = std::atoi(next("--rounds"));
      } else if (!std::strcmp(argv[i], "--deltas")) {
        a.deltas = std::atoi(next("--deltas"));
      } else if (!std::strcmp(argv[i], "--json-out")) {
        a.json_out = next("--json-out");
      } else if (!std::strcmp(argv[i], "--log-level")) {
        LogLevel level;
        if (!ParseLogLevel(next("--log-level"), &level)) {
          std::fprintf(stderr, "unknown log level\n");
          std::exit(2);
        }
        SetLogLevel(level);
      } else {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--seed S] [--rounds R]"
                     " [--deltas D] [--json-out FILE] [--log-level LEVEL]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    if (a.quick) a.rounds = std::min(a.rounds, 6);
    return a;
  }
};

struct ScenarioRow {
  const char* system;
  const char* scenario;
  int n;
  int k;
  int rounds;
  int deltas_per_round;
  double inc_ms_per_round;
  double full_ms_per_round;
  double speedup;
  bool cost_equal;
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One (peer id, absolute frequency) mutation; frequency 0 means departure.
struct Delta {
  uint64_t id;
  double freq;
  bool leave;
};

/// Runs `rounds` recompute rounds over one node's maintainer, timing the
/// incremental path (delta application + Reselect) against the fresh path
/// (FreshInput export + one-shot selector — exactly what a full-rebuild
/// round pays), and checking cost equality after every round.
template <typename M, typename FreshFn>
ScenarioRow RunScenario(const char* system, const char* scenario, int n,
                        bool churny, const Args& args, FreshFn fresh) {
  const int k = CeilLog2(static_cast<uint64_t>(n));
  // Seed stream: distinct per (system, scenario, n) but reproducible.
  uint64_t stream = static_cast<uint64_t>(n) * 31 + (churny ? 17 : 0);
  for (const char* p = system; *p; ++p) stream = stream * 131 + *p;
  Rng rng(SplitSeed(args.seed, stream));

  const uint64_t bound = uint64_t{1} << kBits;
  std::set<uint64_t> used;
  auto fresh_id = [&] {
    for (;;) {
      const uint64_t id = rng.UniformU64(bound);
      if (used.insert(id).second) return id;
    }
  };

  const uint64_t self = fresh_id();
  M m(kBits, k, self);
  std::vector<uint64_t> alive;
  alive.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const uint64_t id = fresh_id();
    const double f = 1.0 + static_cast<double>(rng.UniformU64(1000));
    if (!m.OnPeerJoin(id, f).ok()) std::abort();
    alive.push_back(id);
  }
  std::vector<uint64_t> cores;
  for (int i = 0; i < k; ++i) cores.push_back(alive[rng.UniformU64(alive.size())]);
  if (!m.SetCores(cores).ok()) std::abort();
  // Warm to steady state: both paths start from an installed selection.
  if (!m.Reselect().ok()) std::abort();

  ScenarioRow row{system,      scenario, n,   k,    args.rounds,
                  args.deltas, 0.0,      0.0, 0.0, true};
  for (int round = 0; round < args.rounds; ++round) {
    // Draw the round's deltas up front so timing covers only application.
    std::vector<Delta> deltas;
    deltas.reserve(static_cast<size_t>(args.deltas));
    for (int d = 0; d < args.deltas; ++d) {
      if (!churny) {
        // Stable membership: re-weight an existing peer (never to zero).
        const uint64_t id = alive[rng.UniformU64(alive.size())];
        deltas.push_back(
            {id, 1.0 + static_cast<double>(rng.UniformU64(1000)), false});
      } else {
        const uint64_t op = rng.UniformU64(4);
        if (op == 0) {  // join
          const uint64_t id = fresh_id();
          alive.push_back(id);
          deltas.push_back(
              {id, 1.0 + static_cast<double>(rng.UniformU64(1000)), false});
        } else if (op == 1 && alive.size() > static_cast<size_t>(k) + 2) {
          const size_t at = rng.UniformU64(alive.size());
          deltas.push_back({alive[at], 0.0, true});
          alive[at] = alive.back();
          alive.pop_back();
        } else {  // frequency drift
          const uint64_t id = alive[rng.UniformU64(alive.size())];
          deltas.push_back(
              {id, 1.0 + static_cast<double>(rng.UniformU64(1000)), false});
        }
      }
    }
    std::vector<uint64_t> new_cores;
    if (churny && round % 4 == 3) {  // periodic stabilization: cores move
      for (int i = 0; i < k; ++i) {
        new_cores.push_back(alive[rng.UniformU64(alive.size())]);
      }
    }

    const auto inc_start = std::chrono::steady_clock::now();
    for (const Delta& d : deltas) {
      const Status s = d.leave ? m.OnPeerLeave(d.id)
                               : m.OnFrequencyDelta(d.id, d.freq);
      if (!s.ok()) std::abort();
    }
    if (!new_cores.empty() && !m.SetCores(new_cores).ok()) std::abort();
    auto inc = m.Reselect();
    row.inc_ms_per_round += MillisSince(inc_start);
    if (!inc.ok()) {
      std::fprintf(stderr, "incremental Reselect failed: %s\n",
                   inc.status().ToString().c_str());
      std::exit(1);
    }

    const auto full_start = std::chrono::steady_clock::now();
    const SelectionInput input = m.FreshInput();
    auto ref = fresh(input);
    row.full_ms_per_round += MillisSince(full_start);
    if (!ref.ok()) {
      std::fprintf(stderr, "fresh selector failed: %s\n",
                   ref.status().ToString().c_str());
      std::exit(1);
    }

    const double tol = 1e-7 * (1.0 + std::abs(ref->cost));
    if (std::abs(inc->cost - ref->cost) > tol) {
      row.cost_equal = false;
      std::fprintf(stderr,
                   "COST MISMATCH %s %s n=%d round %d: incremental %.17g vs "
                   "fresh %.17g\n",
                   system, scenario, n, round, inc->cost, ref->cost);
    }
  }
  row.inc_ms_per_round /= args.rounds;
  row.full_ms_per_round /= args.rounds;
  row.speedup = row.inc_ms_per_round > 0.0
                    ? row.full_ms_per_round / row.inc_ms_per_round
                    : 0.0;
  return row;
}

void PrintRow(const ScenarioRow& r) {
  std::printf("%-8s %-8s %6d %4d %7d %8d %12.3f %12.3f %8.2fx %6s\n",
              r.system, r.scenario, r.n, r.k, r.rounds, r.deltas_per_round,
              r.inc_ms_per_round, r.full_ms_per_round, r.speedup,
              r.cost_equal ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::Parse(argc, argv);
  std::vector<int> sizes = args.quick ? std::vector<int>{256}
                                      : std::vector<int>{256, 1024, 2048};

  std::printf(
      "aux_maintenance — incremental maintainer vs from-scratch selector, "
      "per recompute round\n");
  std::printf("%-8s %-8s %6s %4s %7s %8s %12s %12s %9s %6s\n", "system",
              "deltas", "n", "k", "rounds", "ops/rnd", "incr ms/rnd",
              "full ms/rnd", "speedup", "cost=");

  std::vector<ScenarioRow> rows;
  for (int n : sizes) {
    for (bool churny : {false, true}) {
      const char* scenario = churny ? "churn" : "stable";
      rows.push_back(RunScenario<PastryAuxMaintainer>(
          "pastry", scenario, n, churny, args,
          [](const SelectionInput& in) { return SelectPastryGreedy(in); }));
      PrintRow(rows.back());
      rows.push_back(RunScenario<ChordAuxMaintainer>(
          "chord", scenario, n, churny, args,
          [](const SelectionInput& in) { return SelectChordFast(in); }));
      PrintRow(rows.back());
    }
  }

  bool costs_ok = true;
  bool bar_met = true;
  for (const ScenarioRow& r : rows) {
    costs_ok = costs_ok && r.cost_equal;
    if (!args.quick && r.n >= 1024 && !std::strcmp(r.scenario, "stable") &&
        r.speedup <= 1.0) {
      bar_met = false;
    }
  }
  if (!args.quick) {
    std::printf(
        "\nstable-membership bar (incremental beats full rebuild at "
        "n >= 1024): %s\n",
        bar_met ? "met" : "NOT met");
  }
  std::printf("cost equality (incremental == fresh on every round): %s\n",
              costs_ok ? "ok" : "FAILED");

  if (!args.json_out.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("schema_version");
    json.Int(experiments::kTelemetrySchemaVersion);
    json.Key("generator");
    json.String("aux_maintenance");
    json.Key("kind");
    json.String("microbench");
    json.Key("seed");
    json.UInt(args.seed);
    json.Key("quick");
    json.Bool(args.quick);
    json.Key("bits");
    json.Int(kBits);
    json.Key("rows");
    json.BeginArray();
    for (const ScenarioRow& r : rows) {
      json.BeginObject();
      json.Key("system");
      json.String(r.system);
      json.Key("scenario");
      json.String(r.scenario);
      json.Key("n");
      json.Int(r.n);
      json.Key("k");
      json.Int(r.k);
      json.Key("rounds");
      json.Int(r.rounds);
      json.Key("deltas_per_round");
      json.Int(r.deltas_per_round);
      json.Key("incremental_ms_per_round");
      json.Double(r.inc_ms_per_round);
      json.Key("full_ms_per_round");
      json.Double(r.full_ms_per_round);
      json.Key("speedup");
      json.Double(r.speedup);
      json.Key("cost_equal");
      json.Bool(r.cost_equal);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    Status st =
        experiments::WriteStringToFile(args.json_out, json.TakeString() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", args.json_out.c_str());
  }
  return costs_ok ? 0 : 1;
}
