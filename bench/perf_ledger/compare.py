#!/usr/bin/env python3
"""Compares two checkouts on the perf ledger, or measures one's stability.

  compare.py --parent DIR --change DIR [--pairs 10] [--seed S]
             [--workload W ...]
      Runs alternating pairs (parent first in even pairs, change first in
      odd ones) of every workload's end-to-end run and prints one row per
      workload. Per metric the verdict follows the benchmark's rules:
        gain        the change wins at least 9 of 10 pairs (ties count for
                    neither) and its median beats the parent's by more than
                    the parent's interquartile range;
        regression  the change's median is worse than the parent's by more
                    than the metric's bound;
        unresolved  the parent's own spread (IQR / median) exceeds the bound
                    and not every change run beats every parent run;
        same        otherwise.

  compare.py --stability N [--seed S | --vary-seed] [--sets K]
             [--workload W ...] [--dir DIR] [--out FILE]
      Runs K sets of N passes of one checkout and prints, per workload and
      end-to-end metric, each set's median, max/min ratio and IQR / median,
      and how far the set medians lie apart against the metric's bound.
      --out writes every pass and the machine descriptor as a JSON document.

Both modes call each checkout's own bench/perf_ledger/run.py and use the
bounds and directions of its BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paper_stable", "churn_maintain", "route_scale", "cluster_actor"]


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed):
    """One untraced run; returns (contract line, result document)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "perf_ledger", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit("run failed: %s %s seed %d" % (checkout, workload, seed))
    result = None
    for line in lines:
        if line.startswith("result: "):
            with open(line[len("result: "):]) as f:
                result = json.load(f)
    return json.loads(lines[-1]), result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def verdict(metric, parent, change):
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if better(metric, c, p))
    gain_delta = (cm - pm) / pm if metric["better"] == "higher" else \
        (pm - cm) / pm
    if (wins >= 0.9 * len(parent) and gain_delta > 0 and
            abs(cm - pm) > iqr):
        return "gain", gain_delta
    if gain_delta < -metric["bound"]:
        return "regression", gain_delta
    all_better = all(better(metric, c, p) for c in change for p in parent)
    if iqr / pm > metric["bound"] and not all_better:
        return "unresolved", gain_delta
    return "same", gain_delta


def compare(args):
    spec = load_spec(args.change)
    if spec != load_spec(args.parent):
        print("warning: the two checkouts' BENCHMARK.json differ; "
              "using the change's")
    for workload in args.workload:
        parent, change = [], []
        for i in range(args.pairs):
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                order.reverse()
            for side, checkout in order:
                line, _ = run_once(checkout, workload, args.seed)
                (parent if side == "parent" else change).append(
                    line["metrics"])
        cells = []
        for m in spec["end_to_end"]:
            p = [run[m["name"]]["value"] for run in parent]
            c = [run[m["name"]]["value"] for run in change]
            v, delta = verdict(m, p, c)
            q1, q3 = quartiles(p)
            cells.append("%s %s %+.1f%% (parent %.4g [%.4g, %.4g], change "
                         "%.4g)" % (m["name"], v, 100 * delta,
                                    statistics.median(p), q1, q3,
                                    statistics.median(c)))
        print("%-15s %s" % (workload, "; ".join(cells)))


def stability(args):
    checkout = args.dir
    spec = load_spec(checkout)
    sets = []
    machine = None
    for s in range(args.sets):
        passes = {w: [] for w in args.workload}
        for i in range(args.stability):
            for workload in args.workload:
                seed = args.seed + i if args.vary_seed else args.seed
                line, result = run_once(checkout, workload, seed)
                machine = result["machine"] if result else machine
                passes[workload].append({"seed": seed, "result": line})
        sets.append(passes)

    summary = {}
    for workload in args.workload:
        summary[workload] = {}
        print("== %s" % workload)
        for m in spec["end_to_end"]:
            medians, row = [], []
            for passes in sets:
                values = [p["result"]["metrics"][m["name"]]["value"]
                          for p in passes[workload]]
                med = statistics.median(values)
                q1, q3 = quartiles(values)
                medians.append(med)
                row.append({"median": med,
                            "max_over_min": max(values) / min(values),
                            "iqr_over_median": (q3 - q1) / med})
            apart = max(medians) / min(medians) - 1
            summary[workload][m["name"]] = {
                "sets": row, "medians_apart": apart, "bound": m["bound"],
                "within_bound": apart <= m["bound"] and all(
                    r["iqr_over_median"] <= m["bound"] for r in row
                    if m["name"] != "setup_s")}
            print("  %-24s bound %-5g %s apart %.4f" % (
                m["name"], m["bound"], "  ".join(
                    "median %.5g max/min %.4f iqr/med %.4f" % (
                        r["median"], r["max_over_min"], r["iqr_over_median"])
                    for r in row), apart))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": machine,
                       "run_seconds": spec["run_seconds"],
                       "seed": None if args.vary_seed else args.seed,
                       "vary_seed": args.vary_seed,
                       "passes_per_set": args.stability,
                       "sets": sets, "summary": summary}, f, indent=1,
                      sort_keys=True)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--stability", type=int)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--dir", default=".")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.stability:
        stability(args)
    elif args.parent and args.change:
        if args.pairs < 10:
            parser.error("a comparison needs at least 10 pairs")
        compare(args)
    else:
        parser.error("give --parent and --change, or --stability N")


if __name__ == "__main__":
    main()
