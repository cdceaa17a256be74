#!/usr/bin/env python3
"""Builds the perf ledger from source and runs one benchmark workload.

  python3 bench/perf_ledger/run.py --workload W [--seed S] [--seconds T]
                                   [--trace 0|1] [--threads 1|2]
  python3 bench/perf_ledger/run.py [--seed S] ...   # every workload in turn

Prints every metric of the run by name with its unit, median, min and max,
the run's correctness gates and deterministic outputs, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. The full result document, with the machine descriptor,
is written under build/perf_ledger/results/.

Exit status: 0 when every gate passed, 1 when one failed (the result is
still printed), 2 when the ledger could not be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build", "perf_ledger")
WORKLOADS = ["paper_stable", "churn_maintain", "route_scale", "cluster_actor"]
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


class LedgerError(Exception):
    """The ledger could not be built or did not produce a result."""


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise LedgerError("library sources not found under %s" %
                          os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_tool(configure)
    run_tool(["cmake", "--build", BUILD, "--target", "perf_ledger", "-j",
              str(min(4, os.cpu_count() or 1))])


def run_tool(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise LedgerError("%s failed with status %d" %
                          (" ".join(cmd[:2]), proc.returncode))


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def machine_descriptor(ledger_machine):
    """Host facts the ledger binary cannot see, merged with what it saw."""
    cpu_model = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    index = 0
    while True:
        base = "/sys/devices/system/cpu/cpu0/cache/index%d" % index
        if not os.path.isdir(base):
            break
        level = read_text(os.path.join(base, "level"))
        kind = read_text(os.path.join(base, "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches["L%s" % level] = read_text(os.path.join(base, "size"))
        index += 1
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                               "--dirty", "--abbrev=40"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    machine = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "git_revision": revision,
        "source_digest": source_digest(),
    }
    machine.update(ledger_machine)
    return machine


def source_digest():
    """SHA-256 over the library and ledger sources, so results from a
    checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench", "perf_ledger")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_workload(workload, seed, seconds, trace, threads, spec):
    """Runs one workload; returns (contract line, full result document)."""
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "perf_ledger"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--threads", str(threads),
           "--scratch", scratch]
    trace_path = None
    if trace:
        trace_path = os.path.join(BUILD, "traces",
                                  "%s-seed%d.json" % (workload, seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LedgerError("%s did not finish within %d s" %
                          (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise LedgerError("%s exited with status %d" %
                          (workload, proc.returncode))
    doc = json.loads(lines[-1])

    gates = dict(doc["gates"])
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f).get(workload, {}).get(str(seed), {})
    for field, want in sorted(expected.items()):
        got = doc["deterministic"].get(field)
        detail = "" if got == want else "got %s, expected %s" % (got, want)
        gates["expected." + field] = {"ok": got == want, "checks": 1,
                                      "detail": detail}

    section = "layer" if trace else "e2e"
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        have = doc[section].get(m["name"])
        ok = (have is not None and have["unit"] == m["unit"] and
              isinstance(have["value"], (int, float)))
        gates["metric." + m["name"]] = {
            "ok": ok, "checks": 1,
            "detail": "" if ok else "missing, not a number or unit "
                                    "differs: %s" % have}
        if ok:
            metrics[m["name"]] = {"value": have["value"], "unit": m["unit"]}

    correct = all(g["ok"] for g in gates.values())
    line = {"correct": correct, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "threads": threads,
              "machine": machine_descriptor(doc["machine"]),
              "units": doc["units"], "gates": gates,
              "deterministic": doc["deterministic"], "e2e": doc["e2e"],
              "layer": doc["layer"], "trace_file": trace_path,
              "result": line}
    return line, result


def print_result(result):
    print("== %s seed=%d trace=%d threads=%d units=%d" % (
        result["workload"], result["seed"], result["trace"],
        result["threads"], result["units"]))
    section = "layer" if result["trace"] else "e2e"
    for name, m in sorted(result[section].items()):
        print("  %-38s %-6s median %-12.6g min %-12.6g max %-12.6g n=%d" % (
            name, m["unit"], m["value"], m["min"], m["max"], m["samples"]))
    for name, value in sorted(result["deterministic"].items()):
        print("  deterministic %-24s %s" % (name, value))
    for name, g in sorted(result["gates"].items()):
        if not g["ok"]:
            print("  GATE FAILED %s: %s" % (name, g["detail"]))
    print("  gates: %s" % ("all passed" if result["result"]["correct"]
                           else "FAILED"))


def save_result(result):
    path = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], int(result["trace"])))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("result: %s" % path)


def main():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, choices=(1, 2), default=2)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    try:
        build()
        workloads = [args.workload] if args.workload else WORKLOADS
        lines = {}
        for w in workloads:
            line, result = run_workload(w, args.seed, args.seconds,
                                        args.trace, args.threads, spec)
            print_result(result)
            save_result(result)
            lines[w] = line
    except LedgerError as e:
        sys.stderr.write("perf ledger: %s\n" % e)
        return 2

    if args.workload:
        final = lines[args.workload]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {"%s/%s" % (w, name): m
                        for w, l in lines.items()
                        for name, m in l["metrics"].items()}}
    sys.stdout.flush()
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
