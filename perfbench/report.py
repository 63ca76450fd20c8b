#!/usr/bin/env python3
"""Reads the benchmark's traced runs, or repeats its untraced runs.

    python3 perfbench/report.py .bench_build/spans/epx-seed1.json ...
        Per-layer self time from the span file of a traced run, the
        scheduler counter ratios, and every per-layer metric of the run
        (bench.trace_overhead among them).

    python3 perfbench/report.py --repeat 10 [--workloads fib,epx]
                                [--seconds 10] [--first-seed 1]
        Runs each workload N times untraced, one seed each, and prints the
        median, the quartiles and the quartile spread (q3 - q1) / median of
        every end-to-end metric and of the workload's detail figures, with
        the metric's bound from BENCHMARK.json. Bounds are set from this.

Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_SPANS = {"solve", "solve_1w", "warmup", "warmup_1w", "serve", "serve_1w"}


def layer_of(name):
    """Layer a span's self time is charged to: core.<part>, or the first
    component of the name; the benchmark's own root spans are `bench`."""
    if name in ROOT_SPANS:
        return "bench"
    if name == "service.job":
        return "bench.job"
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "core" else parts[0]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, end = 0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    per_layer = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        own = dur - covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
        entry = per_layer.setdefault(layer_of(s["name"]), [0, 0])
        entry[0] += 1
        entry[1] += own
    return per_layer


def ratio(a, b):
    return a / b if b else 0.0


def report_spans(path):
    with open(path) as f:
        doc = json.load(f)
    spans = [dict(zip(doc["fields"], row)) for row in doc["spans"]]
    print("== %s  (run %s, %d spans)" % (path, doc["run"], len(spans)))
    per_layer = self_times(spans)
    roots = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] < 0)
    print("%-16s %8s %12s %8s" % ("layer", "spans", "self_s", "share"))
    for layer, (count, ns) in sorted(per_layer.items(), key=lambda kv: -kv[1][1]):
        print("%-16s %8d %12.6f %7.1f%%" % (layer, count, ns * 1e-9,
                                            100.0 * ratio(ns, roots)))
    c = doc.get("counters_nproc", {})
    if c:
        print("counter ratios (nproc pool, traced stretch):")
        for name, num, den in [
                ("steals_ok / steal_attempts", "steals_ok", "steal_attempts"),
                ("steal_tasks / steals_ok", "steal_tasks", "steals_ok"),
                ("requests_served / combiner_rounds", "requests_served",
                 "combiner_rounds"),
                ("scan_entries / steals_ok", "scan_entries", "steals_ok"),
                ("park_wakes / parks", "park_wakes", "parks")]:
            print("  %-36s %12.6g" % (name, ratio(c.get(num, 0), c.get(den, 0))))
        run = c.get("tasks_run_owner", 0) + c.get("tasks_run_thief", 0)
        print("  %-36s %12.6g" % ("thief share of tasks run",
                                  ratio(c.get("tasks_run_thief", 0), run)))
    print("per-layer metrics:")
    for name, value in sorted(doc.get("metrics", {}).items()):
        print("  %-36s %14.6g" % (name, value))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail


def summarize(name, values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    verdict = ""
    if bound is not None:
        verdict = "ok" if spread < bound / 3 else (
            "within bound" if spread <= bound else "TOO WIDE")
    print("  %-22s %12.6g %12.6g %12.6g %8.3f %6s %s" % (
        name, q2, q1, q3, spread, "" if bound is None else "%.2f" % bound,
        verdict))


def repeat(n, workloads, seconds, first_seed):
    bench = {}
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as f:
            bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    if not workloads:
        workloads = [w["name"] for w in bench.get("workloads", [])] or [
            "fib", "cholesky", "epx", "service"]
    seconds = seconds or bench.get("run_seconds", 10)
    for w in workloads:
        metrics, details, shares = {}, {}, set()
        for k in range(n):
            result, detail = run_once(w, first_seed + k, seconds)
            if not result["correct"]:
                print("  seed %d: correct is false" % (first_seed + k))
            shares.add((result["failed"], result["attempted"]))
            for m, v in result["metrics"].items():
                metrics.setdefault(m, []).append(v["value"])
            for m, v in detail.items():
                details.setdefault(m, []).append(v["value"])
        fails = sorted({ratio(f, a) for f, a in shares})
        print("== %s: %d runs of %ss, failed share %s" % (
            w, n, seconds, ", ".join("%.6g" % x for x in fails)))
        print("  %-22s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for m, values in metrics.items():
            summarize(m, values, bounds.get(m))
        for m, values in details.items():
            summarize("(" + m + ")", values, None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("spans", nargs="*", help="span files of traced runs")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.repeat:
        if args.repeat < 2:
            raise SystemExit("--repeat needs at least 2 runs for quartiles")
        repeat(args.repeat, [w for w in args.workloads.split(",") if w],
               args.seconds, args.first_seed)
    for path in args.spans:
        report_spans(path)
    if not args.repeat and not args.spans:
        ap.print_help()


if __name__ == "__main__":
    main()
