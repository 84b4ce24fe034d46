#!/usr/bin/env python3
"""Repeated-run spread of the fleet benchmark's end-to-end metrics.

    python3 fleetbench/steadiness.py --workload steady_6k --runs 5
    python3 fleetbench/steadiness.py --runs 10 --sets 2 \\
        --out fleetbench/STEADINESS.md

Runs run.py once per seed (1, 2, ..., --runs), one run at a time,
workload after workload, each for run.py's default length (run_seconds of
BENCHMARK.json).  Every run has its own seed, so a spread holds the
seed-to-seed differences as well as host noise.  Prints per workload the
operations attempted and failed over the set, and per metric the median,
quartiles (statistics.quantiles, n=4), min, max and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.  With --sets N the whole sequence repeats N times and
a last table compares each later set's medians with the first set's.  With
--out, the markdown is appended to that file.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("run failed: %s seed %d (exit %d)"
                 % (workload, seed, proc.returncode))
    mem = [l.split(":")[1].split("ns")[0].strip() for l in lines
           if l.startswith("host memory latency")]
    return json.loads(lines[-1]), mem[-1] if mem else "?"


def one_set(workloads, seeds):
    """Returns ({workload: {metric: [values]}}, {workload: [mem latency]},
    {workload: [operations attempted, failed]})."""
    values, mems, ops = {}, {}, {}
    for w in workloads:
        for seed in seeds:
            res, mem = one_run(w, seed)
            mems.setdefault(w, []).append(mem)
            tally = ops.setdefault(w, [0, 0])
            tally[0] += res["attempted"]
            tally[1] += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(
                    m["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr, flush=True)
    return values, mems, ops


def spread_table(values, mems, ops, bounds):
    out = []
    for w, metrics in values.items():
        out += ["**%s** (host memory latency per run, ns/load: %s; "
                "operations: %d attempted, %d failed)"
                % (w, ", ".join(mems[w]), ops[w][0], ops[w][1]), "",
                "| metric | median | q1 | q3 | min | max | spread | bound |",
                "|---|---|---|---|---|---|---|---|"]
        for name, vs in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            out.append("| %s | %.6g | %.6g | %.6g | %.6g | %.6g | %.4f | %s |"
                       % (name, med, q1, q3, min(vs), max(vs), spread,
                          bounds.get(name, "-")))
        out.append("")
    return out


def compare_table(first, later, spec):
    """How much worse each later set's median is than the first set's."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ["| workload | metric | set 1 median | set %d median | worse by "
           "| bound |" % later[0], "|---|---|---|---|---|---|"]
    for w, metrics in first.items():
        for name, vs in metrics.items():
            a = statistics.median(vs)
            b = statistics.median(later[1][w][name])
            worse = (a - b if better.get(name) == "higher" else b - a)
            out.append("| %s | %s | %.6g | %.6g | %.4f | %s |"
                       % (w, name, a, b, worse / a if a else 0.0,
                          bounds.get(name, "-")))
    return out + [""]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in "
                         "BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if args.runs < 2 or args.sets < 1:
        ap.error("need --runs >= 2 and --sets >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)

    out, sets = [], []
    for k in range(1, args.sets + 1):
        started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
        values, mems, ops = one_set(workloads, seeds)
        sets.append(values)
        out += ["", "### Set %d of %d (started %s): %d runs per workload, "
                "seeds %d..%d, --seconds %d"
                % (k, args.sets, started, args.runs, seeds[0], seeds[-1],
                   spec["run_seconds"]), ""]
        out += spread_table(values, mems, ops, bounds)
    for k in range(2, args.sets + 1):
        out += ["### Set %d against set 1" % k, ""]
        out += compare_table(sets[0], (k, sets[k - 1]), spec)
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "a") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
