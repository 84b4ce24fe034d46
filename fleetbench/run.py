#!/usr/bin/env python3
"""Fleet benchmark: build the library from source, run workloads, check.

    python3 fleetbench/run.py                       # all three workloads
    python3 fleetbench/run.py --workload steady_6k --seed 3
    python3 fleetbench/run.py --workload paper_sync --trace 1

Each workload runs in its own process, one after another, for --seconds
(default: run_seconds of BENCHMARK.json), so the default --workload all
takes three times that plus the build.  Before each workload, a short host
memory-latency probe is printed as a diagnostic.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
ones with --trace 1 (0 for a layer the workload bypasses).  The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the checkout root;
traced runs write their spans there too.  Exit status is 0 only when the
build succeeded and every check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_6k", "catastrophe_traffic", "paper_sync")
# One workload process must finish well inside the 180 s a run may take.
WORKLOAD_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures (once) and builds the fleetbench binary; returns its path."""
    out = bdir / "fleetbench"
    out.mkdir(parents=True, exist_ok=True)
    log = bdir / "fleetbench-build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as f:
        for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-20:]
                sys.stderr.write("fleetbench: build failed (%s):\n%s\n"
                                 % (log, "\n".join(tail)))
                sys.exit(1)
    return out / "fleetbench"


def run_process(cmd):
    """Runs cmd, echoing its stdout; returns (exit code, last line).

    A watchdog kills the process at WORKLOAD_TIMEOUT_S; the process is
    always waited for."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKLOAD_TIMEOUT_S, proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line  # the result line is printed by this script
            else:
                print(line, flush=True)
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    return code, last


def parse_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                  "failed", "metrics"}:
        return None
    return res


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        sys.exit("fleetbench: %s not found" % path)
    return json.loads(path.read_text())


def complete(res, spec, trace):
    """Checks the result's metric names and units against BENCHMARK.json
    and lists them in its order; a layer the workload bypasses reads 0.
    Returns an error message, or None."""
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    for name, m in got.items():
        if listed.get(name) != m.get("unit"):
            return "metric %s [%s] is not in BENCHMARK.json" % (
                name, m.get("unit"))
    missing = [n for n in listed if n not in got]
    if missing and not trace:
        return "end-to-end metrics missing: " + ", ".join(missing)
    res["metrics"] = {n: got.get(n, {"value": 0, "unit": u})
                      for n, u in listed.items()}
    return None


def run_workload(exe, name, seed, seconds, trace, bdir, spec):
    run_process([str(exe), "--mem-probe"])
    cmd = [str(exe), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / ("%s_seed%d.jsonl" % (name, seed)))]
    code, last = run_process(cmd)
    res = parse_result(last)
    if res is None:
        sys.stderr.write("fleetbench: %s gave no result (exit %d)\n"
                         % (name, code))
        return None, False
    error = complete(res, spec, trace)
    if error:
        sys.stderr.write("fleetbench: %s: %s\n" % (name, error))
        return None, False
    return res, code == 0 and res["correct"] is True


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bdir = build_dir()
    exe = build(bdir)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, ok = {}, True
    for name in names:
        res, good = run_workload(exe, name, args.seed, args.seconds,
                                 args.trace, bdir, spec)
        if res is None:
            sys.exit(1)
        results[name] = res
        ok = ok and good

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        # One command, every workload: the summary line keys each metric
        # by workload.
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, m): v
                        for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
