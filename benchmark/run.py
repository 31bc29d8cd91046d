#!/usr/bin/env python3
"""Build the HLPower daemon and the benchmark driver, then run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload paper_cold --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --steadiness [--runs 10] [--seconds 40] [--workload W ...]

The first form builds `hlp` (root workspace) and the driver package in
`benchmark/` into $CARGO_TARGET_DIR (default `.bench_build`), runs the
driver, and passes its output and exit code through: the last stdout line
is the JSON result. The second form runs two sets of runs of each workload
with distinct seeds, alternating between the sets run by run, and prints
per end-to-end metric each set's median and spread, the quartiles of all
runs, and the drift between the sets.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_cold", "serve_warm"]


def build():
    """Builds both programs; returns the paths of `hlp` and the driver."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "hlp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("benchmark", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
            sys.exit("benchmark: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "hlp"), os.path.join(release, "hlpower-benchmark")


def driver_args(hlp, workload, seed, seconds, trace):
    return [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--hlp", hlp,
        "--work", os.path.join(".bench_run", str(os.getpid())),
        "--trace-dir", ".bench_trace",
    ]


def run_once(hlp, driver, workload, seed, seconds, trace):
    """Runs the driver, passing its streams through; returns its exit code."""
    proc = subprocess.run([driver] + driver_args(hlp, workload, seed, seconds, trace), cwd=ROOT)
    return proc.returncode


def run_captured(hlp, driver, workload, seed, seconds):
    proc = subprocess.run(
        [driver] + driver_args(hlp, workload, seed, seconds, 0),
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def steadiness(hlp, driver, workloads, runs, seconds):
    """Two sets of `runs` runs per workload; prints spread and drift.

    The sets alternate run by run, and which set goes first alternates
    too, so a slow change in the host's speed reaches both sets alike: it
    widens each set's spread instead of showing as drift between them.
    Drift is set 2's median against set 1's, positive = worse.
    """
    print(f"nproc {os.cpu_count()}, cpu {cpu_model()}, {runs} runs per set, {seconds} s per run")
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = (m["bound"], m["better"])
    for workload in workloads:
        sets = ([], [])
        for i in range(runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[s].append(run_captured(hlp, driver, workload, 1000 * (s + 1) + i, seconds))
        print(f"\n{workload}")
        print(f"  {'metric':16} {'median1':>11} {'median2':>11} {'q1':>11} {'q3':>11}"
              f" {'spread1':>7} {'spread2':>7} {'spread':>7} {'drift':>7} {'bound':>5}")
        for name in sets[0][0]["metrics"]:
            v1, v2 = ([r["metrics"][name]["value"] for r in results] for results in sets)
            m1, m2 = statistics.median(v1), statistics.median(v2)
            q1, _, q3 = statistics.quantiles(v1 + v2, n=4)
            bound, better = bounds.get(name, (None, "lower"))
            worse = (m2 - m1) if better == "lower" else (m1 - m2)
            drift = worse / m1 if m1 else 0.0
            print(f"  {name:16} {m1:11.4f} {m2:11.4f} {q1:11.4f} {q3:11.4f}"
                  f" {spread(v1):7.3f} {spread(v2):7.3f} {spread(v1 + v2):7.3f}"
                  f" {drift:+7.3f} {bound if bound is not None else '-':>5}")
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    if a.steadiness and a.runs < 2:
        p.error("--runs wants at least 2")
    if not a.steadiness and (not a.workload or len(a.workload) != 1 or a.seed is None):
        p.error("give one --workload and a --seed (or --steadiness)")
    hlp, driver = build()
    if a.steadiness:
        steadiness(hlp, driver, a.workload or WORKLOADS, a.runs, a.seconds)
        return 0
    return run_once(hlp, driver, a.workload[0], a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
