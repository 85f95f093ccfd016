#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --spread --workload NAME

The first form builds perfbench.exe from source with dune (build
directory .bench_build, dune's shared cache off, so nothing is written
outside the checkout), runs it, and passes its output through: the
last line is one JSON object with the metrics.

The second form is the steadiness evidence behind the bounds in
BENCHMARK.json: it runs the untraced benchmark for seeds 1 to 10, each
for BENCHMARK.json's run_seconds, and prints, for every end-to-end
metric, the quartiles of its values, their spread (q3 - q1) / median,
and the metric's bound.  It exits 1 when a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175
SPREAD_SEEDS = range(1, 11)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die(f"{needed} not found: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "-j", "2",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")


def bench_args(workload, seed, seconds, trace):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_once(args):
    try:
        done = subprocess.run(
            bench_args(args.workload, args.seed, args.seconds, args.trace),
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


def spread(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values = {name: [] for name in bounds}
    for seed in SPREAD_SEEDS:
        try:
            done = subprocess.run(bench_args(args.workload, seed, seconds, 0),
                                  capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"seed {seed}: run exceeded {RUN_TIMEOUT_S} s")
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            die(f"seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            die(f"seed {seed}: output check failed")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={values[name][-1]:.6g}" for name in bounds), flush=True)
    print(f"\n{args.workload}: {len(SPREAD_SEEDS)} runs of {seconds} s, "
          f"seeds {SPREAD_SEEDS[0]}..{SPREAD_SEEDS[-1]}")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    too_wide = False
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med
        bound = bounds[name]
        if rel < bound / 3:
            verdict = "ok (< bound/3)"
        elif rel <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            too_wide = True
        print(f"{name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rel:>8.4f} {bound:>6.2f}  {verdict}")
    return 1 if too_wide else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", action="store_true")
    args = p.parse_args()
    build()
    if args.spread:
        sys.exit(spread(args))
    if args.seconds < 1:
        die("--seconds must be at least 1")
    sys.exit(run_once(args))


if __name__ == "__main__":
    main()
