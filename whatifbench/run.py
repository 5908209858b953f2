#!/usr/bin/env python3
"""Serving benchmark for what-if analysis over compressed provenance.

One run (the form a harness calls):
    python3 whatifbench/run.py --workload whatif-sweep --seed 1 --seconds 18 --trace 0

Builds provabs_server and the load generator from this source tree (Release,
under .bench_build/), runs one workload against a spawned server and prints
the result; the last stdout line is the JSON object. See README.md beside
this file for the workloads, the metrics and the other modes:
    --all          every workload once, then a table of every metric
    --steady N     every workload N times on seeds 1..N, spread vs bound
    --self-test    the measurement-rule self-tests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "whatifbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"whatifbench: {message}", file=sys.stderr)
    sys.exit(code)


def manifest():
    try:
        with open(MANIFEST) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {MANIFEST}: {e}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("no provabs source tree around the benchmark; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                  "provabs_server", "whatif_loadgen", "whatif_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            die("build failed: " + " ".join(cmd), 1)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the load generator once; returns (exit code, result dict)."""
    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "whatif_loadgen"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", os.path.join(BUILD, "provabs", "tools",
                                    "provabs_server"),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    expected = {m["name"]: m["unit"] for m in
                manifest()["per_layer" if trace else "end_to_end"]}
    if result is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            die(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                f"unexpected {extra}", 1)
        if echo:
            print(lines[-1])
    return proc.returncode, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def mode_all(args, spec):
    rows = []
    code = 0
    for w in spec["workloads"]:
        rc, result = run_once(w["name"], args.seed, args.seconds, args.trace,
                              echo=False)
        if rc != 0 or result is None:
            print(f"{w['name']}: failed (exit {rc})")
            code = 1
            continue
        for name, m in result["metrics"].items():
            rows.append((w["name"], name, m["value"], m["unit"]))
    for workload, name, value, unit in rows:
        print(f"{workload:18} {name:30} {value:14.6g} {unit}")
    return code


def mode_steady(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    code = 0
    for workload in names:
        values = {}
        for seed in range(1, args.steady + 1):
            start = time.monotonic()
            rc, result = run_once(workload, seed, args.seconds, 0, echo=False)
            wall = time.monotonic() - start
            if rc != 0 or result is None:
                print(f"{workload} seed {seed}: failed (exit {rc})")
                code = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({wall:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"== {workload}: {args.steady} runs")
        for metric in spec["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            s = spread(vals)
            verdict = "ok" if s <= metric["bound"] / 3 else (
                "within bound" if s <= metric["bound"] else "OVER BOUND")
            if metric["name"] == "setup_s":
                verdict += " (spread not gated)"
            print(f"  {metric['name']:18} median {statistics.median(vals):12.6g}"
                  f" {metric['unit']:6} spread {s:7.4f} bound"
                  f" {metric['bound']:.2f}  {verdict}")
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = manifest()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.self_test:
        return subprocess.call([os.path.join(BUILD, "whatif_selftest")])
    if args.steady:
        return mode_steady(args, spec)
    if args.all:
        return mode_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("--workload must be one of: " +
            ", ".join(w["name"] for w in spec["workloads"]))
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
