#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), span files and full result records to .bench_out. The last
line of standard output is the JSON result; everything before it is the
human-readable report (environment, phases, checks, metrics with units).

BENCHMARK.json is the only list of metric names and units. The benchmark
binary prints the values it measured by name; this script attaches the
units, rejects a name the file does not list or an end-to-end metric left
unset, and reports 0 for a per-layer metric of a layer the workload does
not run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "label_service.h")):
        fail("library sources not found under src/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.call(step, cwd=ROOT, stdout=sys.stderr) != 0:
            fail("build failed: " + " ".join(step))
    return out


def git_sha():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete_metrics(spec, trace, measured):
    """Returns the result's metrics ({name: {value, unit}}) and the names
    filled in as idle, or fails on a name mismatch."""
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(unknown))
    idle = [name for name in units if name not in measured]
    if idle and not trace:
        fail("end-to-end metrics not measured: %s" % ", ".join(idle))
    metrics = {name: {"value": measured.get(name, 0), "unit": units[name]}
               for name in units}
    return metrics, idle


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_test"])
        sys.exit(subprocess.call([os.path.join(out, "perfbench_test")], cwd=ROOT))

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads or args.seed is None or not args.seconds:
        fail("need --workload {%s} --seed N --seconds S" % ",".join(workloads))

    out = build(["perfbench"])
    out_dir = os.path.join(ROOT, ".bench_out")
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", out_dir,
               "--git-sha", git_sha()]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)

    record = json.loads(lines[-1])
    metrics, idle = complete_metrics(spec, args.trace == 1, record["metrics"])
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    record["idle_metrics"] = idle
    record["result"] = result
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    print("\n".join(lines[:-1]))
    for metric, m in metrics.items():
        print("metric %-35s %r %s%s" % (metric, m["value"], m["unit"],
                                        "  (layer idle on this workload)"
                                        if metric in idle else ""))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
