#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs it.

One workload run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints every figure the run measured, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer
set (a layer the workload does not exercise reads 0). Exits 0 only when
every correctness gate held.

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

runs every workload untraced and prints, per workload, each end-to-end figure
the benchmark defines, by name and unit, with its fail ratio.

    python3 perfbench/run.py --smoke

is the benchmark's own fast check: tiny inputs, every metric present with its
unit in both modes, and each workload's correctness gate made to fire.

Run it from the root of a checkout. Builds go to .bench_build/perfbench,
traces to .bench_build/perfbench-traces.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["fleet_soak", "eeprom_rw_hw", "eeprom_rw_sw", "verify_frontier"]
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170

# The figures a user of each path sees, by the names the --all report uses,
# and the perfbench metric each is read from. Workload-specific ones are
# per-layer metrics in BENCHMARK.json, because there every end-to-end metric
# must exist on every workload.
REPORT = [
    ("setup_s", "setup_s"),
    ("ops_per_host_s", "ops_per_host_s"),
    ("stacks_per_s", "fleet.stacks_per_s"),
    ("makespan_ms", "fleet.makespan_ms"),
    ("verify_s", "check.verify_s"),
    ("op_model_us_p50", "driver.op_model_us_p50"),
    ("op_model_us_p90", "driver.op_model_us_p90"),
    ("scl_khz", "sim.scl_khz"),
    ("scl_khz_err", "sim.scl_khz_err"),
    ("cpu_util", "driver.cpu_util"),
    ("cpu_util_err", "driver.cpu_util_err"),
    ("peak_rss_mb", "peak_rss_mb"),
]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no efeu sources at " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, report lines, result dict or None)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if trace:
        command += ["--trace-out", os.path.join(TRACE_DIR, "%s-seed%s.json" % (workload, seed))]
    command += list(extra)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, lines, None
    return done.returncode, lines[:-1], result


def select(result, specs):
    """The metrics BENCHMARK.json names, in its order. A missing end-to-end
    metric fails the run; a missing per-layer one is a layer the workload
    does not run, and reads 0."""
    chosen = {}
    missing = []
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            missing.append(spec["name"])
            got = {"value": 0, "unit": spec["unit"]}
        elif got["unit"] != spec["unit"]:
            missing.append(spec["name"] + " (unit " + got["unit"] + ")")
        chosen[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return chosen, missing


def run_one(args):
    spec = load_spec()
    build()
    code, lines, result = run_binary(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        fail("%s printed no result (exit %d)" % (args.workload, code), code or 1)
    for line in lines:
        print(line)
    specs = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    metrics, missing = select(result, specs)
    correct = result["correct"] and code == 0
    if missing and args.trace == 0:
        print("gate FAIL end-to-end metrics missing: " + ", ".join(missing))
        correct = False
    out = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
           "metrics": metrics}
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


def run_all(args):
    build()
    ok = True
    for workload in WORKLOADS:
        code, _, result = run_binary(workload, args.seed, args.seconds, False)
        if result is None:
            fail("%s printed no result (exit %d)" % (workload, code), code or 1)
        ok = ok and result["correct"] and code == 0
        metrics = result["metrics"]
        print("== %s (seed %s, %s s): correct=%s" % (workload, args.seed, args.seconds,
                                                     str(result["correct"]).lower()))
        for name, source in REPORT:
            if source in metrics:
                m = metrics[source]
                print("  %-16s %14.6g %s" % (name, m["value"], m["unit"]))
        print("  %-16s %14.6g ratio  (%d of %d)" % (
            "fail_ratio", result["failed"] / max(result["attempted"], 1), result["failed"],
            result["attempted"]))
    sys.exit(0 if ok else 1)


def run_smoke(_args):
    spec = load_spec()
    build()
    start = time.time()
    problems = []
    seen = set()  # per-layer metrics some workload produced
    for workload in WORKLOADS:
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            code, _, result = run_binary(workload, 1, 0.2, trace, ["--smoke"])
            if result is None or code != 0 or not result["correct"]:
                problems.append("%s trace=%d: exit %d, correct=%s" % (
                    workload, trace, code, result and result["correct"]))
                continue
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    if kind == "end_to_end":
                        problems.append("%s: no %s" % (workload, m["name"]))
                    continue
                if trace:
                    seen.add(m["name"])
                if got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, BENCHMARK.json says %s" % (
                        workload, m["name"], got["unit"], m["unit"]))
                if kind == "end_to_end" and not got["value"] > 0:
                    problems.append("%s: %s is %r" % (workload, m["name"], got["value"]))
            print("smoke %-15s trace=%d  ok  %d metrics" % (workload, trace,
                                                             len(result["metrics"])))
        code, lines, result = run_binary(workload, 1, 0.2, False, ["--smoke", "--break-gate"])
        fired = [line for line in lines if line.startswith("gate FAIL")]
        if code != 1 or result is None or result["correct"] or not fired:
            problems.append("%s: broken expectation did not fail the gate" % workload)
        else:
            print("smoke %-15s gate fires: %s" % (workload, fired[0][10:90]))
    # The verify_frontier smoke runs only the two quick configs, so the
    # per-config check metrics (check.<figure>.<config>) of the others are
    # produced by a full run alone.
    unseen = [m["name"] for m in spec["per_layer"] if m["name"] not in seen
              and not (m["name"].startswith("check.") and m["name"].count(".") == 2)]
    if unseen:
        problems.append("per-layer metrics no workload produced: " + ", ".join(unseen))
    for problem in problems:
        print("smoke FAIL " + problem)
    print("smoke %s in %.1f s" % ("FAILED" if problems else "passed", time.time() - start))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--smoke", action="store_true", help="fast check of the benchmark")
    args = parser.parse_args()
    if args.smoke:
        run_smoke(args)
    elif args.all:
        run_all(args)
    elif args.workload:
        run_one(args)
    else:
        parser.error("give --workload, --all or --smoke")


if __name__ == "__main__":
    main()
