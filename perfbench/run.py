#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The program is built from the repository's sources into .bench_build/ at
the repository root (Release, reused across runs), then run once. Its
report is passed through; the last line printed is one JSON object with
the keys correct, attempted, failed and metrics. BENCHMARK.json is the one
list of metric names and units: a traced run reads 0 for each per_layer
metric its workload does not exercise, and before printing the object this
script checks that it carries exactly the metrics BENCHMARK.json names for
the mode (end_to_end with --trace 0, per_layer with --trace 1), each with
its unit and a finite number; otherwise it exits 1 without a result. It exits with the program's code otherwise (1 if a correctness
check failed).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the measured sources: library, public headers, benchmark."""
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark into BUILD."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as fh:
                    sys.stderr.write(fh.read()[-4000:])
                fail("build failed (%s)" % log_path)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json names for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def complete(result, expected):
    """Adds each expected metric the result lacks with the value 0: a traced
    run does not report the layers its workload does not exercise (no
    learner on kpi_ingest)."""
    if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
        for name, unit in expected:
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})


def validate(result, expected):
    """Returns a list of problems with one result object (empty if none)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            problems.append("%s is not a whole number" % k)
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    names = {n for n, _ in expected}
    for extra in sorted(set(metrics) - names):
        problems.append("unexpected metric %s" % extra)
    for name, unit in expected:
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("metric %s missing or malformed" % name)
            continue
        if m["unit"] != unit:
            problems.append("metric %s has unit %r, not %r" % (name, m["unit"], unit))
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("metric %s value is not a finite number" % name)
    return problems


def run(args):
    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("program exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1][:200])
    expected = expected_metrics(args.trace)
    if args.trace:
        complete(result, expected)
    problems = validate(result, expected)
    if problems:
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        fail("result does not match BENCHMARK.json")
    if proc.returncode != 0 and result.get("correct"):
        fail("program failed without reporting a failed check")
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


def selftest():
    build()
    rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 0 if rc == 0 and py == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["cell_plane", "kpi_ingest"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")
    sys.exit(run(args))


if __name__ == "__main__":
    main()
