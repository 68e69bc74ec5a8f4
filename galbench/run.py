#!/usr/bin/env python3
"""Builds the galbench binary from source and runs one benchmark workload.

    python3 galbench/run.py --workload traverse|mine|ooc|gnn --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root. The gal library and the binary are built
with CMake (Release) into $CARGO_TARGET_DIR, or .bench_build/ when that is
unset; later runs only re-check the build. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics, where each
metric is {"value": ..., "unit": ...}. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 its per_layer metrics. The line before
it records the effective configuration (threads, nproc, SIMD ISA, seed).
Exits non-zero, without a result line, when the build, the run or the
output check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "galbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("galbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; kills and reaps it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        if run_checked(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_checked(["cmake", "--build", out_dir, "-j", jobs],
                   BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(out_dir, "galbench")


def main():
    # A terminated run.py still reaps its child (see run_checked's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)

    # A private directory per process for on-disk state (the ooc shard
    # store), removed on every exit path.
    tmp_root = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmpdir:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size, "--tmpdir", tmpdir]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        fail("galbench exited with code %d" % proc.returncode)

    lines = stdout.strip().splitlines()
    if not lines:
        fail("galbench printed nothing")
    raw = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    names = {m["name"] for m in declared}
    unexpected = sorted(set(raw["metrics"]) - names)
    if unexpected:
        fail("undeclared metrics: %s" % unexpected)
    if args.trace == "1":
        # A workload reports only the layers it uses; the ones it bypasses
        # did no work.
        for name in names - set(raw["metrics"]):
            raw["metrics"][name] = 0
    elif set(raw["metrics"]) != names:
        fail("missing metrics: %s" % sorted(names - set(raw["metrics"])))
    for name, value in raw["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number: %r" % (name, value))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
