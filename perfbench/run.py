#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload lib_kron|lib_road|serve_mixed \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (a standalone CMake project over ../src) into .bench_build/
(or $CARGO_TARGET_DIR); later runs rebuild incrementally. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
That result holds exactly the metrics BENCHMARK.json lists for the mode
(end_to_end with --trace 0, per_layer with --trace 1); a per-layer metric
the workload does not exercise reads 0. The traced run writes its span
file to .bench_build/traces/. The exit code is the benchmark's: 0 when
every answer was correct, non-zero otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def conform(result, trace):
    """Order the result's metrics as BENCHMARK.json lists them for the mode.
    Returns the error text, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.pop(m["name"], None)
        if got is None:
            if not trace:
                return "metric %s was not measured" % m["name"]
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            return "metric %s has unit %s" % (m["name"], got["unit"])
        metrics[m["name"]] = got
    if measured:
        return "metric %s is not listed" % next(iter(measured))
    result["metrics"] = metrics
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["lib_kron", "lib_road", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    exe = build(build_root)
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    lines = proc.stdout.rstrip("\n").split("\n")
    last = lines.pop() if lines and lines[-1].startswith("{") else None
    sys.stdout.write("".join(line + "\n" for line in lines if line))
    if last is None:
        return proc.returncode or 1
    result = json.loads(last)
    error = conform(result, args.trace)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
