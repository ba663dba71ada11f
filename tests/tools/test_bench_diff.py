#!/usr/bin/env python3
"""Check tools/bench_diff.py's --min-ms floor on two synthetic result files.

    python3 tests/tools/test_bench_diff.py tools/bench_diff.py

A cell whose baseline is under the floor but whose candidate is far above it
must be flagged; a cell that stays under the floor on both sides must not.
Exits non-zero on the first violated expectation.
"""
import json
import os
import subprocess
import sys
import tempfile


def bench(cells):
    return {"schema": "lagraph-bench-v1", "suite": "synthetic", "scale": 1,
            "entries": [{"op": op, "graph": "g", "threads": 1, "reps": 3,
                         "median_ms": ms} for op, ms in cells.items()]}


def run_diff(script, base, cand):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in (("base.json", base), ("cand.json", cand)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(data, f)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, script, *paths, "--threshold", "0.10",
             "--min-ms", "1.0"], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main():
    script = sys.argv[1]
    failures = []

    # Sub-floor baseline, slow candidate: 0.248 -> 75.996 ms must fail.
    code, out = run_diff(script, bench({"mxv_pull": 0.248}),
                         bench({"mxv_pull": 75.996}))
    if code != 1 or "REGRESSION" not in out:
        failures.append("sub-floor -> slow cell was not flagged:\n" + out)

    # Both sides under the floor: 0.2 -> 0.5 ms is noise, not a regression.
    code, out = run_diff(script, bench({"vxm_push": 0.2}),
                         bench({"vxm_push": 0.5}))
    if code != 0 or "not flagged" not in out:
        failures.append("cell under the floor on both sides was flagged:\n"
                        + out)

    for f in failures:
        print("FAIL: " + f)
    if not failures:
        print("bench_diff --min-ms floor: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
