#!/usr/bin/env python3
"""EXPLAIN stability check for the query planner.

Runs `lagraph_cli explain query '<pattern>' --gen kron 8` for a fixed set
of patterns, normalizes away the machine-dependent lines (planner
counters, elapsed wall time), and diffs the result
against tests/golden/explain_query.golden. A planner change that alters
step ordering, mask pushdown, CSE reuse, or estimates shows up as a
readable text diff; regenerate intentionally with --update.

Usage:
  python3 check_explain.py --cli PATH/TO/lagraph_cli [--update]
"""

import argparse
import difflib
import os
import subprocess
import sys

# Fixed patterns: a pinned chain (reordering + mask pushdown visible), a
# degree-filtered edge (filter step + CSE), and an undirected wedge.
PATTERNS = [
    "MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE d = 100 RETURN COUNT(*)",
    "MATCH (a)-[]->(b) WHERE a.out >= 8 AND a <> b RETURN a, b LIMIT 10",
    "MATCH (a)-[]-(b)-[]-(c) WHERE b = 3 RETURN COUNT(*)",
]

GRAPH_ARGS = ["--gen", "kron", "8"]

# Lines whose content is machine- or run-dependent, dropped before diffing.
VOLATILE_PREFIXES = ("planner counters:", "elapsed:")


def normalize(text):
    lines = []
    for line in text.splitlines():
        if line.startswith(VOLATILE_PREFIXES):
            continue
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def render(cli):
    chunks = []
    for pat in PATTERNS:
        proc = subprocess.run(
            [cli, "explain", "query", pat] + GRAPH_ARGS,
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"explain query failed (exit {proc.returncode}): {pat}")
        chunks.append(f"=== {pat}\n" + normalize(proc.stdout))
    return "".join(chunks)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cli", required=True, help="path to lagraph_cli")
    ap.add_argument("--golden", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "explain_query.golden"))
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden instead of checking")
    args = ap.parse_args()

    got = render(args.cli)
    if args.update:
        with open(args.golden, "w") as f:
            f.write(got)
        print(f"wrote {args.golden}")
        return 0

    try:
        with open(args.golden) as f:
            want = f.read()
    except FileNotFoundError:
        sys.exit(f"missing golden {args.golden} (run with --update)")
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile="explain_query.golden", tofile="lagraph_cli output")
        sys.stdout.writelines(diff)
        sys.exit("EXPLAIN output drifted from the golden "
                 "(regenerate with --update if intentional)")
    print("explain output matches the golden "
          f"({len(PATTERNS)} patterns, graph {' '.join(GRAPH_ARGS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
