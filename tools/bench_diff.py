#!/usr/bin/env python3
"""Compare two lagraph bench JSON files and flag regressions.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Both files normally follow the same schema (a mismatch warns and diffs the
cells that still match, rather than refusing), either of:

  lagraph-bench-v1 (bench_kernels / table3_gap_suite):
    {"schema": "lagraph-bench-v1", "suite": "...", "scale": N,
     "entries": [{"op", "graph", "threads", "reps", "median_ms"}, ...]}
    Entries are matched on the (op, graph, threads) key and compared on
    median_ms (lower is better).

  lagraph-service-bench-v1 (bench_service_throughput --mutation-mix):
    {"schema": "lagraph-service-bench-v1", "suite": "...", "scale": N,
     "entries": [{"workload", "op", "threads", "queries", "qps",
                  "p50_ms", "p95_ms", "p99_ms", ...}, ...]}
    Entries are matched on the (op, workload, threads) key; qps is inverted
    to ms-per-query so the same lower-is-better comparison applies (a qps
    drop beyond the threshold flags a regression).

A candidate entry whose cost exceeds the baseline's by more than the
threshold (default 10%) is flagged as a regression; the script prints a
table of all matched cells and exits 1 if any regression was found. Cells
present on only one side are reported but never fail the run (graph scale or
thread sweep may legitimately differ between commits).

Entries may optionally carry p50_ms / p95_ms / p99_ms percentile fields
(written by newer harnesses), and service entries may additionally carry
queue_wait_p50_ms / queue_wait_p95_ms / queue_wait_p99_ms (the submit →
worker-pickup share of the end-to-end latency, written since the telemetry
work). When a percentile is present on *both* sides of a matched cell its
ratio is shown alongside the median; all percentiles are informational only
and never flag a regression (with few reps they collapse toward the max and
are too noisy to gate on). A side lacking these fields — an older JSON —
diffs without warnings; the extra columns simply don't appear.

Entries may also carry memory fields (bytes_per_edge, peak_rss_mb — written
by bench_kernels since the 32-bit index storage work). Unlike percentiles,
memory IS gated: a matched cell whose candidate memory exceeds the baseline's
by more than the same threshold flags a regression. bytes_per_edge is
deterministic (pure storage accounting); peak_rss_mb is an OS high-water mark
but moves far more than 10% only when something real regressed.
"""

import argparse
import json
import sys

# Percentile fields are informational: compared when present on both sides,
# silently ignored otherwise (older JSONs simply lack the newer columns).
PCT_FIELDS = (
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "queue_wait_p50_ms",
    "queue_wait_p95_ms",
    "queue_wait_p99_ms",
)
PCT_LABELS = {
    "p50_ms": "p50",
    "p95_ms": "p95",
    "p99_ms": "p99",
    "queue_wait_p50_ms": "qw50",
    "queue_wait_p95_ms": "qw95",
    "queue_wait_p99_ms": "qw99",
}


def load_entries(path, role):
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        hint = ""
        if role == "baseline":
            hint = (
                "\nhint: no baseline has been recorded yet -- run the bench "
                "once and copy its JSON to this path (see scripts/check.sh)"
            )
        sys.exit(f"bench_diff: {role} file not found: {path}{hint}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_diff: {path} is not valid JSON ({e}); "
                 "re-run the bench to regenerate it")
    schema = data.get("schema")
    if schema not in ("lagraph-bench-v1", "lagraph-service-bench-v1"):
        # A newer harness may bump the version suffix while keeping the entry
        # layout; as long as it is one of ours, warn and try to diff rather
        # than refusing -- unmatched keys simply fall out as one-sided.
        if isinstance(schema, str) and schema.startswith("lagraph-"):
            print(f"warning: {path}: unrecognized schema version {schema!r}; "
                  "attempting to diff anyway", file=sys.stderr)
        else:
            sys.exit(f"{path}: unexpected schema {schema!r}")
    out = {}
    pcts = {}
    mems = {}
    for e in data.get("entries", []):
        if schema == "lagraph-service-bench-v1":
            # Throughput cells: invert qps to ms-per-query so the shared
            # lower-is-better comparison below applies unchanged.
            key = (e["op"], e["workload"], int(e["threads"]))
            qps = float(e["qps"])
            out[key] = 1e3 / qps if qps > 0 else float("inf")
        else:
            key = (e["op"], e["graph"], int(e["threads"]))
            out[key] = float(e["median_ms"])
        pcts[key] = {
            p: float(e[p])
            for p in PCT_FIELDS
            if p in e and float(e[p]) >= 0
        }
        mems[key] = {
            m: float(e[m])
            for m in ("bytes_per_edge", "peak_rss_mb")
            if m in e and float(e[m]) >= 0
        }
    return data, out, pcts, mems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative slowdown that counts as a regression (default 0.10)",
    )
    ap.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        help="cells whose baseline and candidate medians are both below "
        "this are shown but never flagged (sub-millisecond timings are noise "
        "on loaded machines)",
    )
    args = ap.parse_args()

    base_meta, base, base_pct, base_mem = load_entries(args.baseline,
                                                       "baseline")
    cand_meta, cand, cand_pct, cand_mem = load_entries(args.candidate,
                                                       "candidate")
    if base_meta.get("schema") != cand_meta.get("schema"):
        # Not fatal: a baseline recorded before a schema bump is still worth
        # diffing (keys that don't line up fall out as one-sided below).
        print(
            f"warning: schema mismatch (baseline "
            f"{base_meta.get('schema')!r}, candidate "
            f"{cand_meta.get('schema')!r}) -- matched cells are compared, "
            "the rest are reported as one-sided",
            file=sys.stderr,
        )
    if base_meta.get("scale") != cand_meta.get("scale"):
        print(
            f"note: scales differ (baseline {base_meta.get('scale')}, "
            f"candidate {cand_meta.get('scale')}) -- ratios may be meaningless"
        )

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    if not shared:
        print("bench_diff: no overlapping (op, graph, threads) keys between "
              f"{args.baseline} and {args.candidate}")
        print(f"  baseline has {len(base)} entr{'y' if len(base) == 1 else 'ies'}, "
              f"candidate has {len(cand)}")
        if only_base:
            print(f"  e.g. baseline-only key:  {only_base[0]}")
        if only_cand:
            print(f"  e.g. candidate-only key: {only_cand[0]}")
        print("  nothing to compare -- were the two runs produced by the same "
              "suite at the same scale?")
        return 0

    regressions = []
    print(f"{'op':24s} {'graph':12s} {'thr':>3s} {'base ms':>12s} "
          f"{'cand ms':>12s} {'ratio':>7s}")
    for key in shared:
        op, graph, threads = key
        b, c = base[key], cand[key]
        ratio = c / b if b > 0 else float("inf")
        flag = ""
        if b > 0 and ratio > 1.0 + args.threshold:
            # Exempt only a cell that stays under the floor on both sides:
            # a sub-floor baseline that turns slow is a real regression.
            if b < args.min_ms and c < args.min_ms:
                flag = "  (slow, below --min-ms floor: not flagged)"
            else:
                flag = "  << REGRESSION"
                regressions.append((key, "median_ms", b, c, ratio))
        pct = ""
        shared_pcts = [
            p
            for p in PCT_FIELDS
            if p in base_pct.get(key, {}) and p in cand_pct.get(key, {})
        ]
        if shared_pcts:
            parts = []
            for p in shared_pcts:
                pb, pc = base_pct[key][p], cand_pct[key][p]
                pr = pc / pb if pb > 0 else float("inf")
                parts.append(f"{PCT_LABELS[p]} {pr:.2f}x")
            pct = "  [" + ", ".join(parts) + "]"
        mem = ""
        shared_mems = [
            m
            for m in ("bytes_per_edge", "peak_rss_mb")
            if m in base_mem.get(key, {}) and m in cand_mem.get(key, {})
        ]
        if shared_mems:
            parts = []
            for m in shared_mems:
                mb, mc = base_mem[key][m], cand_mem[key][m]
                mr = mc / mb if mb > 0 else float("inf")
                label = "B/edge" if m == "bytes_per_edge" else "rss"
                tag = ""
                if mb > 0 and mr > 1.0 + args.threshold:
                    tag = " <<MEM"
                    regressions.append((key, m, mb, mc, mr))
                parts.append(f"{label} {mr:.2f}x{tag}")
            mem = "  {" + ", ".join(parts) + "}"
        print(f"{op:24s} {graph:12s} {threads:3d} {b:12.3f} {c:12.3f} "
              f"{ratio:7.2f}{flag}{pct}{mem}")

    for key in only_base:
        print(f"only in baseline:  {key}")
    for key in only_cand:
        print(f"only in candidate: {key}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) above "
              f"{args.threshold:.0%} threshold:")
        for (op, graph, threads), metric, b, c, ratio in regressions:
            unit = "ms" if metric == "median_ms" else (
                "B/edge" if metric == "bytes_per_edge" else "MB")
            print(f"  {op} on {graph} @{threads}t [{metric}]: "
                  f"{b:.3f} {unit} -> {c:.3f} {unit} ({ratio:.2f}x)")
        return 1
    print(f"\nno regressions above {args.threshold:.0%} "
          f"({len(shared)} cells compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
