#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads lib_kron,lib_road,serve_mixed \\
        --seeds 1-10 [--trace 0|1] [--seconds S] [--out summary.json]

Run from the repository root. For each workload it runs perfbench/run.py
once per seed, then prints every metric's median, quartiles and spread
(interquartile range as a share of the median, the figure BENCHMARK.json's
bounds are set against). --out writes the same figures as JSON, merged
into the file under "trace0" or "trace1"; the committed
perfbench/baseline.json is such a summary.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "n": len(values)}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="lib_kron,lib_road,serve_mixed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report, failed = {}, False
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            rc, result = run_once(workload, seed, seconds, args.trace)
            if rc != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, rc))
                failed = True
                continue
            results.append(result)
        if not results:
            continue
        report[workload] = summarize(results)
        print("%s: %d runs" % (workload, len(results)))
        for name, s in report[workload].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound:
                flag = "  SPREAD ABOVE BOUND %.2f" % bound
                failed = True
            print("  %-30s %14.5f %-5s spread %.3f%s" %
                  (name, s["median"], s["unit"], s["spread"], flag))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        section = doc.setdefault("trace%d" % args.trace, {})
        for workload, summary in report.items():
            section[workload] = {"seconds": seconds, "seeds": args.seeds,
                                 "metrics": summary}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
