#!/usr/bin/env python3
"""Repeatability and A/B check for bench_suite.

    python3 bench_suite/bench_suite_check.py [--runs N] [--workloads a,b]
        [--seed-base S] [--json FILE] A_DIR [B_DIR]

Runs bench_suite/run.py N times per side and workload for A_DIR's
BENCHMARK.json run_seconds, one --seed per run index (the same seeds on
both sides), alternating which side goes first. Each workload's runs
form one block, so its spread reflects the minutes the block took
rather than the whole check. Prints, per
workload and end-to-end metric, each side's median and quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median. Flags:
  - a spread, except setup_s's, above the metric's bound;
  - a run that reports a failed operation;
  - with B_DIR, a pair of medians that differ by more than the bound
    (marked "worse" or "better" for B).
A run that exits non-zero stops the check at once; run.py does so when
its metric names or units differ from BENCHMARK.json.
Exits 1 if anything was flagged. For a same-commit repeatability check
pass one checkout as both A_DIR and B_DIR.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench_suite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path, nargs="?")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    spec = json.loads((args.a_dir / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    sides = {"A": args.a_dir} if args.b_dir is None else {
        "A": args.a_dir, "B": args.b_dir}

    values = {side: {w: {m: [] for m in metrics} for w in workloads}
              for side in sides}
    flagged = False
    for workload in workloads:
        for i in range(args.runs):
            seed = args.seed_base + i
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"FLAG {side} {workload} seed {seed}: "
                          f"{result['failed']} of {result['attempted']} "
                          "operations failed")
                    flagged = True
                for name in metrics:
                    values[side][workload][name].append(
                        result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs per side done", flush=True)

    report = {}
    for workload in workloads:
        print(f"\n{workload}")
        for name, m in metrics.items():
            bound = m["bound"]
            stats = {side: summarize(values[side][workload][name])
                     for side in sides}
            report.setdefault(workload, {})[name] = stats
            row = f"  {name:15s} bound {bound:5.3f}"
            for side, s in stats.items():
                row += (f" | {side} med {s['median']:10.4f} "
                        f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                        f"spread {s['spread']:6.3f}")
                if name != "setup_s" and s["spread"] > bound:
                    row += " SPREAD>BOUND"
                    flagged = True
            if "B" in stats:
                a, b = stats["A"]["median"], stats["B"]["median"]
                change = (b - a) / a
                worse = change < 0 if m["better"] == "higher" else change > 0
                if abs(change) > bound:
                    verdict = "worse" if worse else "better"
                    row += f" | B {verdict} by {abs(change):.3f}"
                    flagged = True
            print(row)
    if args.json:
        args.json.write_text(json.dumps(
            {"runs": args.runs, "seed_base": args.seed_base,
             "seconds": seconds, "values": values, "summary": report},
            indent=1) + "\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
