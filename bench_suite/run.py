#!/usr/bin/env python3
"""Builds bench_suite from this checkout and runs one workload.

    python3 bench_suite/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout of the repository: the build goes to
$CARGO_TARGET_DIR (default .bench_build at the checkout root), working
files to a per-run directory inside it. Prints the run's stamp line and,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Exits non-zero, without a result
line, when the build, the run or the metric check against
BENCHMARK.json fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(out_dir):
    if not (out_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out_dir), "--target",
                    "bench_suite", "gz_shard", "-j", jobs],
                   stdout=sys.stderr, check=True)


def stop_group(pgid):
    """SIGKILLs whatever the run left in its process group (gz_shard
    listeners of a crashed run) and waits until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args, out_dir):
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(out_dir / "bench_suite"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work_dir)]
    if args.trace:  # The last traced run of each workload is kept.
        cmd += ["--trace", str(out_dir / f"trace-{args.workload}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        sys.exit(f"bench_suite: timed out after {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"bench_suite: exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        sys.exit("bench_suite: no output")
    return json.loads(lines[-1])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"bench_suite: build failed: {e}")
    doc = run(args, out_dir)
    result = doc["workloads"][0]
    metrics = result["per_layer" if args.trace else "metrics"]
    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        sys.exit(f"bench_suite: metrics {sorted(got.items())} do not match "
                 f"BENCHMARK.json {sorted(declared.items())}")
    if any(m["value"] is None for m in metrics.values()):
        sys.exit("bench_suite: a metric has no value (no pass completed)")
    print(json.dumps({"stamp": doc["stamp"], "workload": args.workload,
                      "passes": result["passes"],
                      "traced_passes": result["traced_passes"],
                      "query_samples": result["query_samples"]}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
