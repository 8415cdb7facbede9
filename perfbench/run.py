#!/usr/bin/env python3
"""The repository benchmark: one command for every TATP workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (engine sources from
src/) into .bench_build/perfbench on first use, runs one workload and prints,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 runs the workload twice, untraced and then with the benchmark's
own spans on, and reports the traced run's per-layer metrics plus the
tracing overhead: each end-to-end metric's relative difference between the
two runs (overhead.<metric>). Spans are written to
.bench_build/spans/<workload>.jsonl (the last traced run of each workload).
"""

import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("tatp-commit", "tatp-large", "tatp-hotspot", "tatp-wire")
PASS_TIMEOUT_S = 85  # one pass; a traced run makes two within 180 s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_tatp")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_tatp", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_pass(args, spans_out=None):
    """Runs the binary once; returns its parsed result object or None."""
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if spans_out:
        cmd.append(f"--spans_out={spans_out}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {PASS_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {args.workload} exited {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the last output line is not JSON")
        return None


def relative_diff(traced, untraced):
    return (traced - untraced) / untraced if untraced else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")
    if not build():
        log("perfbench: build failed")
        return 1

    plain = run_pass(args)
    if plain is None:
        return 1
    if args.trace == 0:
        result = {"correct": plain["correct"], "attempted": plain["attempted"],
                  "failed": plain["failed"], "metrics": plain["end_to_end"]}
    else:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        traced = run_pass(args, os.path.join(spans_dir,
                                             f"{args.workload}.jsonl"))
        if traced is None:
            return 1
        metrics = dict(traced["per_layer"])
        for name, m in plain["end_to_end"].items():
            metrics[f"overhead.{name}"] = {
                "value": relative_diff(traced["end_to_end"][name]["value"],
                                       m["value"]),
                "unit": "ratio"}
        result = {"correct": plain["correct"] and traced["correct"],
                  "attempted": plain["attempted"] + traced["attempted"],
                  "failed": plain["failed"] + traced["failed"],
                  "metrics": metrics}
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
