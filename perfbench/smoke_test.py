#!/usr/bin/env python3
"""Tiny-scale smoke of every benchmark workload.

    python3 perfbench/smoke_test.py <path to perfbench_tatp>

Runs each workload untraced and traced at --scale=tiny and asserts that the
correctness gate passes, that every metric is printed with a unit and a
finite value, that the client-thread shares sum to 1, and that the metric
names agree with BENCHMARK.json when it sits next to perfbench/.
"""

import json
import math
import os
import subprocess
import sys

WORKLOADS = ("tatp-commit", "tatp-large", "tatp-hotspot", "tatp-wire")
SHARES = ("workload.build_share", "engine.submit_share", "engine.wait_share",
          "server.submit_share", "server.poll_share", "client.other_share")
HERE = os.path.dirname(os.path.abspath(__file__))


def run(binary, workload, spans_out=None):
    cmd = [binary, f"--workload={workload}", "--seed=7", "--seconds=1",
           "--scale=tiny"]
    if spans_out:
        cmd.append(f"--spans_out={spans_out}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, f"{workload}: gate failed\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    for group in ("end_to_end", "per_layer"):
        for name, m in result[group].items():
            assert set(m) == {"value", "unit"}, (workload, name, m)
            assert m["unit"], (workload, name)
            assert math.isfinite(m["value"]), (workload, name, m)
            # Every metric is also printed in the human-readable report.
            assert any(l.split()[:1] == [name] and l.split()[-1] == m["unit"]
                       for l in lines[:-1]), (workload, name)
    return result


def check_benchmark_json(e2e, layer):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        bench = json.load(f)
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert want_e2e == {n: m["unit"] for n, m in e2e.items()}, want_e2e
    got_layer = {n: m["unit"] for n, m in layer.items()}
    got_layer.update({f"overhead.{n}": "ratio" for n in e2e})
    assert want_layer == got_layer, sorted(set(want_layer) ^ set(got_layer))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def main():
    binary = sys.argv[1]
    spans = os.path.join(os.getcwd(), "smoke_spans.jsonl")
    for w in WORKLOADS:
        plain = run(binary, w)
        traced = run(binary, w, spans)
        layer = traced["per_layer"]
        total = sum(layer[s]["value"] for s in SHARES)
        assert abs(total - 1.0) < 1e-6, (w, total)
        repartitions = layer["engine.repartitions"]["value"]
        assert (repartitions >= 1) == (w == "tatp-hotspot"), (w, repartitions)
        assert os.path.getsize(spans) > 0
        check_benchmark_json(plain["end_to_end"], layer)
        print(f"{w}: ok ({plain['attempted']} + {traced['attempted']} txns)")
    os.remove(spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
