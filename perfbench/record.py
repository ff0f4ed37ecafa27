#!/usr/bin/env python3
"""Measure the benchmark's spread and record its baseline and layer shares.

Run from the root of a checkout::

    python3 perfbench/record.py --runs 10

For each workload in ``BENCHMARK.json``, or each one named with
``--workloads``, this makes ``--runs`` untraced runs, seeds 1..N, each in a
fresh process.  It reports each end-to-end metric's median and its spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  Then one traced run (seed 0) gives the per-layer
metrics and the layer self-time shares of the traced wall.  Everything,
with the host details, goes to ``perfbench/RECORD.json``.
Exits 1 if any run reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from spans import ROOTS, layer_totals, load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(benchmark, workload: str, seed: int, trace: int) -> dict:
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def shares(path: str) -> dict:
    spans = load(path)
    totals = layer_totals(spans)
    wall = sum(span.end - span.start for span in spans if span.parent < 0)
    table = {name: entry["self_s"] / wall for name, entry in totals.items() if name not in ROOTS}
    table["(uncovered)"] = sum(totals[name]["self_s"] for name in ROOTS if name in totals) / wall
    return {name: round(share, 4) for name, share in sorted(table.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workloads", nargs="*",
        help="default: the workloads in BENCHMARK.json; others in grids.py may be named too",
    )
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    record = {
        "host": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "run_seconds": benchmark["run_seconds"],
        "workloads": {},
    }
    listed = {workload["name"]: workload["why"] for workload in benchmark["workloads"]}
    wrong = 0
    for name in args.workloads or list(listed):
        values = {}
        for seed in range(1, args.runs + 1):
            result = bench_run(benchmark, name, seed, trace=0)
            wrong += not result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{metric}={entry['value']:.6g}" for metric, entry in result["metrics"].items()),
                flush=True)
        end_to_end = {}
        for metric, series in values.items():
            end_to_end[metric] = {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds[metric],
                "values": series,
            }
            print(f"  {metric:12s} median {statistics.median(series):.6g} "
                  f"spread {spread(series):.4f} (bound {bounds[metric]})", flush=True)
        traced = bench_run(benchmark, name, 0, trace=1)
        wrong += not traced["correct"]
        layer_shares = shares(os.path.join(ROOT, ".perfbench", "spans", f"{name}.seed0.jsonl"))
        record["workloads"][name] = {
            "in_benchmark_json": name in listed,
            "why": listed.get(name),
            "end_to_end": end_to_end,
            "per_layer": {metric: entry["value"] for metric, entry in traced["metrics"].items()},
            "layer_shares": layer_shares,
        }
        print(f"  shares {layer_shares}", flush=True)
    # The two anomalies that ROADMAP items 4 and 2 set out to remove.
    measured = record["workloads"]
    if "sweep-warm" in measured:
        record["anomalies"] = {"sweep-warm stream cache hit ratio":
                               measured["sweep-warm"]["per_layer"]["core.session.stream.hit_ratio"]}
    if "store-replay" in measured:
        layers = measured["store-replay"]["per_layer"]
        record.setdefault("anomalies", {})["store-replay batch-digest sidecar share of the wall"] = (
            layers["runtime.campaign.sidecar_s"] / layers["trace.wall_s"])
    with open(os.path.join(HERE, "RECORD.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
