#!/usr/bin/env python3
"""End-to-end campaign benchmark for the value-prediction reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid-cold --seed 1 --seconds 24 --trace 0

The workloads are defined in ``perfbench/grids.py`` and listed, with the
reason for each, in ``BENCHMARK.json``.  A run sets its workload up, then
repeats the measured round (one campaign or one sweep) until ``--seconds``
have passed, at least once, and checks every cell's simulated statistics
against ``perfbench/golden``.  It prints every metric by name and unit with
the host details, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; only the calls that time the
cells are wrapped.  ``--trace 1`` alternates those rounds with rounds that
wrap every layer (``perfbench/spans.py``), and reports the per-layer
metrics, the tracing overhead and the layer share table.  It writes its
spans to ``.perfbench/spans/``.  Stores and journals live in ``.perfbench/work/`` and
are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYER_NAMES, ROOTS, Tracer, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")
OUT = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters started per run to time the program's import.
IMPORT_PROBES = 3
IMPORT_STATEMENT = "import repro.runtime.campaign, repro.runtime.store, repro.core.sweep"

#: Program counters read around a measured phase.
COUNTERS = ("session.stream.hits", "session.stream.misses", "store.hits", "store.misses")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this run's cell digests as the golden file, after a program change "
             "that is meant to alter simulated statistics",
    )
    return parser.parse_args(argv)


def load_program() -> bool:
    """Put the checkout's ``src`` first on the path, at the program's defaults.

    Every ``REPRO_*`` override is dropped (trace and stream cache budgets,
    engines, verification), so the program runs as it ships.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return False
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    return True


def counter_window(counter):
    """A function giving each of ``COUNTERS``' rise since this call."""
    base = {name: counter(name) for name in COUNTERS}
    return lambda name: counter(name) - base[name]


def time_import() -> float:
    """Median wall time of a fresh interpreter importing the campaign stack."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_STATEMENT], cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure(workload, ctx, seconds: float, tracers):
    """Rounds until ``seconds`` have passed; round ``i`` runs inside
    ``tracers[i % len(tracers)]``, and every tracer gets at least one."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) % len(tracers) or not rounds or time.perf_counter() - start < seconds:
        with tracers[len(rounds) % len(tracers)] as tracer:
            rounds.append(workload.run_round(ctx, tracer))
    return rounds


def check(rounds, golden):
    """(attempted, failed) over every cell of every round."""
    attempted = failed = 0
    for round_ in rounds:
        for cell_id, digest in round_.digests.items():
            attempted += 1
            failed += digest is None or digest != golden.get(cell_id)
        failed += len(round_.broken)
    return attempted, min(failed, attempted)


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def end_to_end(rounds, setup_s: float):
    latencies = [value for round_ in rounds for value in round_.latencies]
    cells = sum(len(round_.digests) for round_ in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (cells / sum(round_.wall for round_ in rounds), "1/s"),
        "cell_s_p50": (statistics.median(latencies), "s"),
        "cell_s_p90": (percentile(latencies, 0.90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(latencies)


def per_layer(totals, window, traced_rounds, untraced_rounds):
    """Per-layer metrics of a traced phase, and each layer's share of it."""
    wall = sum(round_.wall for round_ in traced_rounds)
    untraced = sum(round_.wall for round_ in untraced_rounds) / len(untraced_rounds)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def rate(layer, scale):
        seconds = get(layer, "self_s")
        return get(layer, "amount") / seconds / scale if seconds > 0 else 0.0

    def ratio(hits, misses):
        hits, misses = window(hits), window(misses)
        return hits / (hits + misses) if hits + misses else 0.0

    covered = sum(entry["self_s"] for name, entry in totals.items() if name not in ROOTS)
    metrics = {
        "uarch.pipeline.calls": (get("uarch.pipeline", "calls"), "count"),
        "uarch.pipeline.self_s": (get("uarch.pipeline", "self_s"), "s"),
        "uarch.pipeline.kcycles_per_s": (rate("uarch.pipeline", 1e3), "kcycles/s"),
        "uarch.stream.calls": (get("uarch.stream", "calls"), "count"),
        "uarch.stream.self_s": (get("uarch.stream", "self_s"), "s"),
        "uarch.stream.kentries_per_s": (rate("uarch.stream", 1e3), "kentries/s"),
        "core.session.stream.hit_ratio": (
            ratio("session.stream.hits", "session.stream.misses"), "ratio"),
        "sim.ref_trace.calls": (get("sim.ref_trace", "calls"), "count"),
        "sim.ref_trace.self_s": (get("sim.ref_trace", "self_s"), "s"),
        "sim.ref_trace.minstr_per_s": (rate("sim.ref_trace", 1e6), "Minstr/s"),
        "profiling.train_pass.calls": (get("profiling.train_pass", "calls"), "count"),
        "profiling.train_pass.self_s": (get("profiling.train_pass", "self_s"), "s"),
        "profiling.train_pass.minstr_per_s": (rate("profiling.train_pass", 1e6), "Minstr/s"),
        "profiling.lists.self_s": (get("profiling.lists", "self_s"), "s"),
        "workloads.program.self_s": (get("workloads.program", "self_s"), "s"),
        "workloads.memory.self_s": (get("workloads.memory", "self_s"), "s"),
        "compiler.marking.self_s": (get("compiler.marking", "self_s"), "s"),
        "compiler.realloc.self_s": (get("compiler.realloc", "self_s"), "s"),
        "analysis.verifier.calls": (get("analysis.verifier", "calls"), "count"),
        "analysis.verifier.self_s": (get("analysis.verifier", "self_s"), "s"),
        "runtime.campaign.sidecar_s": (get("runtime.campaign.sidecar", "total_s"), "s"),
        "runtime.campaign.report_s": (get("runtime.campaign.report", "total_s"), "s"),
        "runtime.store.key_s": (get("runtime.store.key", "total_s"), "s"),
        "runtime.store.get_s": (get("runtime.store.get", "total_s"), "s"),
        "runtime.store.put_s": (get("runtime.store.put", "total_s"), "s"),
        "runtime.store.hit_ratio": (ratio("store.hits", "store.misses"), "ratio"),
        "runtime.journal.calls": (get("runtime.journal", "calls"), "count"),
        "runtime.journal.record_s": (get("runtime.journal", "total_s"), "s"),
        "core.experiment.self_s": (get("core.experiment", "self_s"), "s"),
        "core.experiment.payload_s": (get("core.experiment.payload", "total_s"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_s": (wall - covered, "s"),
        "trace.coverage": (covered / wall, "ratio"),
        "trace.overhead": ((wall / len(traced_rounds)) / untraced - 1.0, "ratio"),
    }
    shares = {name: entry["self_s"] / wall for name, entry in totals.items() if name not in ROOTS}
    shares["(uncovered)"] = (wall - covered) / wall
    return metrics, shares


def print_metrics(title: str, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")


def write_golden(path: str, name: str, rounds) -> dict:
    digests = {}
    for round_ in rounds:
        for cell_id, digest in round_.digests.items():
            if digest is None or digests.setdefault(cell_id, digest) != digest:
                raise SystemExit(f"perfbench: cell {cell_id} did not reproduce; golden not written")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "cells": dict(sorted(digests.items()))}, handle, indent=1)
        handle.write("\n")
    return digests


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        return 2
    import grids

    workloads = grids.make_workloads()
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    golden_path = os.path.join(GOLDEN, f"{workload.golden}.json")
    golden = {}
    if not args.write_golden:
        with open(golden_path, encoding="utf-8") as handle:
            golden = json.load(handle)["cells"]

    work_root = os.path.join(OUT, "work", str(os.getpid()))
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)
    try:
        ctx = grids.Context(work_root, args.seed)
        start = time.perf_counter()
        workload.setup(ctx)
        setup_s = time.perf_counter() - start + time_import()

        # A traced run alternates untraced and traced rounds, so that the
        # tracing overhead compares rounds run close together in time.
        tracers = [Tracer(workload.clock_layers, grids.counter)]
        if args.trace:
            tracers.append(Tracer(LAYER_NAMES, grids.counter))
        caches = counter_window(grids.counter)
        every = measure(workload, ctx, args.seconds, tracers)
        cache_counts = [caches(name) for name in COUNTERS]
        rounds, traced = every[::len(tracers)], every[1::len(tracers)]
        checked = every + ([workload.cold] if hasattr(workload, "cold") else [])
        if args.trace:
            tracer = tracers[1]
            layer_metrics, shares = per_layer(layer_totals(tracer.spans), caches, traced, rounds)
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            spans_path = os.path.join(OUT, "spans", f"{workload.name}.seed{args.seed}.jsonl")
            tracer.write(spans_path)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if args.write_golden:
        golden = write_golden(golden_path, workload.golden, checked)
    attempted, failed = check(rounds, golden)
    all_attempted, all_failed = check(checked, golden)
    metrics, samples = end_to_end(rounds, setup_s)

    print(f"perfbench: workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: python {platform.python_version()} ({platform.python_implementation()}) "
          f"nproc={os.cpu_count()} {platform.platform()}")
    print(f"measured: {len(rounds)} round(s), {attempted} cells, {samples} latency samples, "
          f"cell_fail_frac {failed / attempted:.6g}; every checked cell: "
          f"{all_failed} failed of {all_attempted}")
    print(f"caches: stream {cache_counts[0]} hits / {cache_counts[1]} misses, "
          f"store {cache_counts[2]} hits / {cache_counts[3]} misses")
    print_metrics("end to end (tracing off):", metrics)
    output = metrics
    if args.trace:
        print_metrics("per layer (traced):", layer_metrics)
        print("layer self-time shares of the traced wall:")
        for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"  {layer:36s} {100 * share:7.2f} %")
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
        output = layer_metrics
    if all_failed:
        print(f"perfbench: {all_failed} of {all_attempted} cells failed the output check",
              file=sys.stderr)
    print(json.dumps({
        "correct": all_failed == 0,
        "attempted": all_attempted,
        "failed": all_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in output.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
