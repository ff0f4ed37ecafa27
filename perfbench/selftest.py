#!/usr/bin/env python3
"""Layer-coverage self-test: one small-budget traced round of each workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Every layer a workload declares (``Workload.layers`` in ``grids.py``) must
do work in its traced round, and the layers' self times must cover at least
95% of the traced wall, so a call site that moves cannot silently zero a
layer.  The sweep must re-prepare every stream and the replay must come
wholly from the store, as at full size.  Prints one line per workload and
exits 1 if anything fails.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from spans import LAYER_NAMES, Tracer, layer_totals

#: Instruction budgets of the smoke rounds.
SMOKE_COLD = 600
SMOKE_SWEEP = 1_200
MIN_COVERAGE = 0.95


def smoke(workload, ctx, counter) -> list:
    """Failures of one traced round of ``workload``."""
    workload.setup(ctx)
    window = run.counter_window(counter)
    tracer = Tracer(LAYER_NAMES, counter)
    rounds = run.measure(workload, ctx, 0.0, [tracer])
    totals = layer_totals(tracer.spans)
    metrics, _ = run.per_layer(totals, window, rounds, rounds)
    cells = len(rounds[0].digests)
    failures = [f"{layer} did no work" for layer in workload.layers
                if not totals.get(layer, {}).get("calls")]
    coverage = metrics["trace.coverage"][0]
    if coverage < MIN_COVERAGE:
        failures.append(f"trace.coverage {coverage:.4f} < {MIN_COVERAGE}")
    if rounds[0].broken:
        failures.append(f"broken cells: {rounds[0].broken[:3]}")
    if None in rounds[0].digests.values():
        failures.append("a cell did not complete")
    if workload.name == "sweep-warm" and metrics["uarch.stream.calls"][0] != cells:
        failures.append(f"{metrics['uarch.stream.calls'][0]} stream preparations for {cells} cells")
    if workload.name == "store-replay" and metrics["runtime.store.hit_ratio"][0] != 1.0:
        failures.append("the replay missed the store")
    print(f"{workload.name}: {cells} cells, coverage {coverage:.4f}, "
          f"{'ok' if not failures else '; '.join(failures)}")
    return failures


def main() -> int:
    if not run.load_program():
        return 2
    import grids
    from repro.core.session import get_session

    session = get_session()
    default_bytes = session.trace_bytes
    work_root = os.path.join(run.OUT, "work", f"selftest-{os.getpid()}")
    os.makedirs(work_root)
    failures = []
    try:
        for workload in grids.make_workloads(SMOKE_COLD, SMOKE_SWEEP).values():
            # The sweep's eviction regime depends on budget / byte ceiling;
            # scale the ceiling with the budget to keep the regime.
            scaled = workload.name == "sweep-warm"
            session.trace_bytes = (
                default_bytes * SMOKE_SWEEP // grids.SWEEP_BUDGET if scaled else default_bytes
            )
            ctx = grids.Context(os.path.join(work_root, workload.name), seed=0)
            failures += smoke(workload, ctx, grids.counter)
    finally:
        session.trace_bytes = default_bytes
        shutil.rmtree(work_root, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
