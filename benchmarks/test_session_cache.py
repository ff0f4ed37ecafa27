"""Perf-guard: the shared SimSession eliminates redundant functional-sim runs.

The architectural trace is machine-independent, so a machine sweep must pay
the functional simulator exactly once per (workload, architectural program,
input) — the metrics counters make that auditable.  These guards pin the
contract:

* repeating an ``ExperimentRunner.run`` triggers **zero** additional
  functional-sim invocations,
* a 3-point machine sweep over 2 workloads × 2 configurations runs the
  functional simulator exactly once per (workload, program variant) — here
  2 workloads × (train + base ref) = 4 runs total instead of the seed's
  3 × 2 × (2 + 2) = 24,
* the same sweep builds one stream core per (workload, variant) and one
  overlay per (workload, variant, predictor fingerprint), and serves every
  other cell from the stream cache,
* re-running the whole sweep against the warm session is measurably faster
  and simulates nothing,
* a statically marked (``srvp_*``) variant is the base program modulo RVP
  hints, so its trace and stream core relabel the base program's instead of
  re-running the functional simulator or rebuilding the core,
* inside one grid, cells that pose the same timing problem (hint
  configurations that add no hint over their neighbour) run the pipeline
  once and share its statistics through the session's timing memo.
"""

from __future__ import annotations

import time
from dataclasses import replace

from conftest import run_once

from repro.core import get_metrics, sweep_machine
from repro.core.experiment import ExperimentRunner
from repro.core.session import ParallelSuiteRunner
from repro.uarch.config import table1_config

#: Distinct budget so these tests never share session keys with the other
#: benchmark modules (deltas below are then exact, not lower bounds).
GUARD_INSTS = 7_777

SWEEP_POINTS = (16, 32, 48)
SWEEP_WORKLOADS = ("m88ksim", "li")
SWEEP_CONFIGS = ("no_predict", "drvp_all")  # both use the 'base' program variant

#: A base config and a marked one; a budget of its own keeps the counters
#: below independent of the other guards' warm session entries.
MARKED_CONFIGS = ("no_predict", "srvp_live_lv")
MARKED_INSTS = GUARD_INSTS + 1

#: Hint configurations that refine their neighbours.  At this budget, on both
#: guard workloads, the three ``srvp_*`` levels mark the same loads with the
#: same routing, and ``drvp_dead_lv`` adds no hint over ``drvp_dead``: two
#: distinct timing problems per workload.
DUPLICATE_CONFIGS = ("srvp_dead", "srvp_live", "srvp_live_lv", "drvp_dead", "drvp_dead_lv")
MEMO_INSTS = GUARD_INSTS + 2


def _run_sweep(workloads=SWEEP_WORKLOADS, configs=SWEEP_CONFIGS, max_instructions=GUARD_INSTS):
    return sweep_machine(
        "iq",
        SWEEP_POINTS,
        lambda iq: replace(table1_config(), iq_int=iq, iq_fp=iq),
        workloads=workloads,
        configs=configs,
        max_instructions=max_instructions,
    )


def test_repeat_run_simulates_nothing(benchmark):
    metrics = get_metrics()
    runner = ExperimentRunner("go", max_instructions=GUARD_INSTS)
    runner.run("no_predict")  # warm the session (train + ref)

    before = metrics.get("sim.runs")
    result = run_once(benchmark, lambda: runner.run("no_predict"))
    assert result.ipc > 0
    assert metrics.get("sim.runs") == before, "repeat run re-invoked the functional simulator"


def test_sweep_runs_one_funcsim_per_workload_variant(benchmark):
    metrics = get_metrics()
    runs0 = metrics.get("sim.runs")
    trace_miss0 = metrics.get("session.trace.misses")
    profile_miss0 = metrics.get("session.profile.misses")
    core0 = metrics.get("session.stream.core_builds")
    overlay0 = metrics.get("session.stream.misses")
    stream_hit0 = metrics.get("session.stream.hits")

    t0 = time.perf_counter()
    rows = run_once(benchmark, _run_sweep)
    cold_seconds = time.perf_counter() - t0

    assert len(rows) == len(SWEEP_POINTS) * len(SWEEP_WORKLOADS) * len(SWEEP_CONFIGS)
    # One train pass + one base-variant ref trace per workload — nothing else.
    assert metrics.get("sim.runs") - runs0 == 2 * len(SWEEP_WORKLOADS)
    assert metrics.get("session.trace.misses") - trace_miss0 == len(SWEEP_WORKLOADS)
    assert metrics.get("session.profile.misses") - profile_miss0 == len(SWEEP_WORKLOADS)
    # One stream core per (workload, variant) — both configs run 'base' —
    # and one overlay per (workload, variant, predictor fingerprint); every
    # other (point, workload, config) cell is a stream-cache hit.
    cells = len(SWEEP_POINTS) * len(SWEEP_WORKLOADS) * len(SWEEP_CONFIGS)
    overlays = len(SWEEP_WORKLOADS) * len(SWEEP_CONFIGS)
    assert metrics.get("session.stream.core_builds") - core0 == len(SWEEP_WORKLOADS)
    assert metrics.get("session.stream.misses") - overlay0 == overlays
    assert metrics.get("session.stream.hits") - stream_hit0 == cells - overlays

    # Warm re-run: identical results, zero simulation, measurably faster.
    runs_warm = metrics.get("sim.runs")
    t1 = time.perf_counter()
    rows_again = _run_sweep()
    warm_seconds = time.perf_counter() - t1
    assert rows_again == rows
    assert metrics.get("sim.runs") == runs_warm

    print(
        f"\nsession-cache sweep guard: cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s "
        f"({cold_seconds / warm_seconds:.2f}x; funcsim runs: {2 * len(SWEEP_WORKLOADS)} cold, 0 warm)"
    )
    # The warm sweep still pays the 12 pipeline runs, so the bound is loose;
    # it exists to catch the cache silently disappearing.
    assert warm_seconds < cold_seconds * 1.2


def test_marked_variant_relabels_the_base_trace_and_core(benchmark):
    metrics = get_metrics()
    names = ("sim.runs", "session.trace.derived", "session.stream.core_builds", "session.stream.core_derived")
    deltas = {}

    def sweep_each_workload():
        for workload in SWEEP_WORKLOADS:
            before = {name: metrics.get(name) for name in names}
            rows = _run_sweep((workload,), MARKED_CONFIGS, MARKED_INSTS)
            assert len(rows) == len(SWEEP_POINTS) * len(MARKED_CONFIGS)
            deltas[workload] = {name: metrics.get(name) - before[name] for name in names}

    run_once(benchmark, sweep_each_workload)
    for workload in SWEEP_WORKLOADS:
        # The train pass and the base ref trace are the only funcsim runs;
        # srvp_live_lv's trace and core relabel the base program's.
        assert deltas[workload] == {
            "sim.runs": 2,
            "session.trace.derived": 1,
            "session.stream.core_builds": 1,
            "session.stream.core_derived": 1,
        }, workload


def test_suite_grid_simulates_each_timing_problem_once(benchmark):
    metrics = get_metrics()
    names = ("pipeline.runs", "session.timing.hits", "session.timing.misses")
    before = {name: metrics.get(name) for name in names}
    runner = ParallelSuiteRunner(
        workloads=SWEEP_WORKLOADS, configs=DUPLICATE_CONFIGS, max_instructions=MEMO_INSTS, jobs=1
    )
    report = run_once(benchmark, runner.run)
    assert not report.failures and len(report.results) == len(SWEEP_WORKLOADS) * len(DUPLICATE_CONFIGS)
    deltas = {name: metrics.get(name) - before[name] for name in names}
    assert deltas == {
        "pipeline.runs": 2 * len(SWEEP_WORKLOADS),
        "session.timing.hits": 3 * len(SWEEP_WORKLOADS),
        "session.timing.misses": 2 * len(SWEEP_WORKLOADS),
    }
    by_config = {(r.workload, r.config): r.stats for r in report.results}
    for workload in SWEEP_WORKLOADS:
        assert by_config[(workload, "srvp_dead")] == by_config[(workload, "srvp_live_lv")]
        assert by_config[(workload, "drvp_dead")] == by_config[(workload, "drvp_dead_lv")]
