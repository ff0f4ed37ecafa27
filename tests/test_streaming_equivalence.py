"""Golden equivalence: the streaming execution core matches the eager one.

``FunctionalSimulator.iter_run`` must yield exactly the records the eager
``run(collect_trace=True)`` path collects — same records, same final
architectural state, same run outcome — for every workload in the suite.
The streaming profilers must likewise reproduce the eager profiles, and the
online deadness resolution must agree with the backward-sweep reference.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.profiling import (
    MAX_MATCHES,
    CriticalPathBuilder,
    ReuseProfile,
    ReuseProfileBuilder,
    critical_path_profile,
    reg_id,
    resolve_deadness,
)
from repro.sim import FunctionalSimulator, stream_program
from repro.uarch import RecoveryScheme, table1_config
from repro.uarch.pipeline import simulate
from repro.uarch.stream import prepare_stream
from repro.vp.base import NoPredictor
from repro.vp.rvp import DynamicRVP
from repro.workloads.suite import WORKLOAD_CLASSES, make_workload

from conftest import random_memory, random_program

BUDGET = 3_000


@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
@pytest.mark.parametrize("input_name", ["train", "ref"])
def test_iter_run_matches_eager_run(name, input_name):
    workload = make_workload(name)
    program = workload.program

    eager_sim = FunctionalSimulator(program, memory=workload.memory(input_name))
    eager = eager_sim.run(max_instructions=BUDGET, collect_trace=True)

    stream_sim = FunctionalSimulator(program, memory=workload.memory(input_name))
    streamed = list(stream_sim.iter_run(max_instructions=BUDGET))

    assert streamed == eager.trace
    result = stream_sim.last_result
    assert result.instructions == eager.instructions
    assert result.halted == eager.halted
    assert stream_sim.state.pc == eager_sim.state.pc
    assert stream_sim.state.state_equal(eager_sim.state)
    # Record-level spot check: identical bytes, not just dataclass equality.
    for got, want in zip(streamed[:50], eager.trace[:50]):
        assert (got.seq, got.pc, got.result, got.old_dest, got.addr) == (
            want.seq,
            want.pc,
            want.result,
            want.old_dest,
            want.addr,
        )


@pytest.mark.parametrize("name", ["m88ksim", "mgrid"])
def test_streaming_profilers_match_eager(name):
    workload = make_workload(name)
    trace = FunctionalSimulator(workload.program, memory=workload.memory("train")).run(
        max_instructions=BUDGET, collect_trace=True
    ).trace

    reuse = ReuseProfileBuilder()
    crit = CriticalPathBuilder()
    for record in trace:
        reuse.feed(record)
        crit.feed(record)
    streamed_profile = reuse.finish()
    eager_profile = ReuseProfile.from_trace(trace)

    assert streamed_profile.fig1.fractions() == eager_profile.fig1.fractions()
    assert set(streamed_profile.sites) == set(eager_profile.sites)
    for pc, site in eager_profile.sites.items():
        got = streamed_profile.sites[pc]
        assert (got.count, got.same_hits, got.lv_hits, got.any_hits) == (
            site.count,
            site.same_hits,
            site.lv_hits,
            site.any_hits,
        )
        assert got.dead_hits == site.dead_hits
        assert got.live_hits == site.live_hits
        assert got.producers == site.producers
    assert crit.finish() == critical_path_profile(trace)


@pytest.mark.parametrize("seed", range(8))
def test_online_deadness_matches_backward_sweep(seed):
    """The builder's online dead/live split must agree with the backward
    sweep in resolve_deadness on arbitrary traces.

    We re-derive the value-match queries the builder opens (reading its
    register mirrors *before* each feed, i.e. exactly the state the match
    is computed from), answer them with the independent backward resolver,
    and require the per-site, per-register dead/live tallies to coincide.
    """
    program = random_program(seed)
    trace = FunctionalSimulator(program, memory=random_memory(seed)).run(
        max_instructions=5_000, collect_trace=True
    ).trace

    builder = ReuseProfileBuilder()
    queries = []  # (seq, rid, pc)
    for record in trace:
        result = record.result
        dst = record.inst.writes
        if result is not None and dst is not None:
            holders = builder._value_to_regs.get(result, ())
            dst_rid = reg_id(dst)
            lo, hi = (0, 32) if dst.is_int else (32, 64)
            matched = tuple(
                rid for rid in holders if lo <= rid < hi and rid != dst_rid and rid % 32 != 31
            )[:MAX_MATCHES]
            for rid in matched:
                queries.append((record.seq, rid, record.pc))
        builder.feed(record)
    profile = builder.finish()

    answers = resolve_deadness(trace, [(seq, rid) for seq, rid, _ in queries])
    want_dead = {}
    want_live = {}
    for seq, rid, pc in queries:
        bucket = want_dead if answers[(seq, rid)] else want_live
        site = bucket.setdefault(pc, Counter())
        site[rid] += 1

    for pc, site in profile.sites.items():
        assert site.dead_hits == want_dead.get(pc, Counter()), f"pc {pc} dead mismatch"
        assert site.live_hits == want_live.get(pc, Counter()), f"pc {pc} live mismatch"
    assert queries, "degenerate trace: no value matches to cross-check"


def test_pipeline_accepts_generator_trace():
    """simulate()/prepare_stream run straight off a live generator and match
    the tuple-fed result exactly."""
    workload = make_workload("li")
    config = table1_config()

    eager_trace = FunctionalSimulator(workload.program, memory=workload.memory("ref")).run(
        max_instructions=BUDGET, collect_trace=True
    ).trace
    want = simulate(eager_trace, NoPredictor(), config, RecoveryScheme.SELECTIVE)

    _, stream = stream_program(workload.program, memory=workload.memory("ref"), max_instructions=BUDGET)
    got = simulate(stream, NoPredictor(), config, RecoveryScheme.SELECTIVE)
    assert got.cycles == want.cycles
    assert got.committed == want.committed

    # prepare_stream over a generator with a stateful predictor too.
    _, stream2 = stream_program(workload.program, memory=workload.memory("ref"), max_instructions=BUDGET)
    streamed = prepare_stream(stream2, DynamicRVP(loads_only=False))
    eager = prepare_stream(eager_trace, DynamicRVP(loads_only=False))
    assert len(streamed) == len(eager)
    assert [slot and slot[3] for slot in streamed.overlay] == [slot and slot[3] for slot in eager.overlay]
    assert streamed.core.entries == eager.core.entries
    assert streamed.overlay == eager.overlay


def test_observers_fire_during_streaming():
    workload = make_workload("go")
    seen = []
    sim = FunctionalSimulator(workload.program, memory=workload.memory("ref"))
    sim.add_observer(lambda record, state: seen.append(record.seq))
    records = list(sim.iter_run(max_instructions=500))
    assert seen == [record.seq for record in records]
