"""SimSession memoization, canonical cache keys, and the parallel suite runner."""

from __future__ import annotations

import pytest

from repro.core import (
    ExperimentRunner,
    ParallelSuiteRunner,
    SimSession,
    SuiteCell,
    canonical_variant_key,
    get_metrics,
    get_session,
)
from repro.compiler.marking import MARKING_LEVELS
from repro.core.experiment import CONFIG_NAMES
from repro.sim.functional import FunctionalSimulator
from repro.uarch.config import table1_config
from repro.uarch.recovery import RecoveryScheme
from repro.workloads.suite import WORKLOAD_CLASSES

MAX_INSTS = 4_000


# ----------------------------------------------------------------------
# Canonical keys (the fix for the threshold cache-key asymmetry)
# ----------------------------------------------------------------------
def test_canonical_key_base_drops_threshold():
    assert canonical_variant_key("base", 0.8, 0.8) == ("base", None)
    assert canonical_variant_key("base", 0.5, 0.8) == ("base", None)
    assert canonical_variant_key("base", None, 0.8) == ("base", None)


def test_canonical_key_resolves_default_threshold():
    assert canonical_variant_key("srvp_dead", None, 0.8) == ("srvp_dead", 0.8)
    assert canonical_variant_key("srvp_dead", 0.8, 0.8) == ("srvp_dead", 0.8)
    assert canonical_variant_key("realloc", 0.5, 0.8) == ("realloc", 0.5)


def test_canonical_key_symmetric_across_threshold_spellings():
    """Regression: explicit-default and implicit-default spellings of the
    same variant MUST collide on one cache key for every srvp level (the
    seed bug keyed a trace as 'srvp_dead' but the program as 'srvp_dead@0.8',
    so the two spellings silently doubled the cache)."""
    for variant in ("srvp_same", "srvp_dead", "srvp_live", "srvp_live_lv", "realloc"):
        for default in (0.5, 0.8):
            implicit = canonical_variant_key(variant, None, default)
            explicit = canonical_variant_key(variant, default, default)
            assert implicit == explicit == (variant, default), (variant, default)
    # but a non-default explicit threshold is a distinct key
    assert canonical_variant_key("srvp_dead", 0.5, 0.8) != canonical_variant_key("srvp_dead", None, 0.8)
    # and base is threshold-free under every spelling
    assert canonical_variant_key("base", None, 0.8) == canonical_variant_key("base", 0.5, 0.8)


# ----------------------------------------------------------------------
# Identity caching
# ----------------------------------------------------------------------
def test_session_returns_identical_cached_objects():
    session = SimSession()
    w1 = session.workload("m88ksim", 1.0)
    w2 = session.workload("m88ksim", 1.0)
    assert w1 is w2

    t1 = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "base", None, 0.8)
    t2 = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "base", None, 0.8)
    assert t1 is t2
    assert isinstance(t1, tuple)

    p1 = session.train_artifacts("m88ksim", 1.0, MAX_INSTS)
    p2 = session.train_artifacts("m88ksim", 1.0, MAX_INSTS)
    assert p1 is p2


def test_base_trace_shared_across_thresholds():
    """'base' ignores the threshold, so any threshold maps to one trace."""
    session = SimSession()
    t1 = session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.8)
    t2 = session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.5)
    t3 = session.ref_trace("go", 1.0, MAX_INSTS, "base", 0.9, 0.8)
    assert t1 is t2 is t3


def test_variant_trace_none_threshold_resolves_to_default():
    session = SimSession()
    t_default = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", None, 0.8)
    t_explicit = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", 0.8, 0.8)
    assert t_default is t_explicit
    t_other = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", 0.5, 0.8)
    assert t_other is not t_default


def test_second_runner_runs_zero_additional_sims():
    """Two runners on one workload share every functional-sim artifact."""
    session = SimSession()
    metrics = get_metrics()
    first = ExperimentRunner("ijpeg", max_instructions=MAX_INSTS, session=session)
    first.run("no_predict")
    runs_after_first = metrics.get("sim.runs")

    second = ExperimentRunner("ijpeg", max_instructions=MAX_INSTS, session=session)
    second.run("lvp_all")
    assert metrics.get("sim.runs") == runs_after_first  # same train+ref, zero new sims


def test_runner_uses_global_session_by_default():
    runner = ExperimentRunner("li", max_instructions=MAX_INSTS)
    assert runner.session is get_session()


# ----------------------------------------------------------------------
# LRU bounding
# ----------------------------------------------------------------------
def test_trace_cache_lru_eviction():
    session = SimSession(trace_capacity=2)
    t_go = session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.8)
    session.ref_trace("li", 1.0, MAX_INSTS, "base", None, 0.8)
    # Touch go so li becomes the LRU entry, then insert a third trace.
    assert session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.8) is t_go
    session.ref_trace("ijpeg", 1.0, MAX_INSTS, "base", None, 0.8)
    assert len(session._traces) == 2
    assert ("go", 1.0, MAX_INSTS, "base", None, "ref") in session._traces
    assert ("li", 1.0, MAX_INSTS, "base", None, "ref") not in session._traces


# ----------------------------------------------------------------------
# Stream cache: one core per trace, one overlay per fingerprint
# ----------------------------------------------------------------------
def test_stream_cache_shares_core_and_overlays():
    session = SimSession()
    runner = ExperimentRunner("m88ksim", max_instructions=MAX_INSTS, session=session)
    drvp, _ = runner.pipeline_stream("drvp")
    lvp, _ = runner.pipeline_stream("lvp_all")
    assert lvp.core is drvp.core
    assert runner.pipeline_stream("drvp")[0] is drvp  # same fingerprint: a hit
    # Uncacheable (fingerprint None): the cached core, a fresh overlay each call.
    grp, _ = runner.pipeline_stream("grp_all")
    grp_again, _ = runner.pipeline_stream("grp_all")
    assert grp.core is drvp.core and grp_again.core is drvp.core
    assert grp_again is not grp and grp_again.overlay == grp.overlay
    stats = session.cache_stats()
    assert stats["stream_cores"] == 1 and stats["streams"] == 2
    assert stats["stream_bytes"] == (
        session._core_cost(drvp.core) + session._overlay_cost(drvp) + session._overlay_cost(lvp)
    )


def test_stream_cache_evicts_core_with_its_overlays():
    probe = SimSession()
    probe_stream, _ = ExperimentRunner("go", max_instructions=MAX_INSTS, session=probe).pipeline_stream("drvp")
    one_trace = probe._trace_cost(probe._traces[next(iter(probe._traces))])
    # Room for both traces but only one trace's streams.
    session = SimSession(trace_bytes=2 * one_trace + 2 * probe.cache_stats()["stream_bytes"] - 1)
    metrics = get_metrics()
    evictions0 = metrics.get("session.stream.evictions")
    go = ExperimentRunner("go", max_instructions=MAX_INSTS, session=session)
    go.pipeline_stream("drvp")
    go.pipeline_stream("drvp_all")
    ExperimentRunner("li", max_instructions=MAX_INSTS, session=session).pipeline_stream("drvp")
    assert metrics.get("session.stream.evictions") - evictions0 == 1
    stats = session.cache_stats()
    assert stats["stream_cores"] == 1 and stats["streams"] == 1  # go's core and both overlays left together
    (li_entry,) = session._streams.values()
    assert stats["stream_bytes"] == li_entry.bytes


def test_stream_byte_estimates_match_tracemalloc():
    """Each byte constant is within 25% of what a real core and overlay
    allocate, so the shared trace/stream ceiling is honest."""
    import gc
    import tracemalloc

    from repro.core.session import CORE_ENTRY_BYTES, OVERLAY_CANDIDATE_BYTES, OVERLAY_SLOT_BYTES
    from repro.uarch.stream import prepare_stream

    runner = ExperimentRunner("su2cor", max_instructions=MAX_INSTS, session=SimSession())
    trace = runner.ref_trace("base")
    predictors = [runner._build(config, None)[1] for config in ("no_predict", "drvp_all_dead_lv")]
    gc.collect()
    # Empty CPython's small-tuple free lists (2000 per size) so that every
    # tuple the builders make is a fresh, traced allocation.
    reserve = [tuple(range(size)) for size in range(1, 8) for _ in range(2_100)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        empty = prepare_stream(trace, predictors[0])  # core + an all-None overlay
        after_core = tracemalloc.get_traced_memory()[0]
        bare = prepare_stream(None, predictors[0], core=empty.core)  # slots only
        after_slots = tracemalloc.get_traced_memory()[0]
        full = prepare_stream(None, predictors[1], core=empty.core)
        after_overlay = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert reserve and bare.candidates == 0 and full.candidates > len(full) // 2
    slot_bytes = after_slots - after_core
    core_bytes = after_core - before - slot_bytes
    candidate_bytes = after_overlay - after_slots - slot_bytes
    assert slot_bytes / len(bare) == pytest.approx(OVERLAY_SLOT_BYTES, rel=0.25)
    assert core_bytes / len(empty) == pytest.approx(CORE_ENTRY_BYTES, rel=0.25)
    assert candidate_bytes / full.candidates == pytest.approx(OVERLAY_CANDIDATE_BYTES, rel=0.25)


# ----------------------------------------------------------------------
# Parallel suite runner
# ----------------------------------------------------------------------
SUITE_KW = dict(
    workloads=("m88ksim", "li"),
    configs=("no_predict", "lvp_all"),
    recoveries=(RecoveryScheme.SELECTIVE,),
    machine=table1_config(),
    max_instructions=2_000,
)


def _check_report(report, runner):
    assert not report.failures
    assert len(report.results) == len(runner.cells) == 4
    got = {(r.workload, r.config) for r in report.results}
    assert got == {(w, c) for w in SUITE_KW["workloads"] for c in SUITE_KW["configs"]}
    for result in report.results:
        assert result.ipc > 0


def test_suite_runner_serial():
    runner = ParallelSuiteRunner(jobs=1, **SUITE_KW)
    report = runner.run()
    _check_report(report, runner)
    assert not report.used_processes


def test_suite_runner_parallel_smoke():
    runner = ParallelSuiteRunner(jobs=2, **SUITE_KW)
    report = runner.run()
    _check_report(report, runner)
    assert report.used_processes


def test_suite_runner_matches_serial_results():
    serial = ParallelSuiteRunner(jobs=1, **SUITE_KW).run()
    parallel = ParallelSuiteRunner(jobs=2, **SUITE_KW).run()
    want = {(r.workload, r.config): r.ipc for r in serial.results}
    got = {(r.workload, r.config): r.ipc for r in parallel.results}
    assert got == want


def test_suite_cell_is_hashable():
    cell = SuiteCell("m88ksim", "no_predict", "selective")
    assert cell in {cell}


# ----------------------------------------------------------------------
# Fused batch digests
# ----------------------------------------------------------------------
def test_batch_digests_cached_and_scalar_consistent():
    from repro.sim.functional import FunctionalSimulator

    session = SimSession()
    metrics = get_metrics()
    misses = metrics.get("session.batch.misses")
    digests = session.batch_digests("li", 1.0, MAX_INSTS)
    assert sorted(digests) == ["ref", "train"]
    assert metrics.get("session.batch.misses") == misses + 1
    assert session.cache_stats()["batch_digests"] == 1

    # Identity-cached on the canonical key.
    hits = metrics.get("session.batch.hits")
    assert session.batch_digests("li", 1.0, MAX_INSTS) is digests
    assert metrics.get("session.batch.hits") == hits + 1

    # Each lane's digest pins the same outcome a scalar run produces.
    workload = session.workload("li", 1.0)
    for input_name in ("ref", "train"):
        sim = FunctionalSimulator(workload.program, memory=workload.memory(input_name))
        result = sim.run(max_instructions=MAX_INSTS)
        assert digests[input_name]["instructions"] == result.instructions
        assert digests[input_name]["halted"] == result.halted
        assert digests[input_name]["digest"] == SimSession._lane_digest(
            type("L", (), {
                "state": sim.state,
                "memory": sim.memory,
                "instructions": result.instructions,
                "halted": result.halted,
            })()
        )


def test_batch_digests_key_includes_inputs_and_variant():
    session = SimSession()
    base = session.batch_digests("li", 1.0, MAX_INSTS)
    ref_only = session.batch_digests("li", 1.0, MAX_INSTS, input_names=("ref",))
    assert ref_only is not base
    assert ref_only["ref"] == base["ref"]  # same lane outcome either way
    assert session.cache_stats()["batch_digests"] == 2
    session.reset()
    assert session.cache_stats()["batch_digests"] == 0


# ----------------------------------------------------------------------
# Shared result store under the suite runner (L2 beneath the session L1)
# ----------------------------------------------------------------------
def test_suite_runner_restores_from_store_without_resimulating(tmp_path):
    from repro.core.session import reset_session
    from repro.runtime.store import ResultStore

    store = ResultStore(str(tmp_path / "store"))
    first = ParallelSuiteRunner(jobs=1, store=store, **SUITE_KW)
    report = first.run()
    _check_report(report, first)
    assert report.store_hits == 0
    assert len(store) == 4  # every fresh result was published

    # Drop the in-process session L1 so only the persistent L2 can explain
    # a zero-simulation warm run.
    reset_session()
    runs_before = get_metrics().get("sim.runs")
    second = ParallelSuiteRunner(jobs=1, store=store, **SUITE_KW)
    warm = second.run()
    _check_report(warm, second)
    assert warm.store_hits == 4
    assert get_metrics().get("sim.runs") == runs_before  # zero re-simulation
    want = {(r.workload, r.config): r.ipc for r in report.results}
    got = {(r.workload, r.config): r.ipc for r in warm.results}
    assert got == want


def test_suite_runner_retry_deadline_defaults_to_cell_timeout():
    runner = ParallelSuiteRunner(jobs=1, **SUITE_KW)
    assert runner.retry_deadline == runner.cell_timeout
    capped = ParallelSuiteRunner(jobs=1, retry_deadline=0.25, **SUITE_KW)
    assert capped.retry_deadline == 0.25


# ----------------------------------------------------------------------
# Marked variants: one funcsim run per (workload, architectural program, input)
# ----------------------------------------------------------------------
DERIVE_INSTS = 1_500


@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_marked_trace_is_derived_and_equals_simulation(name):
    """Every srvp_* trace relabels the base trace instead of re-simulating,
    and equals a fresh functional run of the marked program."""
    session = SimSession()
    metrics = get_metrics()
    base = session.ref_trace(name, 1.0, DERIVE_INSTS)
    runs0, misses0 = metrics.get("sim.runs"), metrics.get("session.trace.misses")
    derived0 = metrics.get("session.trace.derived")
    for level in MARKING_LEVELS:
        variant = f"srvp_{level}"
        trace = session.ref_trace(name, 1.0, DERIVE_INSTS, variant, None, 0.8)
        program = session.program_variant(name, 1.0, DERIVE_INSTS, variant, None, 0.8)
        memory = session.workload(name, 1.0).memory("ref")
        fresh = FunctionalSimulator(program, memory=memory).run(
            max_instructions=DERIVE_INSTS, collect_trace=True
        ).trace
        assert trace == tuple(fresh), (name, variant)
        marks = program.rvp_marks_over(session.workload(name, 1.0).program)
        for record, base_record in zip(trace, base):
            assert (record is base_record) == (record.pc not in marks)
    # The fresh runs above are this test's own; the session ran none.
    assert metrics.get("sim.runs") - runs0 == len(MARKING_LEVELS) + 1  # + the train pass
    assert metrics.get("session.trace.misses") == misses0
    assert metrics.get("session.trace.derived") - derived0 == len(MARKING_LEVELS)


def test_rvp_marks_over_rejects_any_other_difference():
    from repro.isa import assemble

    base = assemble("ld r1, 0x100(r31)\nadd r2, r1, #1\nhalt")
    marked = assemble("rvp_ld r1, 0x100(r31)\nadd r2, r1, #1\nhalt")
    assert marked.rvp_marks_over(base) == {0: marked[0]}
    assert base.rvp_marks_over(base) == {}
    for other in (
        "rvp_ld r1, 0x100(r31)\nadd r2, r1, #2\nhalt",  # an operand
        "rvp_ld r3, 0x100(r31)\nadd r2, r1, #1\nhalt",  # the marked load's own register
        "ld r1, 0x100(r31)\nsub r2, r1, #1\nhalt",  # an opcode that is not a mark
        "rvp_ld r1, 0x100(r31)\nadd r2, r1, #1\nnop\nhalt",  # the length
    ):
        with pytest.raises(ValueError, match="modulo RVP marks"):
            assemble(other).rvp_marks_over(base)


def test_marked_variant_that_is_not_marks_only_is_rejected_at_fill(monkeypatch):
    """No fallback: a marking pass that changed anything but marks fails the
    variant's cache fill, before a trace could be derived from it."""
    import repro.core.session as session_module

    def bad_marking(program, lists, level, verify=None):
        return program.rewrite(lambda inst: inst.as_rvp_marked() if inst.is_load else inst.with_opcode("nop"))

    monkeypatch.setattr(session_module, "mark_static_rvp", bad_marking)
    monkeypatch.setenv("REPRO_VERIFY_PASSES", "0")
    session = SimSession()
    with pytest.raises(ValueError, match="modulo RVP marks"):
        session.ref_trace("m88ksim", 1.0, DERIVE_INSTS, "srvp_same", None, 0.8)
    assert not session._traces and not session._marks


def test_workload_memory_returns_equal_independent_images():
    session = SimSession()
    workload = session.workload("li", 1.0)
    first = workload.memory("ref")
    second = workload.memory("ref")
    assert first == second and first is not second
    address, value = next(first.nonzero_words())
    first.store(address, value ^ 1)
    assert workload.memory("ref") == second  # the mutation did not leak
    assert workload.memory("train") != second
    session.reset()
    assert session.workload("li", 1.0) is not workload


# ----------------------------------------------------------------------
# Timing memo: one simulation per distinct timing problem in a grid
# ----------------------------------------------------------------------
MEMO_INSTS = 1_500


def _key(session, runner, config, recovery=RecoveryScheme.SELECTIVE, threshold=None, predictor=None, variant=None):
    built_variant, built = runner._build(config, threshold)
    return session.timing_key(
        runner.workload.name, 1.0, runner.max_instructions,
        predictor if predictor is not None else built, runner.machine, recovery,
        variant if variant is not None else built_variant, threshold, runner.threshold,
    )


def test_timing_memo_hits_equal_fresh_simulations():
    """Every cell of 11 workloads x all configs x 3 recovery schemes gets
    the same statistics from the memo as from its own pipeline run."""
    session = SimSession()
    metrics = get_metrics()
    cells = [
        (name, config, recovery)
        for name in sorted(WORKLOAD_CLASSES)
        for config in CONFIG_NAMES
        for recovery in RecoveryScheme
    ]
    runners = {
        name: ExperimentRunner(name, max_instructions=MEMO_INSTS, session=session)
        for name in WORKLOAD_CLASSES
    }
    uncacheable0 = metrics.get("session.timing.uncacheable")
    memoized = {}
    with session.grid():
        for name, config, recovery in cells:
            hits = metrics.get("session.timing.hits")
            stats = runners[name].run(config, recovery=recovery).stats
            if metrics.get("session.timing.hits") > hits:
                memoized[(name, config, recovery)] = stats
    # Only Gabbay's grp/grp_all are uncacheable.
    assert metrics.get("session.timing.uncacheable") - uncacheable0 == 2 * len(WORKLOAD_CLASSES) * 3
    assert len(memoized) > 100
    runs = metrics.get("pipeline.runs")
    for (name, config, recovery), stats in memoized.items():  # grid closed: every run simulates
        assert runners[name].run(config, recovery=recovery).stats == stats, (name, config, recovery)
    assert metrics.get("pipeline.runs") - runs == len(memoized)


def _lvp(**kw):
    from repro.vp.lvp import LastValuePredictor

    return LastValuePredictor(loads_only=False, **kw)


def _drvp(**kw):
    from repro.vp.rvp import DynamicRVP

    return DynamicRVP(**kw)


def _stride(**kw):
    from repro.vp.stride import StridePredictor

    return StridePredictor(**kw)


def _context(**kw):
    from repro.vp.context import ContextPredictor

    return ContextPredictor(**kw)


def _memren(**kw):
    from repro.vp.memory_renaming import MemoryRenamingPredictor

    return MemoryRenamingPredictor(**kw)


@pytest.mark.parametrize(
    "make_base, make_other",
    [
        (lambda: _drvp(), lambda: _drvp(entries=512)),
        (lambda: _drvp(), lambda: _drvp(threshold=3)),
        (lambda: _drvp(), lambda: _drvp(tagged=True)),
        (lambda: _drvp(), lambda: _drvp(loads_only=True)),
        (lambda: _lvp(), lambda: _lvp(entries=512)),
        (lambda: _lvp(), lambda: _lvp(threshold=3)),
        (lambda: _lvp(), lambda: _lvp(tagged=False)),
        (lambda: _lvp(), lambda: _stride()),  # one routing, another class
        (lambda: _stride(), lambda: _stride(threshold=3)),
        (lambda: _context(), lambda: _context(order=3)),
        (lambda: _memren(), lambda: _memren(store_cache=64)),
    ],
    ids=[
        "drvp-entries", "drvp-threshold", "drvp-tagged", "drvp-loads_only",
        "lvp-entries", "lvp-threshold", "lvp-tagged", "class",
        "stride-threshold", "context-order", "memren-store_cache",
    ],
)
def test_timing_key_changes_with_each_predictor_parameter(make_base, make_other):
    session = SimSession()
    runner = ExperimentRunner("li", max_instructions=MEMO_INSTS, session=session)
    with session.grid():
        base = _key(session, runner, "drvp_all", predictor=make_base())
        assert base == _key(session, runner, "drvp_all", predictor=make_base())
        assert _key(session, runner, "drvp_all", predictor=make_other()) != base


def test_timing_key_changes_with_marks_threshold_machine_and_recovery():
    from dataclasses import replace

    session = SimSession()
    runner = ExperimentRunner("li", max_instructions=MEMO_INSTS, session=session)
    with session.grid():
        base = _key(session, runner, "drvp_all_dead")
        # the profile lists' threshold (li's dead list differs at 0.5)
        assert _key(session, runner, "drvp_all_dead", threshold=0.5) != base
        # a machine field and the recovery scheme
        wide = ExperimentRunner(
            "li", max_instructions=MEMO_INSTS, session=session,
            machine=replace(table1_config(), iq_int=16),
        )
        assert _key(session, wide, "drvp_all_dead") != base
        assert _key(session, runner, "drvp_all_dead", recovery=RecoveryScheme.REFETCH) != base
        # a marks set: one static predictor over two marked variants
        static = runner._build("srvp_live_lv", None)[1]
        same = _key(session, runner, "srvp_same", predictor=static, variant="srvp_same")
        assert _key(session, runner, "srvp_same", predictor=static, variant="srvp_live_lv") != same


def test_routing_digest_names_each_overlay_plan_field():
    """Candidate pcs, source kind, REG source register and the read-port
    flag each change the routing digest."""
    from repro.core.session import routing_digest
    from repro.isa import R, assemble
    from repro.profiling import DeadHint, ProfileLists
    from repro.vp.base import PredictionSource, SourceKind, ValuePredictor

    program = assemble("li r1, #5\nli r2, #6\nld r3, 0x100(r31)\nadd r4, r3, #1\nhalt")

    def hinted(reg):
        lists = ProfileLists(threshold=0.8)
        lists.dead[2] = DeadHint(reg=reg, producer_pc=0)
        return _drvp(lists=lists, use_dead=True)

    class Stored(ValuePredictor):
        def __init__(self, table_backed):
            self.table_backed = table_backed

        def source(self, inst):
            return PredictionSource(SourceKind.STORED) if inst.writes is not None else None

        def confident(self, pc):
            return False

        def update(self, pc, correct, actual):
            pass

    digests = {
        "dst": routing_digest(program, _drvp()),
        "loads only": routing_digest(program, _drvp(loads_only=True)),
        "reg r1": routing_digest(program, hinted(R[1])),
        "reg r2": routing_digest(program, hinted(R[2])),
        "stored, port": routing_digest(program, Stored(table_backed=False)),
        "stored, table": routing_digest(program, Stored(table_backed=True)),
    }
    assert len(set(digests.values())) == len(digests)
    assert routing_digest(program, hinted(R[1])) == digests["reg r1"]


def test_gabbay_predictor_is_uncacheable():
    from repro.vp.gabbay import GabbayRegisterPredictor

    assert GabbayRegisterPredictor().dynamic_fingerprint() is None
    session = SimSession()
    runner = ExperimentRunner("li", max_instructions=MEMO_INSTS, session=session)
    metrics = get_metrics()
    uncacheable = metrics.get("session.timing.uncacheable")
    with session.grid():
        assert _key(session, runner, "grp_all") is None
    assert metrics.get("session.timing.uncacheable") - uncacheable == 1


def test_timing_memo_hit_is_an_independent_copy():
    session = SimSession()
    runner = ExperimentRunner("m88ksim", max_instructions=MEMO_INSTS, session=session)
    metrics = get_metrics()
    with session.grid():
        first = runner.run("drvp_dead").stats
        hits = metrics.get("session.timing.hits")
        second = runner.run("drvp_dead_lv").stats  # same timing problem on m88ksim
        assert metrics.get("session.timing.hits") - hits == 1
        assert session.cache_stats()["timing_memo"] == 1
        assert second == first and second is not first
        second.cycles += 1
        assert runner.run("drvp_dead").stats == first
    assert session.cache_stats()["timing_memo"] == 0


def test_timing_memo_lives_for_one_grid():
    from dataclasses import replace

    from repro.core import sweep_machine

    session = get_session()
    metrics = get_metrics()
    assert _key(session, ExperimentRunner("li", max_instructions=MEMO_INSTS), "drvp") is None  # no grid
    runs = []
    for _ in range(2):
        before = metrics.get("pipeline.runs")
        sweep_machine(
            "iq", (16, 32), lambda iq: replace(table1_config(), iq_int=iq, iq_fp=iq),
            workloads=("m88ksim",), configs=("drvp_dead", "drvp_dead_lv"), max_instructions=MEMO_INSTS + 1,
        )
        runs.append(metrics.get("pipeline.runs") - before)
    assert runs == [2, 2]  # one run per point each time: the memo did not outlive the sweep
    # Nested grids share the outer memo; reset() empties it.
    with session.grid():
        with session.grid():
            ExperimentRunner("m88ksim", max_instructions=MEMO_INSTS).run("drvp_dead")
        assert session.cache_stats()["timing_memo"] == 1
        session.reset()
        assert session.cache_stats()["timing_memo"] == 0
