"""Stream preparation tests: core dependences and overlay prediction flags."""

import pytest

from repro.compiler.marking import MARKING_LEVELS
from repro.isa import R, assemble
from repro.profiling import DeadHint, ProfileLists
from repro.sim import Memory, run_program
from repro.sim.trace import relabel_trace
from repro.uarch import CoreEntry, build_core, prepare_stream, relabel_core
from repro.vp.base import SourceKind
from repro.vp import DynamicRVP, LastValuePredictor, NoPredictor
from repro.workloads.suite import WORKLOAD_CLASSES


def trace_of(text, memory=None):
    return run_program(assemble(text), memory=memory, max_instructions=5000, collect_trace=True).trace


def candidates(stream, seqs):
    """Overlay slots of ``seqs`` as dicts; every one must be a candidate."""
    names = ("source", "value_dep", "prev_instance", "pred_correct", "needs_port")
    slots = [stream.overlay[seq] for seq in seqs]
    assert all(slot is not None for slot in slots)
    return [dict(zip(names, slot)) for slot in slots]


def load_seqs(stream):
    return [e.seq for e in stream.core.entries if e.record.is_load]


def test_register_dependences_point_to_last_writer():
    trace = trace_of("li r1, #1\nli r2, #2\nadd r3, r1, r2\nli r1, #9\nadd r4, r1, #0\nhalt")
    core = prepare_stream(trace, NoPredictor()).core.entries
    assert core[2].src_deps == (0, 1)
    assert core[4].src_deps == (3,)  # redefined r1
    assert core[0].src_deps == ()


def test_store_load_dependence():
    trace = trace_of("li r1, #5\nst r1, 0x40(r31)\nld r2, 0x40(r31)\nld r3, 0x80(r31)\nhalt")
    core = prepare_stream(trace, NoPredictor()).core.entries
    assert core[2].store_dep == 1  # load after store to same address
    assert core[3].store_dep is None


def test_dst_old_writer_tracked():
    trace = trace_of("li r1, #1\nli r1, #2\nhalt")
    core = prepare_stream(trace, NoPredictor()).core.entries
    assert core[0].dst_old_writer is None
    assert core[1].dst_old_writer == 0


def test_same_register_prediction_correctness():
    memory = Memory()
    memory.store(0x100, 7)
    trace = trace_of(
        "li r2, #3\nloop: ld r1, 0x100(r31)\nsub r2, r2, #1\nbne r2, loop\nhalt",
        memory,
    )
    stream = prepare_stream(trace, DynamicRVP())
    seqs = load_seqs(stream)
    loads = candidates(stream, seqs)
    assert loads[0]["pred_correct"] is False  # r1 held 0 before
    assert all(e["pred_correct"] for e in loads[1:])  # constant reloads
    assert loads[1]["value_dep"] == seqs[0]
    assert all(e["source"].kind is SourceKind.DST for e in loads)


def test_reg_hint_correctness_uses_other_register():
    lists = ProfileLists(threshold=0.8)
    memory = Memory()
    memory.store(0x100, 55)
    text = "li r4, #55\nld r3, 0x100(r31)\nhalt"
    trace = trace_of(text, memory)
    lists.dead[1] = DeadHint(reg=R[4], producer_pc=0)
    stream = prepare_stream(trace, DynamicRVP(lists=lists, use_dead=True))
    (load,) = candidates(stream, [1])
    assert load["source"].kind is SourceKind.REG
    assert load["pred_correct"] is True  # r4 already held 55
    assert load["value_dep"] == 0  # produced by the li


def test_stored_prediction_uses_previous_instance():
    memory = Memory()
    memory.store(0x100, 7)
    lists = ProfileLists(threshold=0.8)
    lists.last_value.add(1)
    text = "li r2, #3\nloop: ld r1, 0x100(r31)\nadd r1, r1, #1\nsub r2, r2, #1\nbne r2, loop\nhalt"
    trace = trace_of(text, memory)
    stream = prepare_stream(trace, DynamicRVP(lists=lists, use_lv=True))
    seqs = load_seqs(stream)
    loads = candidates(stream, seqs)
    assert loads[0]["prev_instance"] is None and not loads[0]["pred_correct"]
    assert loads[1]["prev_instance"] == seqs[0] and loads[1]["pred_correct"]


def test_fu_and_iq_classification():
    trace = trace_of("li r1, #1\nfli f1, #1\nfadd f2, f1, f1\nld r2, 0x40(r31)\nfld f3, 0x40(r31)\nst r1, 0(r31)\nhalt")
    stream = prepare_stream(trace, NoPredictor())
    kinds = [(e.fu, e.iq) for e in stream.core.entries]
    assert kinds[0] == ("int", "int")
    assert kinds[2] == ("fp", "fp")
    assert kinds[3] == ("ldst", "int")
    assert kinds[4] == ("ldst", "fp")
    assert kinds[5] == ("ldst", "int")


def test_no_candidates_for_no_predictor():
    trace = trace_of("li r1, #1\nhalt")
    stream = prepare_stream(trace, NoPredictor())
    assert stream.overlay == [None] * len(stream)
    assert stream.candidates == 0


class _SpyPredictor(DynamicRVP):
    """DynamicRVP that records the pc of every ``source()`` query."""

    __slots__ = ("queried",)

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.queried = []

    def source(self, inst):
        self.queried.append(inst.pc)
        return super().source(inst)


LOOP = "li r2, #3\nloop: ld r1, 0x100(r31)\nadd r3, r1, #1\nsub r2, r2, #1\nbne r2, loop\nhalt"


def test_source_queried_once_per_pc_in_first_occurrence_order():
    memory = Memory()
    memory.store(0x100, 7)
    trace = trace_of(LOOP, memory)
    first_seen = list(dict.fromkeys(record.pc for record in trace))
    core = prepare_stream(trace, NoPredictor()).core
    for stream_of in (
        lambda p: prepare_stream(trace, p),
        lambda p: prepare_stream(None, p, core=core),
    ):
        spy = _SpyPredictor(loads_only=False)
        stream_of(spy)
        assert spy.queried == first_seen


def test_overlay_over_shared_core_matches_fresh_build():
    from repro.core.experiment import ExperimentRunner

    runner = ExperimentRunner("m88ksim", max_instructions=2_000)
    trace = runner.ref_trace("base")
    core = prepare_stream(trace, NoPredictor()).core
    for config in ("lvp_all", "drvp", "drvp_all", "drvp_all_dead_lv", "grp_all", "stride_all"):
        fresh = prepare_stream(trace, runner._build(config, None)[1])
        shared = prepare_stream(None, runner._build(config, None)[1], core=core)
        assert shared.core is core
        assert fresh.core.entries == core.entries
        assert shared.overlay == fresh.overlay, config
        assert shared.candidates == fresh.candidates == sum(s is not None for s in fresh.overlay)


def test_needs_port_only_for_register_sourced_non_loads():
    memory = Memory()
    memory.store(0x100, 7)
    trace = trace_of(LOOP, memory)
    rvp = prepare_stream(trace, DynamicRVP(loads_only=False))
    lvp = prepare_stream(trace, LastValuePredictor(loads_only=False))
    for entry, rvp_slot, lvp_slot in zip(rvp.core.entries, rvp.overlay, lvp.overlay):
        assert (rvp_slot is None) == (lvp_slot is None) == (entry.inst.writes is None)
        if rvp_slot is not None:
            assert rvp_slot[4] is (not entry.is_load)
            assert lvp_slot[4] is False  # table-backed: no register read


def _entry_fields(entry):
    return tuple(getattr(entry, name) for name in CoreEntry.__slots__)


@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_relabelled_core_equals_core_of_simulated_marked_trace(name):
    """The srvp_* core relabels the base core: every entry field and the
    ``insts`` order equal a core built from a fresh run of the marked
    program, and a StaticRVP overlay over either core is the same."""
    from repro.core.experiment import ExperimentRunner
    from repro.core.session import SimSession
    from repro.sim.functional import FunctionalSimulator

    budget = 1_500
    runner = ExperimentRunner(name, max_instructions=budget, session=SimSession())
    base_core = build_core(runner.ref_trace("base"))
    for level in MARKING_LEVELS:
        config = f"srvp_{level}"
        variant, predictor = runner._build(config, None)
        program = runner.program_variant(variant)
        fresh_trace = FunctionalSimulator(program, memory=runner.workload.memory("ref")).run(
            max_instructions=budget, collect_trace=True
        ).trace
        fresh = build_core(fresh_trace)
        relabelled = relabel_core(base_core, runner.ref_trace(variant))
        assert [_entry_fields(e) for e in relabelled.entries] == [_entry_fields(e) for e in fresh.entries]
        assert list(relabelled.insts.items()) == list(fresh.insts.items())
        over_relabelled = prepare_stream(None, predictor, core=relabelled)
        over_fresh = prepare_stream(None, predictor, core=fresh)
        assert over_relabelled.overlay == over_fresh.overlay, config
        assert over_relabelled.candidates == over_fresh.candidates
        # The session serves the relabelled core too.
        served, _ = runner.pipeline_stream(config)
        assert [_entry_fields(e) for e in served.core.entries] == [_entry_fields(e) for e in fresh.entries]


def test_relabel_core_shares_unchanged_entries_and_rejects_other_traces():
    memory = Memory()
    memory.store(0x100, 7)
    trace = trace_of(LOOP, memory)
    core = build_core(trace)
    marked_load = assemble(LOOP.replace("ld r1", "rvp_ld r1"))[1]
    relabelled_trace = relabel_trace(trace, {1: marked_load})
    relabelled = relabel_core(core, relabelled_trace)
    for old, new, record in zip(core.entries, relabelled.entries, relabelled_trace):
        assert (new is old) == (record.pc != 1)
        assert new.record is record
    assert relabelled.insts[1] is marked_load and core.insts[1] is not marked_load
    with pytest.raises(ValueError):
        relabel_core(core, relabelled_trace[:-1])  # not the same length
    other = assemble(LOOP.replace("add r3, r1, #1", "mul r3, r1, #1"))[2]
    with pytest.raises(ValueError, match="timing facts"):
        relabel_core(core, relabel_trace(trace, {2: other}))
