"""Pipeline simulator tests: commit integrity, timing sanity, prediction and
recovery behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import ProgramBuilder, R, assemble
from repro.sim import Memory, run_program
from repro.uarch import PipelineSimulator, RecoveryScheme, simulate, table1_config
from repro.vp import DynamicRVP, LastValuePredictor, NoPredictor

from conftest import random_memory, random_program

CFG = table1_config()


def trace_of(text_or_program, memory=None, budget=50_000):
    program = assemble(text_or_program) if isinstance(text_or_program, str) else text_or_program
    return run_program(program, memory=memory, max_instructions=budget, collect_trace=True).trace


def test_commits_every_traced_instruction(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    stats = simulate(trace, NoPredictor(), CFG)
    assert stats.committed == len(trace)
    assert stats.fetched >= stats.committed
    assert stats.cycles > 0


def test_ipc_bounded_by_machine_width(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    stats = simulate(trace, NoPredictor(), CFG)
    assert 0 < stats.ipc <= CFG.commit_width


def test_serial_chain_limits_ipc():
    # A pure dependence chain can't run faster than 1 IPC.
    b = ProgramBuilder("chain")
    with b.procedure("main"):
        b.li(R[1], 0)
        b.li(R[2], 200)
        b.label("loop")
        for _ in range(8):
            b.addi(R[1], R[1], 1)
        b.subi(R[2], R[2], 1)
        b.bne(R[2], "loop")
        b.halt()
    trace = trace_of(b.build())
    stats = simulate(trace, NoPredictor(), CFG)
    assert stats.ipc < 1.6  # chain + loop overhead


def test_independent_work_exceeds_one_ipc():
    b = ProgramBuilder("wide")
    with b.procedure("main"):
        b.li(R[8], 300)
        b.label("loop")
        for i in range(1, 7):
            b.addi(R[i], R[31], i)
        b.subi(R[8], R[8], 1)
        b.bne(R[8], "loop")
        b.halt()
    trace = trace_of(b.build())
    stats = simulate(trace, NoPredictor(), CFG)
    assert stats.ipc > 2.0


def test_cache_misses_slow_execution():
    # Loads striding far apart miss every time vs hitting one line.
    def run(stride):
        b = ProgramBuilder("mem")
        with b.procedure("main"):
            b.li(R[2], 0x10000)
            b.li(R[3], 400)
            b.label("loop")
            b.ld(R[1], R[2], 0)
            b.addi(R[2], R[2], stride)
            b.subi(R[3], R[3], 1)
            b.bne(R[3], "loop")
            b.halt()
        trace = trace_of(b.build(), Memory())
        return simulate(trace, NoPredictor(), CFG)

    hits = run(0)
    misses = run(4096)
    assert misses.l1d_misses > hits.l1d_misses + 100
    assert misses.cycles > hits.cycles


def test_branch_mispredicts_counted(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    stats = simulate(trace, NoPredictor(), CFG)
    assert stats.branch_mispredicts >= 1  # cold loop exit at least


def _predictable_loop_trace():
    memory = Memory()
    memory.store(0x100, 7)
    text = """
        li r2, #400
    loop:
        ld r1, 0x100(r31)
        add r3, r1, #1
        sub r2, r2, #1
        bne r2, loop
        halt
        """
    return trace_of(text, memory)


def test_prediction_stats_and_speedup():
    trace = _predictable_loop_trace()
    base = simulate(trace, NoPredictor(), CFG)
    rvp_stats = simulate(trace, DynamicRVP(), CFG)
    assert rvp_stats.committed == base.committed
    assert rvp_stats.predictions > 100
    assert rvp_stats.accuracy > 0.95
    assert rvp_stats.coverage <= 1.0


@pytest.mark.parametrize("scheme", list(RecoveryScheme))
def test_all_recovery_schemes_commit_everything(scheme):
    trace = _predictable_loop_trace()
    stats = simulate(trace, DynamicRVP(), CFG, scheme)
    assert stats.committed == len(trace)


def test_mispredictions_trigger_recovery():
    # A load whose value changes every 4th iteration at high confidence.
    memory = Memory()
    b = ProgramBuilder("flaky")
    with b.procedure("main"):
        b.li(R[2], 0x10000)
        b.li(R[3], 300)
        b.label("loop")
        b.ld(R[1], R[2], 0)
        b.add(R[4], R[1], R[1])
        b.addi(R[2], R[2], 8)
        b.subi(R[3], R[3], 1)
        b.bne(R[3], "loop")
        b.halt()
    # Runs of 16 equal values -> confident predictions, periodic misses.
    values = []
    v = 1
    for i in range(300):
        if i % 16 == 0:
            v += 1
        values.append(v)
    memory.write_words(0x10000, values)
    trace = trace_of(b.build(), memory)

    refetch = simulate(trace, DynamicRVP(), CFG, RecoveryScheme.REFETCH)
    selective = simulate(trace, DynamicRVP(), CFG, RecoveryScheme.SELECTIVE)
    assert refetch.value_squashes > 5
    assert selective.value_squashes == 0 and selective.reissued_instructions > 5
    assert refetch.committed == selective.committed == len(trace)
    # Both predict substantially despite the periodic misses (refetch predicts
    # less: every squash restarts the front end and the confidence warmup).
    assert refetch.predictions > 50 and selective.predictions > 50
    assert refetch.accuracy > 0.8 and selective.accuracy > 0.8


def test_predictions_only_for_candidates():
    trace = _predictable_loop_trace()
    loads_only = simulate(trace, DynamicRVP(loads_only=True), CFG)
    all_insts = simulate(trace, DynamicRVP(loads_only=False), CFG)
    assert 0 < loads_only.predictions < all_insts.predictions


def test_lvp_predicts_from_table():
    trace = _predictable_loop_trace()
    stats = simulate(trace, LastValuePredictor(loads_only=True), CFG)
    assert stats.predictions > 100 and stats.accuracy > 0.95


def test_runaway_guard():
    trace = _predictable_loop_trace()
    with pytest.raises(RuntimeError, match="exceeded"):
        simulate(trace, NoPredictor(), CFG, max_cycles=10)


def test_truncated_trace_drains():
    trace = _predictable_loop_trace()[:100]  # no halt record
    stats = simulate(trace, NoPredictor(), CFG)
    assert stats.committed == 100


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=3_000))
def test_pipeline_commits_random_programs_under_all_predictors(seed):
    """Co-simulation integrity: the pipeline commits exactly the functional
    trace for random programs, for every predictor and recovery scheme."""
    program = random_program(seed)
    trace = trace_of(program, random_memory(seed))
    for predictor in (NoPredictor(), LastValuePredictor(loads_only=False), DynamicRVP()):
        for scheme in RecoveryScheme:
            stats = simulate(trace, predictor, CFG, scheme)
            assert stats.committed == len(trace), (predictor.name, scheme)
            assert stats.correct_predictions <= stats.predictions <= stats.committed
            if hasattr(predictor, "reset"):
                predictor.reset()


def test_rename_drops_dependences_on_predictions_without_an_old_writer(
    tiny_loop_program, tiny_loop_memory
):
    # A predicted producer whose prediction value has no producer
    # (pred_value_dep None) contributes no dependence and no dep_fix entry,
    # though the consumer still speculates on it; the dep_fix indices of the
    # other predicted producers point into the dependence list as kept.
    from dataclasses import replace

    from repro.uarch.pipeline import DynInst

    sim = PipelineSimulator(
        trace_of(tiny_loop_program, tiny_loop_memory), NoPredictor(), CFG, engine="reference"
    )
    entries = sim.entries
    no_old, committed, predicted, old_value = 10, 11, 12, 5

    def in_flight(seq, pred_value_dep):
        producer = DynInst(entries[seq])
        producer.predicted, producer.resolved = True, False
        producer.pred_value_dep = pred_value_dep
        sim.window[seq] = producer
        sim.unresolved_preds[seq] = producer
        return producer

    first = in_flight(no_old, None)
    second = in_flight(predicted, old_value)
    producers = (no_old, committed, predicted)
    consumer = DynInst(replace(entries[20], src_deps=producers, store_dep=None, dep_seqs=producers))
    assert sim._rename(consumer, True) is False
    assert consumer.deps == [committed, old_value]
    assert consumer.dep_fix == [(1, predicted)]
    assert consumer.spec_on == {no_old, predicted}
    assert first.spec_consumers == [consumer] and second.spec_consumers == [consumer]
    assert first.first_use == 20 and second.first_use == 20
