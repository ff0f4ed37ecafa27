"""Instruction-budget guards: strict-budget simulators and the stream cap.

A runaway program (or an over-budget trace source) must become a
*deterministic, classifiable* fault — the campaign taxonomy's fail-fast
path — instead of a silently truncated result or a hung worker."""

from __future__ import annotations

import pytest

from repro.runtime.errors import DETERMINISTIC, classify_failure
from repro.sim.functional import BudgetExceeded, FunctionalSimulator, SimulationError
from repro.uarch.stream import prepare_stream
from repro.vp.base import NoPredictor
from repro.workloads.suite import make_workload

#: Small enough that every workload's ref run overruns it.
TINY_BUDGET = 50


def _sim(engine: str, strict: bool) -> FunctionalSimulator:
    program, memory = make_workload("li").build("ref")
    return FunctionalSimulator(program, memory=memory, engine=engine, strict_budget=strict)


@pytest.mark.parametrize("engine", ["reference", "decoded"])
def test_default_budget_truncates(engine):
    result = _sim(engine, strict=False).run(max_instructions=TINY_BUDGET)
    assert result.instructions == TINY_BUDGET
    assert not result.halted


@pytest.mark.parametrize("engine", ["reference", "decoded"])
@pytest.mark.parametrize("collect_trace", [False, True])
def test_strict_budget_raises_in_both_engines(engine, collect_trace):
    with pytest.raises(BudgetExceeded, match=f"budget {TINY_BUDGET}"):
        _sim(engine, strict=True).run(
            max_instructions=TINY_BUDGET, collect_trace=collect_trace
        )


def test_strict_budget_streaming_path():
    sim = _sim("decoded", strict=True)
    seen = 0
    with pytest.raises(BudgetExceeded):
        for _ in sim.iter_run(max_instructions=TINY_BUDGET):
            seen += 1
    assert seen == TINY_BUDGET  # every in-budget record was still delivered


def test_strict_budget_silent_when_program_halts():
    # A budget comfortably past natural termination never fires the guard.
    program, memory = make_workload("li").build("ref")
    full = FunctionalSimulator(program, memory=memory).run(max_instructions=10_000_000)
    assert full.halted
    program, memory = make_workload("li").build("ref")
    strict = FunctionalSimulator(program, memory=memory, strict_budget=True)
    result = strict.run(max_instructions=full.instructions + 1)
    assert result.halted and result.instructions == full.instructions


def test_budget_exceeded_is_a_deterministic_simulator_fault():
    exc = BudgetExceeded("over budget")
    assert isinstance(exc, SimulationError)
    assert classify_failure(exc) == DETERMINISTIC


# ----------------------------------------------------------------------
# Per-lane budgets in the batched engine
# ----------------------------------------------------------------------
def test_batched_strict_budget_names_the_exhausted_lane():
    # Lane 0 gets room to halt naturally; lane 1 is starved.  The strict
    # guard must name lane 1 and report *that lane's* pc — which we pin by
    # running the same program/input scalar with the same tiny budget.
    program, _ = make_workload("li").build("ref")
    scalar = _sim("decoded", strict=False)
    scalar.run(max_instructions=TINY_BUDGET)
    expected_pc = scalar.state.pc

    from repro.sim.batched import run_batch

    workload = make_workload("li")
    memories = [workload.memory("ref"), workload.memory("ref")]
    with pytest.raises(
        BudgetExceeded,
        match=rf"budget {TINY_BUDGET}, pc {expected_pc}\) \[lane 1\]",
    ):
        run_batch(
            program, memories,
            max_instructions=[10_000_000, TINY_BUDGET],
            strict_budget=True,
        )


def test_batched_per_lane_budgets_retire_at_scalar_pcs():
    # Non-strict: each lane truncates independently at its own budget, at
    # exactly the pc the scalar decoded engine reaches under that budget.
    from repro.sim.batched import run_batch

    workload = make_workload("li")
    budgets = [TINY_BUDGET, 3 * TINY_BUDGET, 10_000_000]
    lanes = run_batch(
        workload.program,
        [workload.memory("ref") for _ in budgets],
        max_instructions=budgets,
    )
    for lane, budget in zip(lanes, budgets):
        scalar = FunctionalSimulator(
            workload.program, memory=workload.memory("ref"), engine="decoded"
        )
        result = scalar.run(max_instructions=budget)
        assert lane.instructions == result.instructions
        assert lane.halted == result.halted
        assert lane.state.pc == scalar.state.pc
        assert tuple(lane.state.int_regs) == tuple(scalar.state.int_regs)
    assert lanes[2].halted and not lanes[0].halted and not lanes[1].halted


# ----------------------------------------------------------------------
# JIT budget guard: mid-superinstruction exits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [TINY_BUDGET, 137, 1000])
def test_jit_budget_exit_matches_decoded_state(budget):
    # A budget that lands mid-hot-block forces the JIT's guard to fall back
    # to single-instruction handlers; commit count, pc, and register state
    # must be indistinguishable from the decoded engine at the same budget.
    import repro.sim.jit as jit_tier

    old = jit_tier.JIT_THRESHOLD
    jit_tier.JIT_THRESHOLD = 1  # compile every block so the guard actually fires
    try:
        decoded = _sim("decoded", strict=False)
        dres = decoded.run(max_instructions=budget)
        jit = _sim("jit", strict=False)
        jres = jit.run(max_instructions=budget)
    finally:
        jit_tier.JIT_THRESHOLD = old
    assert jres.instructions == dres.instructions == budget
    assert jres.halted == dres.halted
    assert jit.state.pc == decoded.state.pc
    assert tuple(jit.state.int_regs) == tuple(decoded.state.int_regs)
    assert tuple(jit.state.fp_regs) == tuple(decoded.state.fp_regs)
    assert jit.memory._words == decoded.memory._words


def test_jit_strict_budget_raises_like_decoded():
    with pytest.raises(BudgetExceeded) as jit_exc:
        _sim("jit", strict=True).run(max_instructions=TINY_BUDGET)
    with pytest.raises(BudgetExceeded) as dec_exc:
        _sim("decoded", strict=True).run(max_instructions=TINY_BUDGET)
    assert str(jit_exc.value) == str(dec_exc.value)


def test_jit_default_budget_truncates():
    result = _sim("jit", strict=False).run(max_instructions=TINY_BUDGET)
    assert result.instructions == TINY_BUDGET
    assert not result.halted


def test_prepare_stream_entry_cap():
    program, memory = make_workload("li").build("ref")
    sim = FunctionalSimulator(program, memory=memory)
    trace = sim.run(max_instructions=200, collect_trace=True).trace
    assert prepare_stream(trace, NoPredictor()) is not None  # uncapped: fine
    assert len(prepare_stream(trace, NoPredictor(), max_entries=len(trace))) == len(trace)
    with pytest.raises(BudgetExceeded, match="stream budget exhausted"):
        prepare_stream(trace, NoPredictor(), max_entries=len(trace) - 1)
    # The cap holds for an overlay over a shared core too.
    core = prepare_stream(trace, NoPredictor()).core
    assert len(prepare_stream(None, NoPredictor(), core=core, max_entries=len(trace))) == len(trace)
    with pytest.raises(BudgetExceeded, match="stream budget exhausted"):
        prepare_stream(None, NoPredictor(), core=core, max_entries=len(trace) - 1)
