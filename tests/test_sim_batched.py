"""Unit tests for the batched vectorized engine: lanes, masks, faults.

Cross-engine equivalence on real workloads lives in the matrix test; here
we pin the batched-specific mechanics — per-lane independence under
divergence, lane-local fault retirement with scalar-identical errors,
single-run dispatch through ``engine="batched"``, and input validation.
"""

from __future__ import annotations

import pytest

from repro.isa.assembler import assemble
from repro.sim.batched import LaneResult, run_batch
from repro.sim.functional import FunctionalSimulator
from repro.sim.memory import Memory
from repro.workloads.suite import make_workload

_DIVERGE = """
    ld r1, 0x0(r31)
    li r2, #0
    li r3, #0
    bne r1, taken
    li r2, #1111
    st r2, 0x8(r31)
    br done
taken:
    li r3, #2222
    st r3, 0x10(r31)
done:
    add r4, r2, r3
    mul r5, r1, r4
    halt
"""

_FAULTY = """
    ld r1, 0x0(r31)
    ld r2, 0x0(r1)
    st r2, 0x8(r31)
    halt
"""


def _mem(word0: int) -> Memory:
    memory = Memory()
    memory.store(0, word0)
    return memory


def _scalar(program, memory):
    sim = FunctionalSimulator(program, memory=memory, engine="decoded")
    result = sim.run(max_instructions=1_000)
    return sim, result


def _assert_lane_matches_scalar(lane, program, word0):
    sim, result = _scalar(program, _mem(word0))
    assert lane.instructions == result.instructions
    assert lane.halted == result.halted
    assert lane.state.pc == sim.state.pc
    assert tuple(lane.state.int_regs) == tuple(sim.state.int_regs)
    # Memory.__eq__ compares modulo zero-valued words: the decoded engine
    # records explicit zero stores in its backing dict, the batched
    # writeback does not — loads of absent words read 0 either way.
    assert lane.memory == sim.memory


# ----------------------------------------------------------------------
# Divergence and reconvergence
# ----------------------------------------------------------------------
def test_divergent_lanes_each_match_scalar():
    program = assemble(_DIVERGE, name="diverge")
    values = (0, 1, 0, 7, 0, 123456)  # alternate both sides of the branch
    lanes = run_batch(program, [_mem(v) for v in values], max_instructions=1_000)
    assert [lane.lane for lane in lanes] == list(range(len(values)))
    for lane, value in zip(lanes, values):
        assert isinstance(lane, LaneResult)
        assert lane.error is None
        _assert_lane_matches_scalar(lane, program, value)


def test_uniform_lanes_match_scalar_on_real_workload():
    workload = make_workload("mgrid")
    lanes = run_batch(
        workload.program,
        [workload.memory("ref") for _ in range(4)],
        max_instructions=2_000,
    )
    sim, result = FunctionalSimulator(
        workload.program, memory=workload.memory("ref"), engine="decoded"
    ), None
    result = sim.run(max_instructions=2_000)
    for lane in lanes:
        assert lane.instructions == result.instructions
        assert tuple(lane.state.int_regs) == tuple(sim.state.int_regs)
        assert tuple(lane.state.fp_regs) == tuple(sim.state.fp_regs)


# ----------------------------------------------------------------------
# Per-lane fault retirement
# ----------------------------------------------------------------------
def test_faulting_lane_retires_without_aborting_batch():
    program = assemble(_FAULTY, name="faulty")
    # Lane 1 loads through an unaligned pointer; lanes 0/2 stay healthy.
    lanes = run_batch(program, [_mem(8), _mem(3), _mem(16)], max_instructions=1_000)

    assert lanes[0].error is None and lanes[2].error is None
    _assert_lane_matches_scalar(lanes[0], program, 8)
    _assert_lane_matches_scalar(lanes[2], program, 16)

    bad = lanes[1]
    assert not bad.halted
    # The recorded exception is scalar-identical: same type, same message,
    # same commit count and pc as the decoded engine on the same image.
    sim = FunctionalSimulator(program, memory=_mem(3), engine="decoded")
    with pytest.raises(ValueError, match="unaligned access at address 0x3") as scalar_exc:
        sim.run(max_instructions=1_000)
    assert type(bad.error) is type(scalar_exc.value)
    assert str(bad.error) == str(scalar_exc.value)
    assert bad.instructions == sim.last_result.instructions
    assert bad.state.pc == sim.state.pc


# ----------------------------------------------------------------------
# Engine plumbing and validation
# ----------------------------------------------------------------------
def test_run_batch_counts_metrics():
    from repro.core.metrics import get_metrics

    metrics = get_metrics()
    runs, lanes_before = metrics.get("sim.runs_batched"), metrics.get("sim.batch_lanes")
    program = assemble(_DIVERGE, name="diverge")
    run_batch(program, [_mem(0), _mem(1), _mem(2)], max_instructions=1_000)
    assert metrics.get("sim.runs_batched") == runs + 1
    assert metrics.get("sim.batch_lanes") == lanes_before + 3


def test_budget_length_mismatch_rejected():
    program = assemble(_DIVERGE, name="diverge")
    with pytest.raises(ValueError, match="length mismatch"):
        run_batch(program, [_mem(0), _mem(1)], max_instructions=[100])
