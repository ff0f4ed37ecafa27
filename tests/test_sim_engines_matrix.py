"""Differential matrix across every execution tier, workload, and variant.

Each cell of the matrix runs one (workload, program variant) pair through
every execution tier — ``reference`` (the oracle), ``decoded`` (the fast
interpreter), and lane 0 of a multi-lane ``batched`` run — and requires
byte-identical final architectural state: commit count, halt status, final
pc, every integer and FP register, and the full nonzero memory image.

The batched leg deliberately runs *multiple* lanes (lane 0 on the cell's
input, lane 1 on the train input) so lane masking and per-lane retirement
are actually exercised, then checks only lane 0 against the scalar engines.
"""

from __future__ import annotations

import pytest

from repro.core.session import SimSession
from repro.sim.batched import run_batch
from repro.sim.functional import FunctionalSimulator
from repro.workloads.suite import WORKLOAD_CLASSES, make_workload

MAX_INSTS = 3_000
VARIANTS = ("base", "srvp_dead", "realloc")


@pytest.fixture(scope="module")
def session():
    # One session for the whole matrix: variant construction (profiling for
    # srvp_dead, train artifacts for realloc) is paid once per workload.
    return SimSession()


def _snapshot(sim, result):
    state = sim.state
    return {
        "instructions": result.instructions,
        "halted": result.halted,
        "pc": state.pc,
        "int_regs": tuple(state.int_regs),
        "fp_regs": tuple(state.fp_regs),
        "memory": tuple(sorted((k, v) for k, v in sim.memory._words.items() if v)),
    }


def _run_scalar(program, memory, engine):
    sim = FunctionalSimulator(program, memory=memory, engine=engine)
    result = sim.run(max_instructions=MAX_INSTS)
    return _snapshot(sim, result)


def _run_batched_lane0(program, ref_memory, other_memory):
    lanes = run_batch(program, [ref_memory, other_memory], max_instructions=MAX_INSTS)
    lane = lanes[0]
    assert lane.error is None
    state = lane.state
    return {
        "instructions": lane.instructions,
        "halted": lane.halted,
        "pc": state.pc,
        "int_regs": tuple(state.int_regs),
        "fp_regs": tuple(state.fp_regs),
        "memory": tuple(sorted((k, v) for k, v in lane.memory._words.items() if v)),
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_engine_matrix_cell(session, name, variant):
    program = session.program_variant(name, 1.0, MAX_INSTS, variant, None, 0.8)
    workload = make_workload(name)

    oracle = _run_scalar(program, workload.memory("ref"), "reference")
    assert oracle["instructions"] > 0

    decoded = _run_scalar(program, workload.memory("ref"), "decoded")
    assert decoded == oracle, f"{name}/{variant}: decoded diverged from reference"

    batched = _run_batched_lane0(program, workload.memory("ref"), workload.memory("train"))
    assert batched == oracle, f"{name}/{variant}: batched lane 0 diverged from reference"
