"""Batched SIMT-style execution tier: N datasets through one decoded Program.

One :class:`Program` is decoded once into *vector builders* — one per static
instruction — that operate on NumPy register files of shape ``(32, L)``
(uint64, C-order: each architectural register is one contiguous row across
all ``L`` live lanes).  A batch run interleaves two regimes:

* **lockstep** — every live lane sits at the same pc, so one handler call
  commits one instruction for *all* lanes (``np.add(row, row, out=row)``
  style).  This is where the throughput comes from: the per-step Python
  dispatch overhead is paid once per batch instead of once per lane.
* **masked** — lanes have diverged (a data-dependent branch or an indirect
  jump with disagreeing targets).  Execution falls back to scalar per-lane
  stepping of the minimum-pc lane group (min-pc scheduling reconverges
  loops at their headers), using exactly the reference operand semantics.
  As soon as every live lane agrees on a pc again, lockstep resumes.

Memory is vectorized through a *dense window*: a ``(lanes, cap)`` uint64
image covering word indices ``[0, cap)`` (``cap`` a power of two sized from
the initial footprint, grown on demand up to :data:`DENSE_MAX_WORDS`), so a
lockstep load/store is one fancy gather/scatter instead of L dict probes.
Entries outside the window stay in each lane's sparse :class:`Memory` dict;
retiring a lane writes its window back into its ``Memory`` so callers see
ordinary memory objects.  Power-of-two window bounds make the single
or-reduce over the address vector an *exact* "any lane misaligned / any
lane outside" test (the OR of uint64s is >= each operand, and crosses a
power of two iff some operand does), so the fast path needs exactly one
reduction per memory step.

Per-lane semantics are identical to the scalar engines by construction:

* every vectorized operation either wraps identically mod 2**64 (add, sub,
  mul, bitwise, shifts via pre-masked counts, signed compares via int64
  views) or is delegated to the scalar ``alu_fn`` per lane (div/rem and any
  immediate form whose Python semantics don't map onto a uint64 kernel);
* faults are *per lane*: an unaligned access or out-of-range pc retires the
  offending lane with the exact scalar-engine exception recorded on its
  :class:`LaneResult` (same message, same ``state.pc``, same commit count)
  while the remaining lanes keep running — a potentially-faulting vector
  access commits nothing and is replayed on the masked path;
* budgets are per lane: a lane that exhausts its budget retires unhalted at
  its current pc (or raises :class:`BudgetExceeded` under ``strict_budget``
  naming the lane), without disturbing sibling lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

import numpy as np

from ..isa.instructions import Instruction
from ..isa.opcodes import MASK64, SIGN_BIT, OpKind, _ALU_FNS
from ..isa.program import Program
from ..isa.registers import NUM_FP_REGS, NUM_INT_REGS
from .decoded import _FLAT_CONDS
from .functional import BudgetExceeded, RunResult, SimulationError
from .machine import ArchState
from .memory import Memory

__all__ = ["LaneResult", "BatchedProgram", "batched_decode", "run_batch"]

#: Sentinel return codes from lockstep handlers (real pcs are >= 0).
HALT_CODE = -1  #: the batch executed a halt (all lanes retire halted)
DIVERGE = -2  #: a branch/indirect split the lanes; per-lane pcs were published
REFAULT = -3  #: a memory op may fault on some lane; nothing committed, replay masked

#: Dense-window size in 8-byte words (a power of two).  The window is
#: allocated at full size per batch — 32 MiB of *virtual* address space per
#: lane; calloc'd pages materialize only where the program actually touches.
DENSE_WORDS = 1 << 22

_U64 = np.uint64
_I64 = np.int64
_U0 = np.uint64(0)
_U3 = np.uint64(3)
_U63 = np.uint64(63)
_SB = np.uint64(SIGN_BIT)

# Reverse map from an opcode's alu_fn to its canonical semantic name, so fp
# aliases (fadd -> add, itof -> mov, ...) vectorize through one table.
_FN_NAME = {fn: name for name, fn in _ALU_FNS.items()}

# Immediate-form ops whose Python-int semantics are *exactly* reproduced by
# uint64 kernels with a pre-masked immediate (wrap mod 2**64, or bitwise ops
# where only the low 64 bits of the immediate can matter).  Everything else
# (div/rem, sra, signed compares, ...) takes the scalar per-lane path with
# the raw immediate, byte-matching ``fn(a, imm)`` in the reference engine.
_IMM_VECTOR_SAFE = frozenset(
    {"add", "sub", "mul", "and", "or", "xor", "sll", "srl", "mov", "li"}
)

#: Mutation seam for the fuzz-oracle self-test: when True, a divergent branch
#: applies the majority outcome to *every* lane (a seeded lane-mask defect
#: that the batched oracle leg must catch).
_TEST_BREAK_LANE_MASK = False

#: Branches whose taken-count is a bare ``count_nonzero`` on the test row
#: (no bool temporary needed until lanes actually diverge).
_NONZERO_TAKEN = frozenset({"bne", "fbne"})
_ZERO_TAKEN = frozenset({"beq", "fbeq"})

#: Vectorized branch tests on the unsigned uint64 test row -> bool vector.
_VEC_CONDS = {
    "beq": lambda v: v == _U0,
    "bne": lambda v: v != _U0,
    "blt": lambda v: v >= _SB,
    "ble": lambda v: (v == _U0) | (v >= _SB),
    "bgt": lambda v: (v != _U0) & (v < _SB),
    "bge": lambda v: v < _SB,
    "fbeq": lambda v: v == _U0,
    "fbne": lambda v: v != _U0,
}


@dataclass
class LaneResult(RunResult):
    """Per-lane outcome of :func:`run_batch`.

    ``error`` carries the exact exception the scalar engines would have
    raised for this lane's input (lane faults retire the lane instead of
    aborting the batch).  ``lane`` is the caller's original lane index.
    """

    error: Optional[BaseException] = None
    lane: int = -1


class _MemCtx:
    """Live memory context shared by every bound lockstep handler.

    ``dense`` is the ``(total_lanes, DENSE_WORDS)`` window (or None for
    pure-dict mode), ``rows`` the dense row index per live lane column, and
    ``mget``/``mput`` the per-live-lane scalar accessors used by the masked
    path (window-aware when dense is active).  ``init_words`` bounds the
    initial footprint and ``dirty`` exactly tracks store targets beyond it,
    so retiring a lane never scans the full virtual window.
    """

    __slots__ = ("dense", "rows", "mget", "mput", "init_words", "dirty")

    def __init__(self) -> None:
        self.dense: Optional[np.ndarray] = None
        self.rows: Optional[np.ndarray] = None
        self.mget: list = []
        self.mput: list = []
        self.init_words: int = 0
        self.dirty: Set[int] = set()


def _row(ints, fps, reg):
    return fps[reg.index] if reg.is_fp else ints[reg.index]


# ---------------------------------------------------------------------------
# Vector (lockstep) builders
# ---------------------------------------------------------------------------


def _build_alu_vector(inst: Instruction):
    """Lockstep builder for an ALU op, or None to force the scalar path."""
    op = inst.op
    sem = _FN_NAME.get(op.alu_fn)
    if sem is None:  # pragma: no cover - every shipped opcode maps
        return None
    s1, s2, dst = inst.src1, inst.src2, inst.writes
    fall = inst.pc + 1

    if s1 is None:  # li / fli: decode-time constant broadcast
        imm = inst.imm if inst.imm is not None else 0
        const = np.uint64(op.alu_fn(0, imm) & MASK64)
        if dst is None:

            def build(ints, fps, mem, div, L):
                def run():
                    return fall

                return run

            return build

        def build(ints, fps, mem, div, L, _dst=dst):
            d = _row(ints, fps, _dst)

            def run():
                d.fill(const)
                return fall

            return run

        return build

    if dst is None:
        # Result architecturally dropped and uint64 kernels cannot fault:
        # a pure fall-through (div-by-zero is defined as 0 in this ISA).
        def build(ints, fps, mem, div, L):
            def run():
                return fall

            return run

        return build

    if s2 is not None:  # register-register
        if sem in ("div", "rem"):
            fn = op.alu_fn

            def build(ints, fps, mem, div, L, _s1=s1, _s2=s2, _dst=dst):
                a = _row(ints, fps, _s1)
                b = _row(ints, fps, _s2)
                d = _row(ints, fps, _dst)

                def run():
                    d[:] = [fn(x, y) & MASK64 for x, y in zip(a.tolist(), b.tolist())]
                    return fall

                return run

            return build

        kernel = _RR_KERNELS.get(sem)
        if kernel is None:  # pragma: no cover - table covers the ISA
            return None

        def build(ints, fps, mem, div, L, _s1=s1, _s2=s2, _dst=dst):
            a = _row(ints, fps, _s1)
            b = _row(ints, fps, _s2)
            d = _row(ints, fps, _dst)

            def run():
                kernel(a, b, d)
                return fall

            return run

        return build

    # register + immediate (or 1-operand mov)
    imm = inst.imm if inst.imm is not None else 0
    if sem not in _IMM_VECTOR_SAFE:
        fn = op.alu_fn

        def build(ints, fps, mem, div, L, _s1=s1, _dst=dst):
            a = _row(ints, fps, _s1)
            d = _row(ints, fps, _dst)

            def run():
                d[:] = [fn(x, imm) & MASK64 for x in a.tolist()]
                return fall

            return run

        return build

    kernel = _RI_KERNELS[sem](imm)

    def build(ints, fps, mem, div, L, _s1=s1, _dst=dst):
        a = _row(ints, fps, _s1)
        d = _row(ints, fps, _dst)

        def run():
            kernel(a, d)
            return fall

        return run

    return build


def _cmp_signed(cmp):
    def kernel(a, b, d):
        d[:] = cmp(a.view(_I64), b.view(_I64))

    return kernel


def _sra_rr(a, b, d):
    np.right_shift(a.view(_I64), (b & _U63).view(_I64), out=d.view(_I64))


_RR_KERNELS = {
    "add": lambda a, b, d: np.add(a, b, out=d),
    "sub": lambda a, b, d: np.subtract(a, b, out=d),
    "mul": lambda a, b, d: np.multiply(a, b, out=d),
    "and": lambda a, b, d: np.bitwise_and(a, b, out=d),
    "or": lambda a, b, d: np.bitwise_or(a, b, out=d),
    "xor": lambda a, b, d: np.bitwise_xor(a, b, out=d),
    "sll": lambda a, b, d: np.left_shift(a, b & _U63, out=d),
    "srl": lambda a, b, d: np.right_shift(a, b & _U63, out=d),
    "sra": _sra_rr,
    "mov": lambda a, b, d: np.copyto(d, a),
    "cmpeq": lambda a, b, d: d.__setitem__(slice(None), a == b),
    "cmpne": lambda a, b, d: d.__setitem__(slice(None), a != b),
    "cmpult": lambda a, b, d: d.__setitem__(slice(None), a < b),
    "cmplt": _cmp_signed(lambda a, b: a < b),
    "cmple": _cmp_signed(lambda a, b: a <= b),
}


def _ri_wrap(ufunc):
    def make(imm):
        k = np.uint64(imm & MASK64)

        def kernel(a, d):
            ufunc(a, k, out=d)

        return kernel

    return make


def _ri_shift(ufunc):
    def make(imm):
        k = np.uint64(imm & 63)

        def kernel(a, d):
            ufunc(a, k, out=d)

        return kernel

    return make


_RI_KERNELS = {
    "add": _ri_wrap(np.add),
    "sub": _ri_wrap(np.subtract),
    "mul": _ri_wrap(np.multiply),
    "and": _ri_wrap(np.bitwise_and),
    "or": _ri_wrap(np.bitwise_or),
    "xor": _ri_wrap(np.bitwise_xor),
    "sll": _ri_shift(np.left_shift),
    "srl": _ri_shift(np.right_shift),
    "mov": lambda imm: (lambda a, d: np.copyto(d, a)),
    "li": lambda imm: (lambda a, d: d.fill(np.uint64(imm & MASK64))),
}


def _build_vector(inst: Instruction):
    """Compile one static instruction into its lockstep vector builder.

    A builder takes the live batch context ``(ints, fps, mem, div, L)`` and
    returns ``run() -> next_pc | sentinel``.  Builders are re-bound whenever
    the lane set or the dense window changes, so handlers can capture the
    register rows and window arrays directly.
    """
    op = inst.op
    kind = op.kind
    fall = inst.pc + 1

    if kind is OpKind.ALU:
        build = _build_alu_vector(inst)
        if build is not None:
            return build

        # Unmapped ALU op: replay every step on the masked path.
        def build_fallback(ints, fps, mem, div, L):  # pragma: no cover
            def run():
                return REFAULT

            return run

        return build_fallback  # pragma: no cover

    if kind is OpKind.LOAD:
        s1, dst = inst.src1, inst.writes
        off = np.uint64((inst.imm or 0) & MASK64)

        def build(ints, fps, mem, div, L, _s1=s1, _dst=dst):
            base = _row(ints, fps, _s1)
            d = _row(ints, fps, _dst) if _dst is not None else None
            dense, rows = mem.dense, mem.rows
            if dense is None:
                mget = mem.mget

                def run():
                    addr = base + off
                    if int(np.bitwise_or.reduce(addr)) & 7:
                        return REFAULT
                    idx = (addr >> _U3).tolist()
                    if d is None:
                        for g, ix in zip(mget, idx):
                            g(ix)
                    else:
                        d[:] = [g(ix) for g, ix in zip(mget, idx)]
                    return fall

                return run

            def run():
                addr = base + off
                if int(np.bitwise_or.reduce(addr)) & _BAD_ADDR:
                    return REFAULT  # misaligned or beyond the window
                if d is not None:
                    d[:] = dense[rows, addr >> _U3]
                return fall

            return run

        return build

    if kind is OpKind.STORE:
        s1, s2 = inst.src1, inst.src2
        off = np.uint64((inst.imm or 0) & MASK64)

        def build(ints, fps, mem, div, L, _s1=s1, _s2=s2):
            base = _row(ints, fps, _s1)
            val = _row(ints, fps, _s2)
            dense, rows = mem.dense, mem.rows
            if dense is None:
                mput = mem.mput

                def run():
                    addr = base + off
                    if int(np.bitwise_or.reduce(addr)) & 7:
                        return REFAULT
                    idx = (addr >> _U3).tolist()
                    for p, ix, v in zip(mput, idx, val.tolist()):
                        p(ix, v)
                    return fall

                return run

            init_words8 = mem.init_words * 8
            dirty = mem.dirty

            def run():
                addr = base + off
                m = int(np.bitwise_or.reduce(addr))
                if m & _BAD_ADDR:
                    return REFAULT  # misaligned or beyond the window
                idx = addr >> _U3
                dense[rows, idx] = val
                if m >= init_words8:
                    # Rare: stores past the initial footprint are tracked
                    # exactly so lane retirement never scans the window tail.
                    dirty.update(idx.tolist())
                return fall

            return run

        return build

    if kind is OpKind.BRANCH:
        s1 = inst.src1
        target = inst.target_pc
        name = op.name
        if name in _NONZERO_TAKEN or name in _ZERO_TAKEN:
            taken_on_nonzero = name in _NONZERO_TAKEN

            def build(ints, fps, mem, div, L, _s1=s1):
                v = _row(ints, fps, _s1)
                t_all, t_none = (target, fall) if taken_on_nonzero else (fall, target)

                def run():
                    nz = int(np.count_nonzero(v))
                    if nz == L:
                        return t_all
                    if nz == 0:
                        return t_none
                    if _TEST_BREAK_LANE_MASK:
                        return t_all if nz * 2 >= L else t_none
                    taken = v != _U0 if taken_on_nonzero else v == _U0
                    div[0] = [target if b else fall for b in taken.tolist()]
                    return DIVERGE

                return run

            return build

        cond = _VEC_CONDS.get(name)
        if cond is None:  # pragma: no cover - every shipped branch is mapped
            flat = _FLAT_CONDS.get(name) or op.cond_fn

            def cond(v, _flat=flat):  # type: ignore[misc]
                return np.fromiter(
                    (_flat(int(x)) for x in v), dtype=bool, count=len(v)
                )

        def build(ints, fps, mem, div, L, _s1=s1):
            v = _row(ints, fps, _s1)

            def run():
                t = cond(v)
                nt = int(t.sum())
                if nt == L:
                    return target
                if nt == 0:
                    return fall
                if _TEST_BREAK_LANE_MASK:
                    return target if nt * 2 >= L else fall
                div[0] = [target if b else fall for b in t.tolist()]
                return DIVERGE

            return run

        return build

    if kind is OpKind.JUMP:
        target = inst.target_pc

        def build(ints, fps, mem, div, L):
            def run():
                return target

            return run

        return build

    if kind is OpKind.CALL:
        target = inst.target_pc
        return_pc = np.uint64(inst.pc + 1)
        dst = inst.writes

        def build(ints, fps, mem, div, L, _dst=dst):
            d = _row(ints, fps, _dst) if _dst is not None else None

            def run():
                if d is not None:
                    d.fill(return_pc)
                return target

            return run

        return build

    if kind is OpKind.INDIRECT:
        s1 = inst.src1

        def build(ints, fps, mem, div, L, _s1=s1):
            v = _row(ints, fps, _s1)

            def run():
                t0 = int(v[0])
                if L == 1 or bool((v == v[0]).all()):
                    return t0
                div[0] = [int(x) for x in v]
                return DIVERGE

            return run

        return build

    if kind is OpKind.HALT:

        def build(ints, fps, mem, div, L):
            def run():
                return HALT_CODE

            return run

        return build

    # NOP

    def build(ints, fps, mem, div, L):
        def run():
            return fall

        return run

    return build


#: One test catches both fault classes on the OR of a uint64 address vector:
#: a low bit set means some lane is misaligned; a bit at or above the window
#: bound means some lane indexes beyond it (both bounds are powers of two).
_BAD_ADDR = 7 | (MASK64 ^ (DENSE_WORDS * 8 - 1))


# ---------------------------------------------------------------------------
# Scalar (masked) steps — reference operand semantics, one lane at a time
# ---------------------------------------------------------------------------


def _build_scalar(inst: Instruction):
    """Compile one static instruction into ``step(ints, fps, mget, mput, k)``.

    Executes the instruction for lane column ``k`` only, returning the next
    pc (or :data:`HALT_CODE`) and raising exactly what the scalar engines
    raise.  Used while lanes are diverged and to replay potentially-faulting
    vector memory ops.
    """
    op = inst.op
    kind = op.kind
    fall = inst.pc + 1

    if kind is OpKind.ALU:
        fn = op.alu_fn
        s1, s2, dst = inst.src1, inst.src2, inst.writes
        imm = inst.imm if inst.imm is not None else 0
        if s1 is not None and s2 is not None:

            def step(ints, fps, mget, mput, k, _s1=s1, _s2=s2, _dst=dst):
                a = int(_row(ints, fps, _s1)[k])
                b = int(_row(ints, fps, _s2)[k])
                if _dst is not None:
                    _row(ints, fps, _dst)[k] = fn(a, b) & MASK64
                return fall

        elif s1 is not None:

            def step(ints, fps, mget, mput, k, _s1=s1, _dst=dst):
                a = int(_row(ints, fps, _s1)[k])
                if _dst is not None:
                    _row(ints, fps, _dst)[k] = fn(a, imm) & MASK64
                return fall

        else:
            const_masked = fn(0, imm) & MASK64

            def step(ints, fps, mget, mput, k, _dst=dst):
                if _dst is not None:
                    _row(ints, fps, _dst)[k] = const_masked
                return fall

        return step

    if kind is OpKind.LOAD:
        s1, dst = inst.src1, inst.writes
        off = inst.imm or 0

        def step(ints, fps, mget, mput, k, _s1=s1, _dst=dst):
            addr = (int(_row(ints, fps, _s1)[k]) + off) & MASK64
            if addr & 7:
                raise ValueError(f"unaligned access at address {addr:#x}")
            value = mget[k](addr >> 3)
            if _dst is not None:
                _row(ints, fps, _dst)[k] = value
            return fall

        return step

    if kind is OpKind.STORE:
        s1, s2 = inst.src1, inst.src2
        off = inst.imm or 0

        def step(ints, fps, mget, mput, k, _s1=s1, _s2=s2):
            addr = (int(_row(ints, fps, _s1)[k]) + off) & MASK64
            if addr & 7:
                raise ValueError(f"unaligned access at address {addr:#x}")
            mput[k](addr >> 3, int(_row(ints, fps, _s2)[k]))
            return fall

        return step

    if kind is OpKind.BRANCH:
        s1 = inst.src1
        target = inst.target_pc
        flat = _FLAT_CONDS.get(op.name)
        if flat is None:  # pragma: no cover - every shipped branch is mapped
            cond_fn = op.cond_fn
            flat = lambda v, _fn=cond_fn: _fn(v)  # noqa: E731

        def step(ints, fps, mget, mput, k, _s1=s1):
            return target if flat(int(_row(ints, fps, _s1)[k])) else fall

        return step

    if kind is OpKind.JUMP:
        target = inst.target_pc

        def step(ints, fps, mget, mput, k):
            return target

        return step

    if kind is OpKind.CALL:
        target = inst.target_pc
        return_pc = inst.pc + 1
        dst = inst.writes

        def step(ints, fps, mget, mput, k, _dst=dst):
            if _dst is not None:
                _row(ints, fps, _dst)[k] = return_pc
            return target

        return step

    if kind is OpKind.INDIRECT:
        s1 = inst.src1

        def step(ints, fps, mget, mput, k, _s1=s1):
            return int(_row(ints, fps, _s1)[k])

        return step

    if kind is OpKind.HALT:

        def step(ints, fps, mget, mput, k):
            return HALT_CODE

        return step

    def step(ints, fps, mget, mput, k):  # NOP
        return fall

    return step


class BatchedProgram:
    """Once-per-program batched decode: vector builders + scalar steps."""

    __slots__ = ("program", "builders", "scalars")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.builders = tuple(_build_vector(inst) for inst in program)
        self.scalars = tuple(_build_scalar(inst) for inst in program)


def batched_decode(program: Program) -> BatchedProgram:
    """Batched-decode ``program`` once; repeated calls return the cache."""
    cached: Optional[BatchedProgram] = getattr(program, "_batched_cache", None)
    if cached is None:
        cached = BatchedProgram(program)
        program._batched_cache = cached  # type: ignore[attr-defined]
    return cached


def _pow2_at_least(n: int) -> int:
    cap = 4096
    while cap < n:
        cap *= 2
    return cap


# ---------------------------------------------------------------------------
# Batch run loop
# ---------------------------------------------------------------------------


def run_batch(
    program: Program,
    memories: Sequence[Memory],
    max_instructions: Union[int, Sequence[int]] = 1_000_000,
    strict_budget: bool = False,
) -> List[LaneResult]:
    """Run ``program`` over ``len(memories)`` lanes simultaneously.

    Each lane owns one :class:`Memory` (mutated in place) and one fresh
    :class:`ArchState`.
    ``max_instructions`` is either one shared budget or a per-lane sequence.
    Returns one :class:`LaneResult` per input lane, in input order; lane
    faults are recorded on ``LaneResult.error`` rather than raised, except
    under ``strict_budget`` where the first budget exhaustion (lowest lane
    index) raises :class:`BudgetExceeded` naming the lane and its pc.
    """
    total_lanes = len(memories)
    states = [ArchState() for _ in range(total_lanes)]
    if isinstance(max_instructions, int):
        budgets = [max_instructions] * total_lanes
    else:
        budgets = [int(b) for b in max_instructions]
        if len(budgets) != total_lanes:
            raise ValueError(
                f"max_instructions/memories length mismatch: "
                f"{len(budgets)} != {total_lanes}"
            )
    if total_lanes == 0:
        return []

    bp = batched_decode(program)
    builders = bp.builders
    scalars = bp.scalars
    n = len(program)
    name = program.name
    entry = program.entry

    ints = np.zeros((NUM_INT_REGS, total_lanes), dtype=_U64)
    fps = np.zeros((NUM_FP_REGS, total_lanes), dtype=_U64)
    for k, st in enumerate(states):
        st.pc = entry
        ints[:, k] = st.int_regs
        fps[:, k] = st.fp_regs

    # --- dense memory window -------------------------------------------
    mem = _MemCtx()
    max_key = -1
    for m in memories:
        if m._words:
            mk = max(m._words)
            if mk > max_key:
                max_key = mk
    if max_key < DENSE_WORDS:
        # All initial contents fit the window: move them out of the dicts
        # into the dense image (they return at lane retirement).  The
        # initial footprint bound caps the retirement scan.
        dense = np.zeros((total_lanes, DENSE_WORDS), dtype=_U64)
        for k, m in enumerate(memories):
            words = m._words
            if words:
                drow = dense[k]
                for ix in list(words):
                    drow[ix] = words.pop(ix)
        mem.dense = dense
        mem.init_words = _pow2_at_least(max_key + 1)
        init_words = mem.init_words
        dirty = mem.dirty

        def _make_get(drow, raw_get):
            def get(ix):
                if ix < DENSE_WORDS:
                    return int(drow[ix])
                return raw_get(ix)

            return get

        def _make_put(drow, raw_put):
            def put(ix, v):
                if ix < DENSE_WORDS:
                    drow[ix] = v
                    if ix >= init_words:
                        dirty.add(ix)
                else:
                    raw_put(ix, v)

            return put

    lane_ids = list(range(total_lanes))
    pcs = [entry] * total_lanes
    executed = [0] * total_lanes
    div: List[Optional[List[int]]] = [None]
    results: List[Optional[LaneResult]] = [None] * total_lanes

    def refresh_mem() -> None:
        """Rebuild the per-live-lane views of the memory context."""
        if mem.dense is None:
            mem.mget = [memories[gid].load_word_index for gid in lane_ids]
            mem.mput = [memories[gid].store_word_index for gid in lane_ids]
        else:
            mem.rows = np.array(lane_ids, dtype=np.intp)
            mem.mget = [
                _make_get(mem.dense[gid], memories[gid].load_word_index)
                for gid in lane_ids
            ]
            mem.mput = [
                _make_put(mem.dense[gid], memories[gid].store_word_index)
                for gid in lane_ids
            ]

    def bind() -> list:
        L = len(lane_ids)
        return [b(ints, fps, mem, div, L) for b in builders]

    refresh_mem()
    handlers = bind()

    def writeback(col: int) -> None:
        """Flush the dense window row for live column ``col`` to its dict."""
        if mem.dense is None:
            return
        gid = lane_ids[col]
        drow = mem.dense[gid]
        words = memories[gid]._words
        head = drow[: mem.init_words]
        nz = np.flatnonzero(head)
        if len(nz):
            for ix, v in zip(nz.tolist(), head[nz].tolist()):
                words[ix] = v
            head[nz] = 0  # idempotent: a second flush adds nothing
        for ix in mem.dirty:
            v = int(drow[ix])
            if v:
                words[ix] = v
                drow[ix] = 0

    def finalize(col: int, halted: bool, error: Optional[BaseException] = None) -> None:
        gid = lane_ids[col]
        writeback(col)
        st = states[gid]
        st.int_regs = ints[:, col].tolist()
        st.fp_regs = fps[:, col].tolist()
        st.pc = pcs[col]
        results[gid] = LaneResult(
            state=st,
            memory=memories[gid],
            instructions=executed[col],
            halted=halted,
            trace=None,
            error=error,
            lane=gid,
        )

    def compact(dead: Set[int]) -> None:
        nonlocal ints, fps, lane_ids, pcs, executed, budgets, handlers
        keep = [k for k in range(len(lane_ids)) if k not in dead]
        ints = np.ascontiguousarray(ints[:, keep])
        fps = np.ascontiguousarray(fps[:, keep])
        lane_ids = [lane_ids[k] for k in keep]
        pcs = [pcs[k] for k in keep]
        executed = [executed[k] for k in keep]
        budgets = [budgets[k] for k in keep]
        if lane_ids:
            refresh_mem()
            handlers = bind()

    def masked_step(sel: List[int], at_pc: int) -> Set[int]:
        """Execute the instruction at ``at_pc`` for lane columns ``sel``."""
        dead: Set[int] = set()
        if not 0 <= at_pc < n:
            err_msg = f"pc {at_pc} out of range (program {name})"
            for k in sel:
                finalize(k, halted=False, error=SimulationError(err_msg))
                dead.add(k)
            return dead
        step = scalars[at_pc]
        mget, mput = mem.mget, mem.mput
        for k in sel:
            try:
                nxt = step(ints, fps, mget, mput, k)
            except (ValueError, SimulationError) as exc:
                # Fault before commit: pc and commit count stay put.
                finalize(k, halted=False, error=exc)
                dead.add(k)
                continue
            executed[k] += 1
            if nxt == HALT_CODE:
                finalize(k, halted=True)  # pc stays at the halt pc
                dead.add(k)
            else:
                pcs[k] = nxt
        return dead

    lane_instructions = 0
    try:
        while lane_ids:
            Lc = len(lane_ids)

            # Retire budget-exhausted lanes before dispatching anything.
            dead: Set[int] = set()
            for k in range(Lc):
                if executed[k] >= budgets[k]:
                    if strict_budget:
                        raise BudgetExceeded(
                            f"instruction budget exhausted: program {name!r} "
                            f"committed {executed[k]} instructions without "
                            f"halting (budget {budgets[k]}, pc {pcs[k]}) "
                            f"[lane {lane_ids[k]}]"
                        )
                    finalize(k, halted=False)
                    dead.add(k)
            if dead:
                compact(dead)
                continue

            if Lc > 1 and pcs.count(pcs[0]) != Lc:
                # Diverged: scalar-step the minimum-pc lane group.
                leader = min(pcs)
                sel = [k for k in range(Lc) if pcs[k] == leader]
                dead = masked_step(sel, leader)
                lane_instructions += len(sel) - len(dead)
                if dead:
                    compact(dead)
                continue

            # Lockstep segment: all lanes at one pc, vector handlers.
            pc = pcs[0]
            allowance = min(budgets[k] - executed[k] for k in range(Lc))
            steps = 0
            fault: Optional[SimulationError] = None
            ended = None  # None (allowance) | "halt" | "diverge" | "refault"
            while steps < allowance:
                if not 0 <= pc < n:
                    fault = SimulationError(f"pc {pc} out of range (program {name})")
                    break
                code = handlers[pc]()
                if code >= 0:
                    steps += 1
                    pc = code
                    continue
                if code == HALT_CODE:
                    steps += 1
                    ended = "halt"
                    break
                if code == DIVERGE:
                    steps += 1
                    ended = "diverge"
                    break
                ended = "refault"  # nothing committed at this pc yet
                break

            for k in range(Lc):
                executed[k] += steps
            lane_instructions += steps * Lc

            if fault is not None:
                for k in range(Lc):
                    pcs[k] = pc
                for k in range(Lc):
                    finalize(k, halted=False, error=fault)
                compact(set(range(Lc)))
            elif ended == "halt":
                for k in range(Lc):
                    pcs[k] = pc
                for k in range(Lc):
                    finalize(k, halted=True)
                compact(set(range(Lc)))
            elif ended == "diverge":
                pcs = list(div[0])  # type: ignore[arg-type]
                div[0] = None
            elif ended == "refault":
                for k in range(Lc):
                    pcs[k] = pc
                dead = masked_step(list(range(Lc)), pc)
                lane_instructions += Lc - len(dead)
                if dead:
                    compact(dead)
            else:
                # Allowance exhausted: sync pcs; the top of the loop retires
                # (or strict-raises for) whichever lanes are actually out.
                for k in range(Lc):
                    pcs[k] = pc
    finally:
        # Whatever interrupted the batch (strict budget, KeyboardInterrupt),
        # leave every un-retired lane's Memory/ArchState consistent with the
        # instructions it actually committed.
        for col in range(len(lane_ids)):
            gid = lane_ids[col]
            if results[gid] is None:
                writeback(col)
                st = states[gid]
                st.int_regs = ints[:, col].tolist()
                st.fp_regs = fps[:, col].tolist()
                st.pc = pcs[col]
        from ..core.metrics import get_metrics

        metrics = get_metrics()
        metrics.inc("sim.runs_batched")
        metrics.inc("sim.batch_lanes", total_lanes)
        metrics.inc("sim.lane_instructions", lane_instructions)

    return results  # type: ignore[return-value]
