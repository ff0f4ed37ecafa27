"""Correct-path dynamic stream preparation for the pipeline simulator.

The pipeline is execution-driven off the functional simulator's committed
trace.  Because register renaming always routes a consumer to the correct
prior writer (the paper's "no stale values" property, Section 1), every
*architectural* quantity the pipeline needs is a pure function of the dynamic
instruction sequence and can be computed in one pass.  A prepared
:class:`Stream` splits those facts by what they depend on:

* the **core** (:class:`StreamCore`) depends on the trace alone: per-operand
  producers (the last older writer of each register), the destination's
  previous writer, the last store to a load's address, and the pre-decoded
  per-pc timing facts.  One core serves every predictor run on its trace.
* the **overlay** depends on the predictor's ``source()`` routing as well: a
  list aligned to the core holding ``None`` for non-candidates and an
  :data:`OverlaySlot` for candidates — where a would-be prediction's value
  comes from and whether it would be correct, for each source kind:
  same-register, correlated-register (dead/live hint) or previous-instance
  (the idealised last-value-reallocation model).

Only *timing* and predictor state (confidence counters, LVP table contents)
remain dynamic; the cycle engine handles those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import FuClass, OpKind
from ..profiling.deadness import reg_id
from ..sim.functional import BudgetExceeded
from ..sim.trace import TraceRecord
from ..vp.base import PredictionSource, SourceKind, ValuePredictor


@dataclass(slots=True)
class CoreEntry:
    """One correct-path dynamic instruction with precomputed dependences.

    Like :class:`~repro.sim.trace.TraceRecord`, this is a per-dynamic-
    instruction record held for a whole pipeline run — slotted for footprint.
    The flat booleans are pre-decoded per-pc timing facts: the fast timing
    tier's hot path reads them instead of chasing ``record.inst.op.*``.
    """

    seq: int
    record: TraceRecord
    fu: str  # 'int' | 'fp' | 'ldst' | 'none'
    iq: str  # 'int' | 'fp'
    base_latency: int
    src_deps: Tuple[Optional[int], ...]
    store_dep: Optional[int]
    dst_old_writer: Optional[int]
    is_load: bool
    is_store: bool
    is_halt: bool
    is_control: bool
    #: conditional branch (OpKind.BRANCH): fetch reads the recorded outcome
    cond_branch: bool
    #: flattened producer seqs (non-None src_deps + store_dep): exactly the
    #: dependence list speculation-free rename produces, pre-built so the
    #: fast tier can alias it without a per-instruction list build
    dep_seqs: Tuple[int, ...]

    @property
    def pc(self) -> int:
        return self.record.pc

    @property
    def inst(self):
        return self.record.inst


#: A candidate's overlay slot: ``(source, value_dep, prev_instance,
#: pred_correct, needs_port)`` — the prediction source; the producer of the
#: prediction value (DST/REG sources); the previous dynamic instance of the
#: pc (ideal-LVR STORED sources); whether a DST/REG/ideal-STORED prediction
#: would be correct; and whether a prediction would consume an extra register
#: read port (register-sourced prediction of a non-load; see Section 6).
OverlaySlot = Tuple[PredictionSource, Optional[int], Optional[int], bool, bool]


class StreamCore:
    """The predictor-free part of a prepared stream, shared by every
    predictor run on one trace.

    ``insts`` maps each pc to its instruction in first-occurrence trace
    order, so an overlay pass can query ``source()`` once per pc in exactly
    the order a single forward pass would.
    """

    __slots__ = ("entries", "insts")

    def __init__(self, entries: List[CoreEntry], insts: Dict[int, Instruction]) -> None:
        self.entries = entries
        self.insts = insts

    def __len__(self) -> int:
        return len(self.entries)


class Stream:
    """One predictor's prepared stream: a shared core plus its overlay.

    ``overlay[i]`` belongs to ``core.entries[i]`` (whose ``seq`` is ``i``);
    ``candidates`` counts its non-``None`` slots.
    """

    __slots__ = ("core", "overlay", "candidates")

    def __init__(self, core: StreamCore, overlay: List[Optional[OverlaySlot]], candidates: int) -> None:
        self.core = core
        self.overlay = overlay
        self.candidates = candidates

    def __len__(self) -> int:
        return len(self.core.entries)


def _fu_of(inst: Instruction) -> Tuple[str, str]:
    op = inst.op
    if op.is_mem:
        return "ldst", "fp" if op.fp_dest and op.is_load else "int"
    if op.fu is FuClass.FP:
        return "fp", "fp"
    return "int", "int"


def _static_facts(inst: Instruction) -> Tuple:
    """``(fu, iq, latency, read_ids, is_load, is_store, dst_id, is_halt,
    is_control, cond_branch)``: everything a core entry takes from the
    static instruction."""
    fu, iq = _fu_of(inst)
    read_ids = tuple(None if src.is_zero else reg_id(src) for src in inst.reads)
    dst = inst.writes
    return (
        fu, iq, inst.op.latency, read_ids, inst.op.is_load, inst.op.is_store,
        reg_id(dst) if dst is not None else None,
        inst.is_halt, inst.is_control, inst.op.kind is OpKind.BRANCH,
    )


def prepare_stream(
    trace: Optional[Iterable[TraceRecord]],
    predictor: ValuePredictor,
    *,
    core: Optional[StreamCore] = None,
    max_entries: Optional[int] = None,
) -> Stream:
    """Precompute the pipeline stream for one trace + predictor combination.

    Builds the trace's :class:`StreamCore` — unless ``core`` supplies one
    already built from the same trace, in which case ``trace`` is unused —
    and then the predictor's overlay over it.

    ``trace`` may be any iterable of records — a cached tuple or a live
    :meth:`~repro.sim.functional.FunctionalSimulator.iter_run` generator; it
    is consumed in a single forward pass.

    ``max_entries`` is the campaign layer's instruction-budget guard for the
    streaming case: when the (possibly unbounded) source yields more records
    than the budget, :class:`~repro.sim.functional.BudgetExceeded` is raised
    instead of materializing an arbitrarily large stream.
    """
    if core is None:
        core = build_core(trace, max_entries)
    elif max_entries is not None and len(core) > max_entries:
        raise BudgetExceeded(f"stream budget exhausted: core holds more than {max_entries} records")
    overlay, candidates = _build_overlay(core, predictor)
    return Stream(core, overlay, candidates)


def build_core(trace: Iterable[TraceRecord], max_entries: Optional[int] = None) -> StreamCore:
    """The predictor-free pass: dependences and pre-decoded timing facts.

    Everything that is a pure function of the *static* instruction — FU/IQ
    classification, operand register ids, the destination id, the opcode
    latency — is computed once per pc and memoized, so the per-record loop
    touches only the dynamic mirrors.
    """
    entries: List[CoreEntry] = []
    append = entries.append
    insts: Dict[int, Instruction] = {}
    last_writer: Dict[int, int] = {}
    last_store: Dict[int, int] = {}
    lw_get = last_writer.get
    #: pc -> the static facts of its instruction (:func:`_static_facts`)
    static_cache: Dict[int, Tuple] = {}

    for record in trace:
        if max_entries is not None and len(entries) >= max_entries:
            raise BudgetExceeded(
                f"stream budget exhausted: trace yielded more than {max_entries} "
                f"records (next pc {record.pc})"
            )
        seq = record.seq
        pc = record.pc
        static = static_cache.get(pc)
        if static is None:
            inst = insts[pc] = record.inst
            static = static_cache[pc] = _static_facts(inst)
        fu, iq, latency, read_ids, is_load, is_store, dst_id, is_halt, is_control, cond_branch = static

        deps = tuple(lw_get(rid) if rid is not None else None for rid in read_ids)
        addr = record.addr
        store_dep = last_store.get(addr) if is_load and addr is not None else None
        if None in deps:
            dep_seqs = tuple(d for d in deps if d is not None)
        else:
            dep_seqs = deps  # share the tuple: no None to drop
        if store_dep is not None:
            dep_seqs += (store_dep,)

        append(
            CoreEntry(
                seq, record, fu, iq, latency, deps, store_dep,
                lw_get(dst_id) if dst_id is not None else None,
                is_load, is_store, is_halt, is_control, cond_branch, dep_seqs,
            )
        )

        # Advance the mirrors.
        if dst_id is not None and record.result is not None:
            last_writer[dst_id] = seq
        if is_store and addr is not None:
            last_store[addr] = seq
    return StreamCore(entries, insts)


def relabel_core(core: StreamCore, trace: Sequence[TraceRecord]) -> StreamCore:
    """The core of ``trace``, derived from ``core`` instead of rebuilt.

    ``trace`` must be a relabelling of the trace ``core`` was built from
    (:func:`~repro.sim.trace.relabel_trace`): the same records, some of them
    re-issued for an RVP-marked twin of their instruction.  Dependences are
    a function of the dynamic register and address sequence, which a mark
    does not change, so every entry whose record object the trace shares is
    reused as is, and every other record gets a copy of its entry.  Raises
    :class:`ValueError` when the trace is not such a relabelling: a length
    or pc mismatch, or a new instruction whose timing facts differ.
    """
    entries = core.entries
    if len(trace) != len(entries):
        raise ValueError(f"relabelled trace holds {len(trace)} records, core {len(entries)}")
    relabelled: List[CoreEntry] = []
    append = relabelled.append
    insts = dict(core.insts)
    for entry, record in zip(entries, trace):
        if record is entry.record:
            append(entry)
            continue
        pc = record.pc
        if pc != entry.pc:
            raise ValueError(f"record {record.seq} is at pc {pc}, its core entry at pc {entry.pc}")
        inst = record.inst
        if insts[pc] is not inst:
            if _static_facts(inst) != _static_facts(core.insts[pc]):
                raise ValueError(f"pc {pc}: {inst.render()!r} has other timing facts than the core's")
            insts[pc] = inst
        append(
            CoreEntry(
                entry.seq, record, entry.fu, entry.iq, entry.base_latency, entry.src_deps,
                entry.store_dep, entry.dst_old_writer, entry.is_load, entry.is_store,
                entry.is_halt, entry.is_control, entry.cond_branch, entry.dep_seqs,
            )
        )
    return StreamCore(relabelled, insts)


def _build_overlay(
    core: StreamCore, predictor: ValuePredictor
) -> Tuple[List[Optional[OverlaySlot]], int]:
    """The predictor pass over a core: ``(overlay, candidate count)``.

    ``source()`` is queried once per pc, in first-occurrence trace order.
    The pass replays only the mirrors the predictor's sources read: the
    register file (last writer and value per register) for REG sources, and
    each STORED pc's previous result.  DST sources read the core's
    ``dst_old_writer`` and the record's ``old_dest``.
    """
    entries = core.entries
    overlay: List[Optional[OverlaySlot]] = [None] * len(entries)
    table_backed = getattr(predictor, "table_backed", False)
    #: pc -> (source, kind, source register id, needs_port, no-result slot)
    plan: Dict[int, Tuple] = {}
    replay_regs = False
    for pc, inst in core.insts.items():
        source = predictor.source(inst)
        if source is None:
            continue
        kind = source.kind
        needs_port = not inst.op.is_load and not table_backed
        source_reg_id = None
        if kind is SourceKind.REG:
            source_reg_id = reg_id(source.reg)
            replay_regs = True
        plan[pc] = (source, kind, source_reg_id, needs_port, (source, None, None, False, needs_port))
    if not plan:
        return overlay, 0

    dst_of: Dict[int, int] = {}
    if replay_regs:
        dst_of = {
            pc: reg_id(inst.writes) for pc, inst in core.insts.items() if inst.writes is not None
        }
    dst_get = dst_of.get
    last_writer: Dict[int, int] = {}
    reg_values: List[int] = [0] * 64
    last_result_of_pc: Dict[int, Tuple[int, int]] = {}  # STORED pcs: pc -> (seq, result)
    plan_get = plan.get
    DST, REG = SourceKind.DST, SourceKind.REG
    candidates = 0
    for index, entry in enumerate(entries):
        record = entry.record
        result = record.result
        step = plan_get(record.pc)
        if step is not None:
            candidates += 1
            source, kind, source_reg_id, needs_port, no_result = step
            if result is None:
                overlay[index] = no_result
            elif kind is DST:
                overlay[index] = (
                    source, entry.dst_old_writer, None, result == record.old_dest, needs_port
                )
            elif kind is REG:
                overlay[index] = (
                    source, last_writer.get(source_reg_id), None,
                    result == reg_values[source_reg_id], needs_port,
                )
            else:  # STORED
                pc = record.pc
                prev = last_result_of_pc.get(pc)
                if prev is None:
                    overlay[index] = no_result
                else:
                    overlay[index] = (source, None, prev[0], result == prev[1], needs_port)
                last_result_of_pc[pc] = (entry.seq, result)
        if replay_regs and result is not None:
            dst_id = dst_get(record.pc)
            if dst_id is not None:
                last_writer[dst_id] = entry.seq
                reg_values[dst_id] = result
    return overlay, candidates
