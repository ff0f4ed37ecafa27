"""Dynamic trace records emitted by the functional simulator.

One :class:`TraceRecord` per *committed* instruction.  The fields cover
everything the profilers and the Figure 1 analysis need:

* ``old_dest`` — the value in the destination register *before* the write.
  Register-value prediction predicts ``result == old_dest``; this field is the
  heart of the whole reproduction.
* ``src_values`` — operand values actually read.
* ``addr`` — effective address for loads/stores.
* ``taken`` / ``next_pc`` — control-flow outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..isa.instructions import Instruction
from ..isa.registers import Reg


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One committed dynamic instruction.

    ``slots=True``: suite runs keep tens of thousands of these resident per
    cached trace, and the slotted layout roughly halves their footprint.
    """

    seq: int  # dynamic instruction number, 0-based
    pc: int
    inst: Instruction
    next_pc: int
    result: Optional[int] = None  # value written to dst (None if no dest)
    old_dest: Optional[int] = None  # prior value of dst (None if no dest)
    src_values: Tuple[int, ...] = ()
    addr: Optional[int] = None  # effective address for memory ops
    store_value: Optional[int] = None
    taken: Optional[bool] = None  # conditional branches only

    @property
    def op_name(self) -> str:
        return self.inst.op.name

    @property
    def dst(self) -> Optional[Reg]:
        return self.inst.writes

    @property
    def is_load(self) -> bool:
        return self.inst.is_load

    @property
    def register_value_reused(self) -> bool:
        """True when the instruction produced the value already in its
        destination register — i.e. a correct same-register RVP prediction."""
        return self.result is not None and self.result == self.old_dest


def relabel_trace(
    trace: Sequence[TraceRecord], insts: Mapping[int, Instruction]
) -> Tuple[TraceRecord, ...]:
    """``trace`` with each record at a pc in ``insts`` re-issued for that
    instruction; every other record object is shared, not copied.

    Exact only when each replacement is architecturally identical to the
    instruction it replaces (an RVP mark; see
    :meth:`~repro.isa.program.Program.rvp_marks_over`): the committed values,
    addresses and control flow are then the same, so only ``inst`` changes.
    """
    get = insts.get
    relabelled = []
    append = relabelled.append
    for record in trace:
        inst = get(record.pc)
        if inst is None:
            append(record)
        else:
            append(TraceRecord(
                record.seq, record.pc, inst, record.next_pc, record.result, record.old_dest,
                record.src_values, record.addr, record.store_value, record.taken,
            ))
    return tuple(relabelled)
