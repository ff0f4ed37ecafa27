"""SSA front end: programmatic IR, SSA construction, allocation and lowering.

The paper's compiler passes (static RVP marking, move insertion, stride
shadows, Section 7.3 reallocation) run on flat programs in
:mod:`repro.compiler`.  SSA is the substrate for everything that is easier
on it: builder-authored workloads, the abstract interpreter
(:mod:`repro.analysis.absint`), and the raise -> SSA -> lower round trip
that ``repro ir`` and the ``--frontend ir`` fuzz leg check.

The package splits into layers:

* :mod:`repro.ir.nodes` — the data model (values, phis, blocks, functions);
* :mod:`repro.ir.ssa` — raising flat programs, SSA construction and phi
  webs (the SSA view the flat web builder is cross-checked against);
* :mod:`repro.ir.liveness` — tick-grain value liveness;
* :mod:`repro.ir.regalloc` — coalescing, colouring (reusing the flat
  Chaitin–Briggs machinery) and spilling;
* :mod:`repro.ir.lower` — SSA destruction and emission back to the flat ISA;
* :mod:`repro.ir.builder` — the programmatic front end;
* :mod:`repro.ir.equiv` — trace-equivalence checking for round trips.
"""

from .builder import IRBuilder
from .equiv import EquivalenceReport, check_equivalence, roundtrip
from .liveness import ENTRY_TICK, ValueLiveness, value_liveness
from .lower import LoweringResult, lower_module, sequence_copies
from .nodes import (
    FP,
    INT,
    Block,
    IRError,
    IRFunction,
    IRInstr,
    IRModule,
    Phi,
    Value,
    VReg,
    verify_ssa,
)
from .regalloc import SPILL_BASE, SPILL_END, AllocationResult, SpillSlots, allocate
from .ssa import PhiWebs, arch_vreg, phi_webs, raise_program, to_ssa

__all__ = [
    "IRBuilder",
    "EquivalenceReport",
    "check_equivalence",
    "roundtrip",
    "ENTRY_TICK",
    "ValueLiveness",
    "value_liveness",
    "LoweringResult",
    "lower_module",
    "sequence_copies",
    "FP",
    "INT",
    "Block",
    "IRError",
    "IRFunction",
    "IRInstr",
    "IRModule",
    "Phi",
    "Value",
    "VReg",
    "verify_ssa",
    "SPILL_BASE",
    "SPILL_END",
    "AllocationResult",
    "SpillSlots",
    "allocate",
    "PhiWebs",
    "arch_vreg",
    "phi_webs",
    "raise_program",
    "to_ssa",
]
