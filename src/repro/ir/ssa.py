"""Raising flat programs to IR and SSA construction.

:func:`raise_program` transliterates a :class:`~repro.isa.program.Program`
into a pre-SSA :class:`~repro.ir.nodes.IRModule` (one function per
procedure, one block per flat basic block, operands as architectural
:class:`~repro.ir.nodes.VReg` locations), then :func:`to_ssa` rewrites each
function into SSA form:

1. **liveness** over vregs at block granularity, an instance of the shared
   fixpoint core (:func:`repro.analysis.dataflow.solve_nodes`) — the same
   engine the flat analyses run on;
2. **pruned phi placement** at iterated dominance frontiers (dominators via
   networkx, frontiers via Cooper–Harvey–Kennedy), inserting a phi for a
   vreg only where it is live-in;
3. **renaming** along the dominator tree (Cytron et al.), materialising the
   calling convention exactly like the flat web builder does: every vreg
   live into the entry receives a pinned *entry value* (the PR 3
   entry-path-at-joins fix, which here falls out of liveness), calls consume
   pinned argument values and define pinned clobber values, and exits
   consume pinned non-volatile values.

Pins are hard register constraints (the SSA analogue of fixed webs); a
value reaching two different pinned uses is a convention violation and
raises :class:`~repro.ir.nodes.IRError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.dataflow import BACKWARD, UNION, solve_nodes
from ..analysis.effects import CALL_USES, EXIT_USES, VOLATILES
from ..isa.opcodes import OpKind
from ..isa.program import Procedure, Program
from ..isa.registers import INT, Reg
from .liveness import value_liveness
from .nodes import Block, IRError, IRFunction, IRInstr, IRModule, Phi, Value, VReg, verify_ssa


def arch_vreg(reg: Reg) -> VReg:
    """The canonical vreg for one architectural register."""
    return VReg(name=reg.name, kind=reg.kind, reg=reg)


# ----------------------------------------------------------------------
# Raising: Program -> pre-SSA IRModule
# ----------------------------------------------------------------------
def _block_label(program: Program, proc: Procedure, start: int) -> str:
    if start == proc.start:
        if program.labels.get(proc.name) == start:
            return proc.name
    named = sorted(label for label, pc in program.labels.items() if pc == start)
    if named:
        return named[0]
    return f"{proc.name}__b{start}"


def raise_program(program: Program, *, ssa: bool = True) -> IRModule:
    """Transliterate ``program`` into an IR module (SSA by default)."""
    module = IRModule(name=program.name)
    callee_of: Dict[int, str] = {p.start: p.name for p in program.procedures}
    for proc in program.procedures:
        func = module.add_function(proc.name)
        blocks = program.basic_blocks(proc)
        label_of = {b.start: _block_label(program, proc, b.start) for b in blocks}
        for fb in blocks:
            block = func.add_block(label_of[fb.start])
            for pc in fb.pcs():
                inst = program[pc]

                def operand(reg: Optional[Reg]):
                    if reg is None:
                        return None
                    if reg.is_zero:
                        return reg  # literal zero, passes through untouched
                    return arch_vreg(reg)

                target: Optional[str] = None
                if inst.op.kind in (OpKind.BRANCH, OpKind.JUMP):
                    if inst.target_pc is None or inst.target_pc not in label_of:
                        raise IRError(f"{proc.name}: pc {pc} branches outside its procedure")
                    target = label_of[inst.target_pc]
                elif inst.op.kind is OpKind.CALL:
                    if inst.target_pc not in callee_of:
                        raise IRError(f"{proc.name}: pc {pc} calls mid-procedure target {inst.target!r}")
                    target = callee_of[inst.target_pc]
                block.instrs.append(
                    IRInstr(
                        inst.op.name,
                        dst=operand(inst.dst),
                        src1=operand(inst.src1),
                        src2=operand(inst.src2),
                        imm=inst.imm,
                        target=target,
                        origin_pc=pc,
                    )
                )
    if ssa:
        for func in module.functions:
            to_ssa(func)
    return module


# ----------------------------------------------------------------------
# Per-instruction vreg effects (pre-SSA)
# ----------------------------------------------------------------------
def _instr_effects(instr: IRInstr) -> Tuple[List[VReg], List[VReg]]:
    """(defs, uses) over vregs, including calling-convention implicit ones."""
    defs: List[VReg] = []
    uses: List[VReg] = [op for op in instr.used if isinstance(op, VReg)]
    if isinstance(instr.defined, VReg):
        defs.append(instr.defined)
    if instr.is_call:
        uses.extend(arch_vreg(r) for r in sorted(CALL_USES))
        explicit = instr.defined.reg if isinstance(instr.defined, VReg) else None
        defs.extend(arch_vreg(r) for r in VOLATILES if r != explicit)
    elif instr.is_exit:
        uses.extend(arch_vreg(r) for r in sorted(EXIT_USES))
    return defs, uses


def _vreg_liveness(func: IRFunction) -> Dict[str, Set[VReg]]:
    """Block-level live-in sets of vregs, via the shared fixpoint core."""
    gen: Dict[str, Set[VReg]] = {}
    kill: Dict[str, Set[VReg]] = {}
    for block in func.blocks:
        g: Set[VReg] = set()
        k: Set[VReg] = set()
        for instr in reversed(block.instrs):
            defs, uses = _instr_effects(instr)
            g = set(uses) | (g - set(defs))
            k = (k | set(defs)) - set(uses)
        gen[block.label], kill[block.label] = g, k
    succs = {b.label: func.successors(b) for b in func.blocks}
    solution = solve_nodes(
        [b.label for b in func.blocks],
        lambda label: succs[label],
        gen,
        kill,
        direction=BACKWARD,
        meet=UNION,
        boundary_nodes={b.label for b in func.blocks if not succs[b.label]},
    )
    # Backward orientation: the transfer output is the live-in at block entry.
    return {label: set(facts) for label, facts in solution.output.items()}


# ----------------------------------------------------------------------
# SSA construction
# ----------------------------------------------------------------------
def to_ssa(func: IRFunction) -> IRFunction:
    """Rewrite ``func`` from vreg operands into SSA form, in place."""
    entry_label = func.entry.label
    idom = func.idom()
    unreachable = [b.label for b in func.blocks if b.label not in idom]
    if unreachable:
        raise IRError(f"{func.name}: unreachable blocks {unreachable} (run dead-block removal first)")

    live_in = _vreg_liveness(func)
    needs_entry = {v for v in live_in[entry_label]}

    # --- pruned phi placement at iterated dominance frontiers -----------
    frontiers = func.dominance_frontiers()
    def_blocks: Dict[VReg, Set[str]] = {}
    for block in func.blocks:
        for instr in block.instrs:
            for vreg in _instr_effects(instr)[0]:
                def_blocks.setdefault(vreg, set()).add(block.label)
    for vreg in needs_entry:
        def_blocks.setdefault(vreg, set()).add(entry_label)

    phi_vreg: Dict[int, VReg] = {}  # phi dst vid -> the vreg it merges
    for vreg in sorted(def_blocks, key=lambda v: v.name):
        placed: Set[str] = set()
        worklist = list(def_blocks[vreg])
        while worklist:
            label = worklist.pop()
            for df in sorted(frontiers[label]):
                if df in placed or vreg not in live_in[df]:
                    continue
                placed.add(df)
                dst = func.new_value(vreg.kind, vreg=vreg)
                func.block(df).phis.append(Phi(dst))
                phi_vreg[dst.vid] = vreg
                if df not in def_blocks[vreg]:
                    worklist.append(df)

    # --- renaming along the dominator tree ------------------------------
    children: Dict[str, List[str]] = {b.label: [] for b in func.blocks}
    layout_index = {b.label: i for i, b in enumerate(func.blocks)}
    for label, parent in idom.items():
        if label != entry_label:
            children[parent].append(label)
    for kids in children.values():
        kids.sort(key=lambda lbl: layout_index[lbl])

    stacks: Dict[VReg, List[Value]] = {}

    def top(vreg: VReg, where: str) -> Value:
        stack = stacks.get(vreg)
        if not stack:
            raise IRError(f"{func.name}/{where}: use of {vreg!r} with no reaching definition")
        return stack[-1]

    def pin(value: Value, reg: Reg, where: str) -> None:
        if value.pin is not None and value.pin != reg:
            raise IRError(
                f"{func.name}/{where}: value {value!r} pinned to both {value.pin} and {reg} by the calling convention"
            )
        value.pin = reg

    for vreg in sorted(needs_entry, key=lambda v: v.name):
        if vreg.reg is None:
            raise IRError(f"{func.name}: temporary {vreg!r} may be used before it is initialised")
        value = func.new_value(vreg.kind, vreg=vreg, pin=vreg.reg)
        stacks.setdefault(vreg, []).append(value)
        func.entry_values.append(value)

    def rename_block(label: str) -> List[VReg]:
        """Rename one block; returns the vregs pushed (popped by the walker)."""
        block = func.block(label)
        pushed: List[VReg] = []

        def push(vreg: VReg, value: Value) -> None:
            stacks.setdefault(vreg, []).append(value)
            pushed.append(vreg)

        for phi in block.phis:
            push(phi_vreg[phi.dst.vid], phi.dst)
        for instr in block.instrs:
            where = f"{label}"
            if isinstance(instr.src1, VReg):
                instr.src1 = top(instr.src1, where)
            if isinstance(instr.src2, VReg):
                instr.src2 = top(instr.src2, where)
            if instr.is_call:
                used = []
                for reg in sorted(CALL_USES):
                    value = top(arch_vreg(reg), where)
                    pin(value, reg, where)
                    used.append(value)
                instr.implicit_uses = tuple(used)
            elif instr.is_exit:
                used = []
                for reg in sorted(EXIT_USES):
                    value = top(arch_vreg(reg), where)
                    pin(value, reg, where)
                    used.append(value)
                instr.implicit_uses = tuple(used)
            if isinstance(instr.defined, VReg):
                vreg = instr.defined
                value = func.new_value(vreg.kind, vreg=vreg)
                if instr.is_call:
                    # The link value crosses into the callee's ``ret``: the
                    # convention requires it to stay in its register.
                    pin(value, vreg.reg, where)
                instr.dst = value
                push(vreg, value)
            if instr.is_call:
                explicit = instr.defined.vreg.reg if isinstance(instr.defined, Value) else None
                clobbers = []
                for reg in VOLATILES:
                    if reg == explicit:
                        continue
                    vreg = arch_vreg(reg)
                    value = func.new_value(vreg.kind, vreg=vreg, pin=reg)
                    push(vreg, value)
                    clobbers.append(value)
                instr.implicit_defs = tuple(clobbers)
        for succ in func.successors(block):
            for phi in func.block(succ).phis:
                vreg = phi_vreg[phi.dst.vid]
                phi.args[label] = top(vreg, f"{label}->{succ}")
        return pushed

    # Explicit-stack preorder walk of the dominator tree (recursion-free:
    # straight-line code produces dominator chains as deep as the function).
    walk: List[Tuple[str, Optional[List[VReg]]]] = [(entry_label, None)]
    while walk:
        label, pushed = walk.pop()
        if pushed is not None:  # unwind marker: leave this block's scope
            for vreg in reversed(pushed):
                stacks[vreg].pop()
            continue
        walk.append((label, rename_block(label)))
        for child in reversed(children[label]):
            walk.append((child, None))
    verify_ssa(func)
    return func


# ----------------------------------------------------------------------
# Phi webs: the SSA view of the flat web builder's webs
# ----------------------------------------------------------------------
@dataclass
class PhiWebs:
    """Phi-congruence classes — the SSA analogue of the flat pass's webs.

    The allocator's *coalesce classes* additionally merge tick-disjoint
    values of the same architectural register (so an unconstrained
    allocation reproduces the input); that is too coarse to compare with
    :mod:`repro.compiler.webs`, where two independent webs of ``r5`` stay
    distinct definitions.  Phi webs keep them apart.
    """

    web_of: Dict[int, int]  # vid -> web leader vid
    ticks: Dict[int, Set[int]]  # leader -> union of member liveness ticks
    pin: Dict[int, Optional[object]]  # leader -> calling-convention pin


def phi_webs(func: IRFunction) -> PhiWebs:
    """Union every phi with its arguments; one web per resulting class."""
    liveness = value_liveness(func)
    root = {vid: vid for vid in liveness.values}

    def find(vid: int) -> int:
        while root[vid] != vid:
            root[vid] = root[root[vid]]
            vid = root[vid]
        return vid

    for block in func.blocks:
        for phi in block.phis:
            for arg in phi.args.values():
                a, b = find(phi.dst.vid), find(arg.vid)
                if a != b:
                    root[b] = a

    webs = PhiWebs(web_of={}, ticks={}, pin={})
    for vid, value in liveness.values.items():
        leader = find(vid)
        webs.web_of[vid] = leader
        webs.ticks.setdefault(leader, set()).update(liveness.ticks.get(vid, ()))
        webs.pin[leader] = webs.pin.get(leader) or value.pin
    return webs
