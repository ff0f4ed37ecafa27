"""SSA construction tests: raising, phi placement, renaming, conventions."""

import pytest

from repro.isa import assemble
from repro.ir import IRError, Value, raise_program, verify_ssa
from repro.ir.ssa import phi_webs


def raised(text):
    return raise_program(assemble(text))


def phis_of(func):
    return [(block.label, phi) for block in func.blocks for phi in block.phis]


def test_straightline_code_has_no_phis():
    module = raised(
        """
        li r1, #1
        add r2, r1, #2
        st r2, 0(r31)
        halt
        """
    )
    func = module.functions[0]
    verify_ssa(func)
    assert not phis_of(func)


def test_join_gets_pruned_phi():
    module = raised(
        """
        li r1, #1
        beq r31, other
        li r2, #10
        br join
    other:
        li r2, #20
    join:
        add r3, r2, #1
        halt
        """
    )
    func = module.functions[0]
    verify_ssa(func)
    placed = phis_of(func)
    # Exactly the r2 join phi: r1/r3 have single defs, and phis are pruned
    # to live-in vregs only.
    join_phis = [phi for label, phi in placed if label == "join"]
    assert len(join_phis) == 1
    assert all(label == "join" for label, _ in placed)


def test_entry_path_at_join_uses_pinned_entry_value():
    """A register defined on only one join path merges with the *entry*
    value on the other path — the entry-path-at-joins bug class."""
    module = raised(
        """
        beq r1, skip
        li r2, #10
    skip:
        add r3, r2, #1
        halt
        """
    )
    func = module.functions[0]
    verify_ssa(func)
    join_phis = [phi for label, phi in phis_of(func) if label == "skip"]
    assert len(join_phis) == 1
    args = [v for v in join_phis[0].args.values() if isinstance(v, Value)]
    assert len(args) == 2
    # One path flows the entry value, which is pinned to r2.
    pins = {v.pin.name for v in args if v.pin is not None}
    assert "r2" in pins


def test_loop_carried_variable_gets_header_phi():
    module = raised(
        """
        li r1, #10
    loop:
        sub r1, r1, #1
        bne r1, loop
        halt
        """
    )
    func = module.functions[0]
    verify_ssa(func)
    loop_phis = [phi for label, phi in phis_of(func) if label == "loop"]
    assert len(loop_phis) == 1
    # The two phi args (init, back edge) plus the phi dst form one web.
    webs = phi_webs(func)
    vids = {loop_phis[0].dst.vid} | {v.vid for v in loop_phis[0].args.values() if isinstance(v, Value)}
    assert len({webs.web_of[vid] for vid in vids}) == 1


def test_loop_depth_metadata():
    module = raised(
        """
        li r1, #3
    outer:
        li r2, #2
    inner:
        sub r2, r2, #1
        bne r2, inner
        sub r1, r1, #1
        bne r1, outer
        halt
        """
    )
    func = module.functions[0]
    depth = {block.label: func.loop_depth(block.label) for block in func.blocks}
    assert depth["inner"] == 2
    assert depth["outer"] == 1
    assert depth[func.blocks[0].label] == 0


def test_each_procedure_raises_to_its_own_function():
    module = raised(
        """
    .proc main
    main:
        li r16, #1
        jsr r26, callee
        halt
    .proc callee
    callee:
        add r0, r16, #1
        ret r26
        """
    )
    assert [f.name for f in module.functions] == ["main", "callee"]
    for func in module.functions:
        verify_ssa(func)


def test_call_boundary_values_are_pinned():
    module = raised(
        """
    .proc main
    main:
        li r16, #1
        jsr r26, callee
        halt
    .proc callee
    callee:
        add r0, r16, #1
        ret r26
        """
    )
    main = module.function("main")
    call = next(
        instr for block in main.blocks for instr in block.instrs if instr.op.name == "jsr"
    )
    assert any(v.pin is not None and v.pin.name == "r16" for v in call.implicit_uses)


def test_verify_ssa_rejects_double_definition():
    module = raised("li r1, #1\nadd r2, r1, #1\nhalt")
    func = module.functions[0]
    # Manually break single definition by aliasing two instructions' dsts.
    defs = [i for b in func.blocks for i in b.instrs if isinstance(i.dst, Value)]
    assert len(defs) >= 2
    defs[1].dst = defs[0].dst
    with pytest.raises(IRError):
        verify_ssa(func)
