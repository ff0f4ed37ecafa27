"""Web (du-chain) construction tests."""

from repro.isa import R, assemble
from repro.compiler import build_webs, compute_liveness


def webs_of(text, proc_name=None):
    program = assemble(text)
    proc = program.procedure(proc_name) if proc_name else program.procedures[0]
    liveness = compute_liveness(program, proc)
    return program, build_webs(program, proc, liveness)


def test_disjoint_defs_make_separate_webs():
    program, analysis = webs_of(
        """
        li r1, #1
        add r2, r1, #1
        li r1, #2
        add r3, r1, #1
        halt
        """
    )
    w0 = analysis.web_of_def(0)
    w2 = analysis.web_of_def(2)
    assert w0 is not None and w2 is not None and w0.index != w2.index
    assert analysis.web_of_use(1, "src1").index == w0.index
    assert analysis.web_of_use(3, "src1").index == w2.index


def test_merging_defs_through_common_use():
    program, analysis = webs_of(
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
    # Both definitions of r2 reach the join use -> one web.
    assert analysis.web_of_def(2).index == analysis.web_of_def(4).index


def test_loop_web_includes_backedge_flow():
    program, analysis = webs_of(
        """
        li r1, #10
    loop:
        sub r1, r1, #1
        bne r1, loop
        halt
        """
    )
    # init def and loop def reach the same uses -> single web.
    assert analysis.web_of_def(0).index == analysis.web_of_def(1).index
    web = analysis.web_of_def(0)
    assert 1 in web.live_pcs and 2 in web.live_pcs


def test_fixed_webs_at_convention_boundaries():
    program, analysis = webs_of(
        """
    .proc main
    main:
        li r16, #1
        jsr r26, callee
        halt
    .proc callee
    callee:
        ret r26
        """,
        proc_name="main",
    )
    # The argument web is consumed by the call's implicit use -> fixed.
    arg_web = analysis.web_of_def(0)
    assert arg_web.fixed


def test_plain_temp_web_not_fixed():
    program, analysis = webs_of(
        """
        li r1, #1
        add r2, r1, #1
        st r2, 0(r31)
        halt
        """
    )
    assert not analysis.web_of_def(0).fixed
    assert not analysis.web_of_def(1).fixed


def test_callee_saved_reaching_exit_is_fixed():
    program, analysis = webs_of(
        """
        li r9, #1
        st r9, 0(r31)
        halt
        """
    )
    # r9 (non-volatile) reaches the implicit exit use -> fixed.
    assert analysis.web_of_def(0).fixed


MULTI_PROC_JOIN = """
.proc main
main:
    li r1, #1
    beq r31, m_other
    li r2, #10
    br m_join
m_other:
    li r2, #20
m_join:
    add r3, r2, #1
    jsr r26, helper
    halt
.proc helper
helper:
    li r1, #7
    beq r31, h_other
    li r2, #30
    br h_join
h_other:
    li r2, #40
h_join:
    add r3, r2, #1
    ret r26
"""


def test_join_webs_in_multi_procedure_program():
    """Join-path merging stays per procedure even when both procedures use
    the same register names (regression guard for the entry-path-at-joins
    bug class: a second procedure's defs must never leak into the first's
    reaching-definition sets)."""
    program = assemble(MULTI_PROC_JOIN)
    by_proc = {}
    for proc in program.procedures:
        liveness = compute_liveness(program, proc)
        by_proc[proc.name] = build_webs(program, proc, liveness)

    main = by_proc["main"]
    helper = by_proc["helper"]
    # Within each procedure: both defs of r2 reach the join use -> one web.
    assert main.web_of_def(2).index == main.web_of_def(4).index
    h_start = program.procedure("helper").start
    assert helper.web_of_def(h_start + 2).index == helper.web_of_def(h_start + 4).index
    # Across procedures: same register name, disjoint webs — no shared pcs.
    main_pcs = set(main.web_of_def(2).live_pcs)
    helper_pcs = set(helper.web_of_def(h_start + 2).live_pcs)
    assert not (main_pcs & helper_pcs)


def test_multi_procedure_join_webs_match_ssa_phi_webs():
    """The SSA mid-end's phi-congruence classes must agree with the flat
    join-path webs on a two-procedure program sharing register names: both
    r2 defs feed the join phi, so they land in one phi web per function —
    and the two functions' webs are built independently."""
    from repro.ir import raise_program
    from repro.ir.nodes import Value
    from repro.ir.ssa import phi_webs

    program = assemble(MULTI_PROC_JOIN)
    module = raise_program(program)
    for proc in program.procedures:
        func = module.function(proc.name)
        webs = phi_webs(func)
        r2_defs = {
            pc
            for pc in range(proc.start, proc.end)
            if program[pc].writes is not None and program[pc].writes.name == "r2"
        }
        assert len(r2_defs) == 2
        vids = [
            instr.dst.vid
            for block in func.blocks
            for instr in block.instrs
            if instr.origin_pc in r2_defs and isinstance(instr.dst, Value)
        ]
        assert len(vids) == 2
        assert webs.web_of[vids[0]] == webs.web_of[vids[1]]


def test_live_pcs_cover_definition_points():
    program, analysis = webs_of("li r1, #1\nadd r2, r1, #1\nst r2, 0(r31)\nhalt")
    web = analysis.web_of_def(0)
    assert 0 in web.live_pcs and 1 in web.live_pcs
