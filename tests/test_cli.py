"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_command(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("go", "m88ksim", "turb3d"):
        assert name in out
    assert "drvp_all_dead_lv" in out and "no_predict" in out


def test_run_command(capsys):
    code, out = run_cli(
        capsys, "run", "--workload", "go", "--config", "no_predict", "drvp_all", "--max-insts", "6000"
    )
    assert code == 0
    assert "go" in out and "drvp_all" in out
    assert "speedups" in out  # no_predict present -> speedup table


def test_profile_command(capsys):
    code, out = run_cli(capsys, "profile", "--workload", "perl", "--max-insts", "8000")
    assert code == 0
    assert "load reuse" in out and "lists" in out


def test_realloc_command(capsys):
    code, out = run_cli(capsys, "realloc", "--workload", "mgrid", "--max-insts", "8000")
    assert code == 0
    assert "applied" in out


def test_recovery_and_wide_flags(capsys):
    code, out = run_cli(
        capsys,
        "run", "--workload", "go", "--config", "no_predict",
        "--recovery", "refetch", "--wide", "--max-insts", "5000",
    )
    assert code == 0 and "refetch" in out


def test_metrics_command_emits_json(capsys):
    import json

    code, out = run_cli(
        capsys, "metrics", "--workload", "li", "--config", "no_predict", "lvp_all", "--max-insts", "4000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["workloads"] == ["li"]
    assert {cell["config"] for cell in payload["cells"]} == {"no_predict", "lvp_all"}
    assert payload["metrics"]["counters"]["sim.runs"] >= 1
    assert "sim.wall" in payload["metrics"]["timers"]


def test_run_profile_flag_appends_metrics_json(capsys):
    code, out = run_cli(
        capsys, "run", "--workload", "li", "--config", "no_predict", "--max-insts", "4000", "--profile"
    )
    assert code == 0
    assert '"counters"' in out and '"timers"' in out


def test_suite_command_with_jobs(capsys):
    code, out = run_cli(
        capsys, "suite", "--config", "no_predict", "lvp_all", "--max-insts", "1500", "--jobs", "2"
    )
    assert code == 0
    assert "cells done" in out
    assert "suite speedups" in out
    assert "FAILED" not in out


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lint_clean_workload_exits_zero(capsys):
    code, out = run_cli(capsys, "lint", "li", "--max-insts", "4000")
    assert code == 0
    assert "li/base: ok" in out


def test_lint_all_variants_of_one_workload(capsys):
    code, out = run_cli(
        capsys, "lint", "mgrid", "--max-insts", "4000",
        "--variant", "base", "srvp_same", "realloc",
    )
    assert code == 0
    assert "srvp_same" in out and "realloc" in out


def test_lint_bad_asm_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.s"
    bad.write_text("add r2, r1, #1\nhalt\n")  # r1 is garbage at entry
    code, out = run_cli(capsys, "lint", "--asm", str(bad))
    assert code == 1
    assert "RVP003" in out


def test_lint_clean_asm_exits_zero(capsys, tmp_path):
    good = tmp_path / "good.s"
    good.write_text("li r1, #1\nadd r2, r1, #1\nhalt\n")
    code, out = run_cli(capsys, "lint", "--asm", str(good))
    assert code == 0


def test_lint_strict_promotes_warnings_to_exit_one(capsys, tmp_path):
    warn = tmp_path / "warn.s"
    warn.write_text("br end\nli r1, #1\nend:\nhalt\n")  # dead code: RVP004 warning
    code, _ = run_cli(capsys, "lint", "--asm", str(warn))
    assert code == 0
    code, out = run_cli(capsys, "lint", "--asm", str(warn), "--strict")
    assert code == 1
    assert "RVP004" in out


def test_lint_disable_silences_a_rule(capsys, tmp_path):
    bad = tmp_path / "bad.s"
    bad.write_text("add r2, r1, #1\nhalt\n")
    code, _ = run_cli(capsys, "lint", "--asm", str(bad), "--disable", "RVP003")
    assert code == 0


def test_lint_unknown_workload_exits_two(capsys):
    code, out, err = run_cli_err(capsys, "lint", "gcc")
    assert code == 2
    assert "gcc" in err


def test_lint_nothing_to_lint_exits_two(capsys):
    code, out, err = run_cli_err(capsys, "lint")
    assert code == 2


def test_lint_missing_asm_file_exits_two(capsys, tmp_path):
    code, out, err = run_cli_err(capsys, "lint", "--asm", str(tmp_path / "nope.s"))
    assert code == 2


def test_lint_json_output(capsys):
    import json

    code, out = run_cli(capsys, "lint", "li", "--max-insts", "4000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    (target,) = payload["targets"]
    assert target["summary"]["error"] == 0
    assert isinstance(target["diagnostics"], list)


def test_lint_rules_catalog(capsys):
    code, out = run_cli(capsys, "lint", "--rules")
    assert code == 0
    for rule_id in ("RVP001", "RVP005", "RVP009"):
        assert rule_id in out


def test_lint_reuse_report(capsys):
    import json

    code, out = run_cli(
        capsys, "lint", "li", "--max-insts", "4000", "--reuse-report", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    (entry,) = payload["reuse_report"]
    assert entry["program"] == "li"
    assert set(entry["static_counts"]) == {"same", "dead", "last_value", "none"}


def test_lint_max_gap_exit_three(capsys):
    import json

    # A zero tolerance always trips on real workloads: static weighted
    # fractions never match the profiled Figure-1 fractions exactly.
    code, out = run_cli(
        capsys, "lint", "li", "--max-insts", "4000",
        "--reuse-report", "--max-gap", "0.0", "--json",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["ok"] is True  # no lint errors: the gap alone caused exit 3
    assert any("gap" in line for line in payload["max_gap_failures"])


def test_lint_max_gap_within_tolerance(capsys):
    code, _ = run_cli(
        capsys, "lint", "li", "--max-insts", "4000",
        "--reuse-report", "--max-gap", "1.0",
    )
    assert code == 0


def test_lint_max_gap_without_reuse_report_is_an_error(capsys):
    # Without --reuse-report there is no gap to gate; the flag used to be
    # silently ignored (exit 0).
    code, out, err = run_cli_err(capsys, "lint", "li", "--max-gap", "0.0")
    assert code == 2
    assert "--max-gap requires --reuse-report" in err
    assert out == ""


def test_analyze_workload(capsys):
    code, out = run_cli(capsys, "analyze", "li", "--max-insts", "4000")
    assert code == 0
    assert "li" in out


def test_analyze_json_payload(capsys):
    import json

    code, out = run_cli(capsys, "analyze", "li", "--max-insts", "4000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["failures"] == []
    (target,) = payload["targets"]
    assert target["target"] == "li"
    for key in (
        "induction", "unreachable_pcs", "decided_branches",
        "heuristic_counts", "symbolic_counts",
        "candidate_overlap", "heuristic_candidate_overlap", "by_loop_depth",
    ):
        assert key in target
    # Acceptance invariant the command enforces under --strict: symbolic
    # candidates overlap the profiled lists at least as well as heuristic.
    for cls in ("same", "dead"):
        assert (
            target["candidate_overlap"][cls]["both"]
            >= target["heuristic_candidate_overlap"][cls]["both"]
        )


def test_analyze_generated_programs(capsys):
    import json

    code, out = run_cli(capsys, "analyze", "--generated", "2", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["targets"]) == 2
    for target in payload["targets"]:
        assert {"induction", "unreachable_pcs", "decided_branches"} <= set(target)


def test_analyze_unknown_workload_exits_two(capsys):
    code, out, err = run_cli_err(capsys, "analyze", "gcc")
    assert code == 2
    assert "gcc" in err


def test_analyze_nothing_exits_two(capsys):
    code, out, err = run_cli_err(capsys, "analyze")
    assert code == 2


def test_bad_workload_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--workload", "gcc"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fuzz_command_clean(capsys):
    code, out = run_cli(capsys, "fuzz", "--runs", "5", "--seed", "0")
    assert code == 0
    assert "5 case(s) checked" in out
    assert "ok" in out


def test_fuzz_command_json(capsys):
    import json

    code, out = run_cli(capsys, "fuzz", "--runs", "3", "--seed", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checked"] == 3
    assert payload["failures"] == []
    assert len(payload["oracles"]) == 6
    assert "absint-soundness" in payload["oracles"]
    assert "pipeline-equivalence" in payload["oracles"]


def test_fuzz_command_oracle_subset(capsys):
    import json

    code, out = run_cli(
        capsys, "fuzz", "--runs", "2", "--oracle", "trace-equivalence", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracles"] == ["trace-equivalence"]


def test_fuzz_command_failure_exit_code_and_artifacts(capsys, tmp_path, monkeypatch):
    """A seeded defect makes `repro fuzz` exit 1 and write shrunk reproducers."""
    import json

    from repro.compiler import insertion

    monkeypatch.setattr(insertion, "_TEST_DROP_FIRST_INSERTED", True)
    out_dir = tmp_path / "repro-artifacts"
    code, out = run_cli(
        capsys, "fuzz", "--runs", "2", "--seed", "0",
        "--oracle", "pass-preservation", "--json", "--out", str(out_dir),
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failures"]
    written = list(out_dir.glob("seed*-pass-preservation.s"))
    assert written, "expected shrunk reproducer artifacts"
    text = written[0].read_text()
    assert "halt" in text  # a runnable program, not a fragment


def test_fuzz_command_rejects_unknown_oracle():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fuzz", "--oracle", "nonsense"])


def test_fuzz_run_id_without_out_dir_is_an_error(capsys):
    code, out, err = run_cli_err(capsys, "fuzz", "--runs", "1", "--run-id", "x")
    assert code == 2
    assert "--run-id requires --out-dir" in err
    assert out == ""


def test_fuzz_journal_resume_rejects_changed_generator(capsys, tmp_path):
    out_dir = str(tmp_path / "fuzz")
    code, out = run_cli(capsys, "fuzz", "--runs", "3", "--seed", "0", "--out-dir", out_dir)
    assert code == 0 and "3 case(s) checked" in out
    # The identical command resumes from the journal ...
    code, out = run_cli(capsys, "fuzz", "--runs", "3", "--seed", "0", "--out-dir", out_dir)
    assert code == 0 and "3 case(s) checked" in out
    # ... but other generator flags build other programs: their verdicts
    # must not be served from this journal.
    code, out, err = run_cli_err(
        capsys, "fuzz", "--runs", "3", "--seed", "0", "--out-dir", out_dir,
        "--frontend", "ir", "--segments", "9",
    )
    assert code == 2
    assert "config fingerprint mismatch" in err
    assert out == ""


@pytest.mark.parametrize("command", ["suite", "run"])
@pytest.mark.parametrize(
    "flag, value", [("--store", None), ("--workers", "2"), ("--lease", "5"), ("--run-id", "x")]
)
def test_campaign_flags_without_out_dir_are_errors(capsys, tmp_path, command, flag, value):
    # Without --out-dir these flags used to be silently ignored.
    value = value or str(tmp_path / "store")
    argv = [command, "--config", "no_predict", "--max-insts", "1500", flag, value]
    if command == "run":
        argv += ["--workload", "go"]
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 2
    assert f"{flag} requires --out-dir" in err
    assert out == ""
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", ["suite", "run"])
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--lease", "5"], "--lease requires --workers"),
        (["--workers", "2", "--jobs", "2"], "--jobs conflicts with --workers"),
    ],
    ids=["lease-without-workers", "jobs-with-workers"],
)
def test_campaign_flags_the_chosen_path_ignores_are_errors(capsys, tmp_path, command, extra, message):
    # --lease acts only under --workers, and --workers sizes the pool that
    # --jobs would otherwise size: either one used to be dropped silently.
    argv = [command, "--config", "no_predict", "--max-insts", "1500", "--out-dir", str(tmp_path / "runs")]
    if command == "run":
        argv += ["--workload", "go"]
    code, out, err = run_cli_err(capsys, *argv, *extra)
    assert code == 2
    assert message in err
    assert out == ""
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["suite", "--max-insts", "0"], "argument --max-insts: must be >= 1, got 0"),
        (["run", "--workload", "go", "--threshold", "1.5"], "argument --threshold: must be in [0, 1], got 1.5"),
        (["run", "--workload", "go", "--threshold", "-0.1"], "argument --threshold: must be in [0, 1]"),
        (["suite", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
        (["run", "--workload", "go", "--jobs", "0"], "argument --jobs: must be >= 1"),
        (["suite", "--out-dir", "runs", "--workers", "0"], "argument --workers: must be >= 1"),
        (["metrics", "--max-insts", "-5"], "argument --max-insts: must be >= 1, got -5"),
        (["lint", "li", "--max-insts", "0"], "argument --max-insts: must be >= 1"),
        (["lint", "li", "--threshold", "2"], "argument --threshold: must be in [0, 1]"),
        (["analyze", "li", "--max-insts", "0"], "argument --max-insts: must be >= 1"),
        (["analyze", "li", "--threshold", "1.01"], "argument --threshold: must be in [0, 1]"),
        (["bench", "--max-insts", "0"], "argument --max-insts: must be >= 1"),
        (["suite", "--max-insts", "many"], "argument --max-insts: invalid int value: 'many'"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_out_of_range_values_are_rejected_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_range_bounds_are_accepted():
    args = build_parser().parse_args(
        ["run", "--workload", "go", "--max-insts", "1", "--threshold", "1", "--jobs", "1"]
    )
    assert (args.max_insts, args.threshold, args.jobs) == (1, 1.0, 1)
    assert build_parser().parse_args(["lint", "--threshold", "0"]).threshold == 0.0


def test_suite_profile_prints_timing_memo_counters(capsys):
    code, out = run_cli(
        capsys, "suite", "--config", "drvp_dead", "drvp_dead_lv", "grp_all", "--max-insts", "1500", "--profile"
    )
    assert code == 0
    for counter in ("session.timing.hits", "session.timing.misses", "session.timing.uncacheable"):
        assert f'"{counter}"' in out
