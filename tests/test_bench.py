"""Tests for the ``repro bench`` harness: numbering, comparison, CLI codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchConfig,
    compare_benchmarks,
    find_latest_bench,
    next_bench_path,
    run_benchmarks,
)
from repro.bench.harness import load_bench
from repro.cli import main


# ----------------------------------------------------------------------
# Baseline file numbering
# ----------------------------------------------------------------------
def test_bench_numbering(tmp_path):
    root = str(tmp_path)
    assert find_latest_bench(root) is None
    assert os.path.basename(next_bench_path(root)) == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")
    (tmp_path / "BENCH_notanumber.json").write_text("{}")
    assert os.path.basename(find_latest_bench(root)) == "BENCH_3.json"
    assert os.path.basename(next_bench_path(root)) == "BENCH_4.json"


def test_load_bench_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="not a repro-bench/1 file"):
        load_bench(str(path))


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
def _payload(fast, trace, pipeline):
    return {
        "summary": {
            "fast_minstr_s_geomean": fast,
            "trace_minstr_s_geomean": trace,
            "pipeline_cycles_per_s_geomean": pipeline,
        }
    }


def test_compare_statuses():
    baseline = _payload(10.0, 1.0, 100.0)
    current = _payload(11.0, 0.85, 60.0)  # faster / -15% (warn) / -40% (fail)
    report = {e["metric"]: e for e in compare_benchmarks(current, baseline)}
    assert report["fast_minstr_s_geomean"]["status"] == "ok"
    assert report["fast_minstr_s_geomean"]["drop"] < 0
    assert report["trace_minstr_s_geomean"]["status"] == "warn"
    assert report["pipeline_cycles_per_s_geomean"]["status"] == "fail"


def test_compare_skips_metrics_absent_from_current():
    assert compare_benchmarks({"summary": {}}, _payload(1.0, 1.0, 1.0)) == []


def test_compare_reports_metrics_absent_from_baseline_as_missing():
    # A series measured now but not in the baseline must not gate the run:
    # the entries come back as non-failing "missing" until a baseline that
    # carries the series is committed.
    report = compare_benchmarks(_payload(1.0, 1.0, 1.0), {})
    assert report and all(e["status"] == "missing" for e in report)
    assert all(e["baseline"] is None and e["drop"] is None for e in report)

    current = _payload(1.0, 1.0, 1.0)
    current["summary"]["batched_minstr_s_per_lane_geomean"] = 9.0
    report = {e["metric"]: e for e in compare_benchmarks(current, _payload(1.0, 1.0, 1.0))}
    assert report["batched_minstr_s_per_lane_geomean"]["status"] == "missing"
    assert report["fast_minstr_s_geomean"]["status"] == "ok"


def test_stream_series_gate_once_a_baseline_carries_them():
    metrics = ("stream_core_kentries_s_geomean", "stream_overlay_kentries_s_geomean")
    current = _payload(1.0, 1.0, 1.0)
    current["summary"].update({metric: 100.0 for metric in metrics})
    report = {e["metric"]: e for e in compare_benchmarks(current, _payload(1.0, 1.0, 1.0))}
    assert all(report[metric]["status"] == "missing" for metric in metrics)
    baseline = _payload(1.0, 1.0, 1.0)
    baseline["summary"].update({metric: 200.0 for metric in metrics})
    report = {e["metric"]: e for e in compare_benchmarks(current, baseline)}
    assert all(report[metric]["status"] == "fail" for metric in metrics)


def test_speculative_pipeline_series_is_gated_once_a_baseline_carries_it():
    metric = "pipeline_fast_spec_cycles_per_s_geomean"
    from repro.bench.harness import REGRESSION_METRICS

    assert metric in REGRESSION_METRICS
    current = _payload(1.0, 1.0, 1.0)
    current["summary"][metric] = 100.0
    # The committed BENCH_3.json predates the series: non-failing "missing".
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench3 = load_bench(os.path.join(root, "BENCH_3.json"))
    report = {e["metric"]: e for e in compare_benchmarks(current, bench3)}
    assert report[metric]["status"] == "missing"
    baseline = _payload(1.0, 1.0, 1.0)
    baseline["summary"][metric] = 200.0
    report = {e["metric"]: e for e in compare_benchmarks(current, baseline)}
    assert report[metric]["status"] == "fail"


def test_compare_custom_thresholds():
    baseline = _payload(10.0, 10.0, 10.0)
    current = _payload(8.0, 8.0, 8.0)  # uniform -20%
    default = compare_benchmarks(current, baseline)
    assert {e["status"] for e in default} == {"warn"}
    strict = compare_benchmarks(current, baseline, fail_threshold=0.15)
    assert {e["status"] for e in strict} == {"fail"}


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="unknown workload"):
        BenchConfig(workloads=("nope",)).validated()
    with pytest.raises(ValueError, match="max_instructions"):
        BenchConfig(max_instructions=0).validated()
    with pytest.raises(ValueError, match="repeats"):
        BenchConfig(repeats=0).validated()
    with pytest.raises(ValueError, match="lanes"):
        BenchConfig(lanes=0).validated()
    quick = BenchConfig.quick_config()
    assert quick.quick and quick.validated() is not None


def test_default_workloads_cover_the_full_registry():
    # The default bench sweep must track the registry: a workload added to
    # the suite (dotprod and stencil were once missing) is benchmarked the
    # moment it lands, without a harness edit.
    from repro.workloads.suite import WORKLOAD_CLASSES

    assert tuple(BenchConfig().workloads) == tuple(WORKLOAD_CLASSES)
    assert "dotprod" in BenchConfig().workloads
    assert "stencil" in BenchConfig().workloads


# ----------------------------------------------------------------------
# A tiny real campaign + the CLI surface
# ----------------------------------------------------------------------
def test_run_benchmarks_payload_shape():
    config = BenchConfig(workloads=("li",), max_instructions=300, repeats=1, lanes=2)
    payload = run_benchmarks(config)
    assert payload["schema"] == BENCH_SCHEMA
    funcsim = payload["results"]["funcsim"]["li"]
    assert funcsim["instructions"] > 0
    assert funcsim["fast_minstr_s"] > 0
    engines = payload["results"]["engines"]["li"]
    assert engines["lanes"] == 2
    assert engines["lane_instructions"] == 2 * funcsim["instructions"]
    assert engines["batched_minstr_s_per_lane"] > 0
    pipeline = payload["results"]["pipeline"]["li"]
    assert pipeline["cycles"] > 0
    # The speculative leg really speculates (and its two engines agreed,
    # or run_benchmarks would have raised).
    assert pipeline["spec_cycles"] > 0 and pipeline["spec_predictions"] > 0
    assert pipeline["fast_spec_cycles_per_s"] > 0
    assert payload["summary"]["pipeline_fast_spec_cycles_per_s_geomean"] > 0
    stream = payload["results"]["stream"]["li"]
    assert stream["entries"] == 300
    assert stream["core_kentries_s"] > 0 and stream["overlay_kentries_s"] > 0
    assert payload["summary"]["stream_core_kentries_s_geomean"] > 0
    assert payload["summary"]["stream_overlay_kentries_s_geomean"] > 0
    session = payload["results"]["session"]["li"]
    assert session["warm_s"] <= session["cold_s"]
    assert payload["summary"]["fast_speedup_geomean"] > 0
    assert payload["summary"]["batched_minstr_s_per_lane_geomean"] > 0
    assert payload["config"]["lanes"] == 2


def _bench_cli(*extra):
    return main(
        ["bench", "--workload", "li", "--max-insts", "300", "--repeats", "1", "--no-write", "--json"]
        + list(extra)
    )


def test_cli_bench_clean_exit(tmp_path, monkeypatch, capsys):
    # chdir away from the repo root so a committed BENCH_<n>.json baseline
    # cannot be auto-discovered (timing noise must not fail this test).
    monkeypatch.chdir(tmp_path)
    assert _bench_cli() == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == BENCH_SCHEMA


def test_cli_bench_regression_exit(tmp_path, capsys):
    baseline = {
        "schema": BENCH_SCHEMA,
        "summary": {
            "fast_minstr_s_geomean": 1e9,
            "trace_minstr_s_geomean": 1e9,
            "pipeline_cycles_per_s_geomean": 1e15,
        },
    }
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps(baseline))
    assert _bench_cli("--baseline", str(path)) == 1
    payload = json.loads(capsys.readouterr().out)
    statuses = {e["status"] for e in payload["baseline"]["comparisons"]}
    assert "fail" in statuses


def test_cli_bench_bad_baseline_exit(tmp_path, capsys):
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps({"schema": "bogus"}))
    assert _bench_cli("--baseline", str(path)) == 2
    capsys.readouterr()


def test_cli_bench_tolerates_corrupt_auto_baseline(tmp_path, capsys):
    """A truncated auto-discovered baseline (crashed previous run, botched
    merge) must warn and continue, not kill the measurement run."""
    (tmp_path / "BENCH_1.json").write_text('{"schema": "repro-bench/1", "summ')  # torn
    code = _bench_cli("--out-dir", str(tmp_path))
    assert code == 0
    captured = capsys.readouterr()
    assert "ignoring unreadable baseline" in captured.err
    assert "BENCH_1.json" in captured.err
    payload = json.loads(captured.out)
    assert payload.get("baseline") is None  # ran uncompared, not against garbage


def test_cli_bench_tolerates_wrong_schema_auto_baseline(tmp_path, capsys):
    (tmp_path / "BENCH_2.json").write_text(json.dumps({"schema": "bogus/0"}))
    assert _bench_cli("--out-dir", str(tmp_path)) == 0
    assert "ignoring unreadable baseline" in capsys.readouterr().err


def test_cli_bench_explicit_bad_baseline_still_fails(tmp_path, capsys):
    # Auto-discovery degrades gracefully; an *explicit* --baseline the user
    # named is a hard error — silently ignoring it would fake a clean bill.
    path = tmp_path / "broken.json"
    path.write_text("not json")
    assert _bench_cli("--baseline", str(path)) == 2
    capsys.readouterr()


def test_write_bench_is_atomic_and_loadable(tmp_path):
    from repro.bench import write_bench

    target = tmp_path / "BENCH_1.json"
    payload = {"schema": BENCH_SCHEMA, "summary": {"fast_minstr_s_geomean": 1.0}}
    write_bench(str(target), payload)
    assert load_bench(str(target)) == payload
    # temp+rename leaves nothing else behind
    assert os.listdir(tmp_path) == ["BENCH_1.json"]


def test_cli_bench_out_dir_numbering(tmp_path, capsys):
    """--out-dir is both where baselines are discovered and where the new
    BENCH_<n>.json lands."""
    assert _bench_cli_write("--out-dir", str(tmp_path)) == 0
    # The second run auto-compares against BENCH_1 written moments ago;
    # timing noise on a tiny budget may legitimately warn/fail (exit 1),
    # but the new baseline must be written either way.
    assert _bench_cli_write("--out-dir", str(tmp_path)) in (0, 1)
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
    assert names == ["BENCH_1.json", "BENCH_2.json"]
    assert load_bench(str(tmp_path / "BENCH_2.json"))["schema"] == BENCH_SCHEMA


def _bench_cli_write(*extra):
    return main(
        ["bench", "--workload", "li", "--max-insts", "300", "--repeats", "1", "--json"]
        + list(extra)
    )


def test_cli_bench_writes_out_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    code = main(
        ["bench", "--workload", "li", "--max-insts", "300", "--repeats", "1",
         "--out", str(out), "--json"]
    )
    assert code == 0
    capsys.readouterr()
    assert load_bench(str(out))["config"]["workloads"] == ["li"]
