"""Parameter sweeps: vary one machine/predictor knob, measure the suite.

The paper fixes its machine at Table 1 and motivates the design by IQ
pressure, storage cost and confidence filtering.  :func:`sweep_machine` and
:func:`sweep` make those arguments quantitative for any knob::

    from dataclasses import replace
    from repro.core.sweep import sweep_machine
    from repro.uarch import table1_config

    rows = sweep_machine(
        "iq", [16, 32, 64],
        lambda iq: replace(table1_config(), iq_int=iq, iq_fp=iq),
        workloads=("m88ksim", "hydro2d"),
        configs=("no_predict", "drvp_all_dead"),
    )
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..uarch.config import MachineConfig
from ..uarch.recovery import RecoveryScheme
from .experiment import ExperimentRunner
from .session import get_session

SweepRows = Dict[Tuple[object, str, str], float]  # (point, workload, config) -> IPC


def _ordered_points(points: Iterable[object]) -> List[object]:
    """Sweep points in numeric order when all are numeric ([8, 16, 64], not
    [16, 64, 8]); fall back to ``str`` order for mixed or symbolic points."""
    items = list(points)
    if items and all(isinstance(p, numbers.Real) and not isinstance(p, bool) for p in items):
        return sorted(items)
    return sorted(items, key=str)


def sweep_machine(
    name: str,
    points: Iterable[object],
    make_machine: Callable[[object], MachineConfig],
    workloads: Sequence[str],
    configs: Sequence[str],
    max_instructions: int = 25_000,
    recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
    journal=None,
) -> SweepRows:
    """Run ``configs`` x ``workloads`` at every sweep point; returns IPCs.

    The architectural trace does not depend on the machine configuration, so
    all sweep points share one functional-sim run per (workload,
    architectural program, input) through the process-wide
    :class:`~repro.core.session.SimSession` — only the cycle-level pipeline
    re-runs per point.  Statically marked (``srvp_*``) variants are the base
    program modulo RVP hints, so they share the base program's run too.  The
    sweep is one grid (:meth:`~repro.core.session.SimSession.grid`): a cell
    that poses the same timing problem as an earlier cell of the sweep takes
    its statistics instead of running the pipeline again.

    With a :class:`~repro.runtime.journal.RunJournal` attached, every sweep
    cell (``<name>=<point>/<workload>/<config>``) is committed durably as it
    completes, cells already ``ok`` in the journal are restored from their
    stored IPC without re-running, and a deterministic cell failure is
    journaled and re-raised — so an interrupted sweep resumes from where it
    died.
    """
    rows: SweepRows = {}
    with get_session().grid():
        for point in points:
            machine = make_machine(point)
            for workload in workloads:
                runner = ExperimentRunner(workload, machine=machine, max_instructions=max_instructions)
                for config in configs:
                    cell_id = f"{name}={point}/{workload}/{config}"
                    if journal is not None:
                        entry = journal.states().get(cell_id)
                        if entry is not None and entry.get("status") == "ok":
                            rows[(point, workload, config)] = float(entry["result"]["ipc"])
                            continue
                    try:
                        ipc = runner.run(config, recovery=recovery).ipc
                    except Exception as exc:
                        if journal is not None:
                            from ..runtime.errors import classify_failure

                            journal.record(
                                cell_id, "failed", error=repr(exc), error_kind=classify_failure(exc)
                            )
                        raise
                    rows[(point, workload, config)] = ipc
                    if journal is not None:
                        journal.record(cell_id, "ok", result={"ipc": ipc})
    return rows


def sweep(
    points: Iterable[object],
    run_point: Callable[[object], Dict[str, float]],
) -> Dict[object, Dict[str, float]]:
    """Generic sweep: ``run_point`` returns a metrics dict per point."""
    return {point: run_point(point) for point in points}


def speedup_series(rows: SweepRows, workload: str, config: str, baseline: str = "no_predict") -> Dict[object, float]:
    """Speedup-over-baseline as a function of the sweep point."""
    points = {point for point, w, _ in rows if w == workload}
    return {
        point: rows[(point, workload, config)] / rows[(point, workload, baseline)]
        for point in _ordered_points(points)
        if (point, workload, baseline) in rows
    }


def render_sweep(rows: SweepRows, title: str = "") -> str:
    """Simple table: one row per (workload, config), one column per point."""
    points = _ordered_points({p for p, _, _ in rows})
    pairs = sorted({(w, c) for _, w, c in rows})
    lines = [title] if title else []
    header = [f"{'workload/config':28s}"] + [f"{str(p):>10s}" for p in points]
    lines.append("  ".join(header))
    for workload, config in pairs:
        cells = [f"{workload + '/' + config:28s}"]
        for point in points:
            value = rows.get((point, workload, config))
            cells.append(f"{value:10.3f}" if value is not None else f"{'-':>10s}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
