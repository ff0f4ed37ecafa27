"""Shared infrastructure for the figure/table reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper.  The
simulated instruction budget is deliberately small by default so the whole
harness runs in minutes; scale it up for higher-fidelity numbers:

    REPRO_MAX_INSTS=200000 pytest benchmarks/ --benchmark-only -s

Benchmarks print their rows/series (run pytest with ``-s`` to see them) and
assert the *shape* relations the paper reports — who wins, roughly by how
much, where the crossovers fall — not absolute IPC values (see DESIGN.md).
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import pytest

from repro.core import ExperimentRunner
from repro.uarch.config import MachineConfig, aggressive_config, table1_config
from repro.workloads.suite import WORKLOAD_CLASSES

#: Simulated committed-instruction budget per run.
MAX_INSTS = int(os.environ.get("REPRO_MAX_INSTS", "25000"))

ALL_BENCHMARKS = tuple(WORKLOAD_CLASSES)

#: The paper's nine programs (Figures 3-8, Table 2).  Suite means and
#: suite-wide orderings are the paper's claims about these programs, so the
#: gates that check them are scoped here; per-workload sanity checks still
#: cover every registered workload.
PAPER_WORKLOADS = ("go", "ijpeg", "li", "m88ksim", "perl", "hydro2d", "mgrid", "su2cor", "turb3d")

#: Registered workloads beyond the paper's set (the IR-authored kernels),
#: reported in a separate "extended" block.
EXTENDED_WORKLOADS = tuple(name for name in ALL_BENCHMARKS if name not in PAPER_WORKLOADS)


class RunnerCache:
    """Session-wide cache of ExperimentRunners.

    Runners are thin now — traces, profiles and program variants live in the
    process-wide :class:`repro.core.SimSession`, so two runners for the same
    workload share every functional-sim artifact even across machine
    configurations.  Caching the runner objects still saves rebuilding them
    per benchmark module and keeps per-(machine, threshold) identity for
    fixtures that rely on it.
    """

    def __init__(self) -> None:
        self._runners: Dict[Tuple[str, str, float], ExperimentRunner] = {}

    def get(self, name: str, machine: MachineConfig = None, threshold: float = 0.8) -> ExperimentRunner:
        machine = machine or table1_config()
        key = (name, machine.name, threshold)
        if key not in self._runners:
            self._runners[key] = ExperimentRunner(
                name, machine=machine, max_instructions=MAX_INSTS, threshold=threshold
            )
        return self._runners[key]


@pytest.fixture(scope="session")
def runners() -> RunnerCache:
    return RunnerCache()


@pytest.fixture(scope="session")
def wide_machine() -> MachineConfig:
    return aggressive_config()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
