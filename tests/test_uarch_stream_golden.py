"""Golden absolute stats for both timing tiers.

The fast-pipeline matrix checks fast against reference, so an error common
to both tiers (for instance in stream preparation, which both read) passes
it.  This test pins the absolute :meth:`SimStats.counters` of every cell
instead: 11 workloads x 7 configurations x 3 recovery schemes, each run on
both engines.  The configurations cover every prediction-source shape:
DST (``drvp_all``, ``grp_all``), REG (``drvp_all_dead_lv``), STORED
(``lvp_all``, ``srvp_live_lv``), table-backed (``lvp_all``), marked
(``srvp_live_lv``), reallocated (``drvp_all_realloc``) and uncacheable
(``grp_all``, whose ``static_fingerprint()`` is None).

To regenerate after an intended timing-model change::

    PYTHONPATH=src python tests/test_uarch_stream_golden.py
"""

import hashlib
import json

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.session import SimSession
from repro.uarch.pipeline import simulate
from repro.uarch.recovery import RecoveryScheme
from repro.workloads import all_workloads

WORKLOADS = tuple(w.name for w in all_workloads())
CONFIGS = (
    "no_predict",
    "lvp_all",
    "drvp_all",
    "drvp_all_dead_lv",
    "srvp_live_lv",
    "grp_all",
    "drvp_all_realloc",
)
#: The smallest budget at which the reallocated variant verifies on every
#: workload (li's profile is degenerate below it).
BUDGET = 3_000


def cell_rows(runner: ExperimentRunner, config: str, engine: str):
    """Counters of one (workload, config) cell under every recovery scheme.

    The reference engine runs cold off the trace; the fast engine runs off
    the session's cached stream, so it also crosses the stream cache."""
    rows = {}
    for scheme in RecoveryScheme:
        if engine == "reference":
            variant, predictor = runner._build(config, None)
            stats = simulate(runner.ref_trace(variant), predictor, runner.machine, scheme, engine=engine)
        else:
            stream, predictor = runner.pipeline_stream(config)
            stats = simulate(None, predictor, runner.machine, scheme, engine=engine, stream=stream)
        rows[scheme.value] = stats.counters()
    return rows


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


#: (workload, config) -> digest of the reference engine's counters under all
#: three recovery schemes.  Both engines must reproduce every digest.
GOLDEN = {
    "go/no_predict": "e641fa3df45af1a6",
    "go/lvp_all": "fc25f77b55805419",
    "go/drvp_all": "fa44f27716c82442",
    "go/drvp_all_dead_lv": "9ae4e8efdf2a6f87",
    "go/srvp_live_lv": "10fab7541e0c8ba6",
    "go/grp_all": "fa44f27716c82442",
    "go/drvp_all_realloc": "58a3c3fd67c33839",
    "ijpeg/no_predict": "02f9b7d6215dfae7",
    "ijpeg/lvp_all": "9689ff20d221298c",
    "ijpeg/drvp_all": "7c07c73b18ceb69d",
    "ijpeg/drvp_all_dead_lv": "6fbe3253c3f6542e",
    "ijpeg/srvp_live_lv": "a426fed3946ca606",
    "ijpeg/grp_all": "f9f341c3bf51f3c1",
    "ijpeg/drvp_all_realloc": "530d138114b41b69",
    "li/no_predict": "5d990b2ce32e6d15",
    "li/lvp_all": "f1970d9b293cf9ab",
    "li/drvp_all": "f43c269ba0f49502",
    "li/drvp_all_dead_lv": "6d2136f1c5a832dc",
    "li/srvp_live_lv": "1c4072f0c5b6164a",
    "li/grp_all": "a21741e8a550276d",
    "li/drvp_all_realloc": "ca73c71336c9fda5",
    "m88ksim/no_predict": "aeee039bab3027e1",
    "m88ksim/lvp_all": "f9054424fde0ca8c",
    "m88ksim/drvp_all": "1467c7fbef8e2ae5",
    "m88ksim/drvp_all_dead_lv": "618817c2679288ea",
    "m88ksim/srvp_live_lv": "6c2f672745970ae7",
    "m88ksim/grp_all": "a7ff80826483b2a7",
    "m88ksim/drvp_all_realloc": "42bc463731491c78",
    "perl/no_predict": "317b05f98ddee3dc",
    "perl/lvp_all": "ed374de723cfd2d4",
    "perl/drvp_all": "a02ee0bad4aed19c",
    "perl/drvp_all_dead_lv": "36f93512a1788863",
    "perl/srvp_live_lv": "0f0fbb4b633b63b8",
    "perl/grp_all": "d99c1a08aba522c1",
    "perl/drvp_all_realloc": "9b1be7f0c828a830",
    "hydro2d/no_predict": "fa20c047c2d4a485",
    "hydro2d/lvp_all": "705fef612fa2533f",
    "hydro2d/drvp_all": "c5b326fc68bb3599",
    "hydro2d/drvp_all_dead_lv": "3fc7109409a9d504",
    "hydro2d/srvp_live_lv": "479305a41d0a3392",
    "hydro2d/grp_all": "c5b326fc68bb3599",
    "hydro2d/drvp_all_realloc": "9d8b124c2913c3dd",
    "mgrid/no_predict": "11b50b3d25095757",
    "mgrid/lvp_all": "cc45f3ad47493779",
    "mgrid/drvp_all": "e375533a2499f055",
    "mgrid/drvp_all_dead_lv": "fbe016593c8f2846",
    "mgrid/srvp_live_lv": "94ad6927e466eb89",
    "mgrid/grp_all": "c606e8e0ad06dfc9",
    "mgrid/drvp_all_realloc": "c008936bef7153d0",
    "su2cor/no_predict": "f5ec4c23ec60502d",
    "su2cor/lvp_all": "73692f6b28f66a75",
    "su2cor/drvp_all": "8b36f089979dca45",
    "su2cor/drvp_all_dead_lv": "ac87cc50c2ffc911",
    "su2cor/srvp_live_lv": "844aee995ae7129f",
    "su2cor/grp_all": "8b36f089979dca45",
    "su2cor/drvp_all_realloc": "1b65d985deec1105",
    "turb3d/no_predict": "1ff0895e4f28d97c",
    "turb3d/lvp_all": "594f503c7d56dd38",
    "turb3d/drvp_all": "476c22e608dda4f0",
    "turb3d/drvp_all_dead_lv": "476c22e608dda4f0",
    "turb3d/srvp_live_lv": "e76b7ae70de95ae5",
    "turb3d/grp_all": "476c22e608dda4f0",
    "turb3d/drvp_all_realloc": "476c22e608dda4f0",
    "dotprod/no_predict": "4ec88ceb5df5f03b",
    "dotprod/lvp_all": "b845593986b24e16",
    "dotprod/drvp_all": "fd2008f98bb9ef0b",
    "dotprod/drvp_all_dead_lv": "dd411a91a3d39714",
    "dotprod/srvp_live_lv": "67f9f9535b0f3c77",
    "dotprod/grp_all": "fd2008f98bb9ef0b",
    "dotprod/drvp_all_realloc": "dd411a91a3d39714",
    "stencil/no_predict": "cb82ac7875bf46ec",
    "stencil/lvp_all": "a0f3a014307fc239",
    "stencil/drvp_all": "8d54374a90a132aa",
    "stencil/drvp_all_dead_lv": "e7798b96105d6430",
    "stencil/srvp_live_lv": "04f3b39af0a3c1bd",
    "stencil/grp_all": "d136e5ae80c2aeb2",
    "stencil/drvp_all_realloc": "8d54374a90a132aa",
}


@pytest.fixture(scope="module")
def session():
    return SimSession()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_absolute_stats_match_golden(workload, session):
    runner = ExperimentRunner(workload, max_instructions=BUDGET, session=session)
    want = {config: GOLDEN[f"{workload}/{config}"] for config in CONFIGS}
    for engine in ("reference", "fast"):
        got = {config: digest(cell_rows(runner, config, engine)) for config in CONFIGS}
        assert got == want, f"{engine} engine"


if __name__ == "__main__":
    shared = SimSession()
    for name in WORKLOADS:
        runner = ExperimentRunner(name, max_instructions=BUDGET, session=shared)
        for config in CONFIGS:
            print(f'    "{name}/{config}": "{digest(cell_rows(runner, config, "reference"))}",')
