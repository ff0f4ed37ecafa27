"""The benchmark's workloads: what each sets up, and what one round runs.

Every workload is closed-loop with one client: the benchmark process issues
the next cell only when the previous one has finished, through the program's
public entry points (``run_campaign``/``CampaignSpec``, ``ResultStore``,
``ExperimentRunner`` and ``sweep_machine``).  The seed permutes the program
order and the configuration order; cells stay program-major, as
``repro suite`` runs them, and every cell's simulated statistics are the same
under every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

# The campaign imports these lazily; loading them here keeps their import
# out of the first measured round, so every round does the same work.
import repro.analysis.verifier  # noqa: F401
import repro.sim.batched  # noqa: F401
from repro.core.experiment import ExperimentRunner
from repro.core.metrics import get_metrics
from repro.core.session import reset_session
from repro.core.sweep import sweep_machine
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.store import ResultStore
from repro.uarch.config import table1_config

from spans import TERMINAL_STATUSES, Tracer

#: The paper's nine programs (Figures 3-8), in figure order.
PAPER_PROGRAMS = ("go", "ijpeg", "li", "m88ksim", "perl", "hydro2d", "mgrid", "su2cor", "turb3d")

#: The union of the Figure 3, 5, 6 and 7 configuration sets.
PAPER_CONFIGS = (
    "no_predict", "lvp", "srvp_same", "srvp_dead", "srvp_live", "srvp_live_lv",
    "drvp", "drvp_dead", "drvp_dead_lv", "lvp_all", "grp_all", "drvp_all",
    "drvp_all_dead", "drvp_all_dead_lv", "drvp_all_realloc",
)

#: Committed instructions per cell of the paper grid.  It keeps one cold
#: grid near 12 s on a 2-core host, so that every workload fits the run
#: budget; the per-program set-up (workload build, profiling, compilation)
#: therefore weighs more than at the 25k budget of ``pytest benchmarks/``.
COLD_BUDGET = 3_000

#: Worker processes that fill the store before ``store-replay`` (nproc).
SETUP_WORKERS = 2

#: Six predictor fingerprints per program, every one cacheable.
SWEEP_CONFIGS = (
    "no_predict", "lvp_all", "srvp_live_lv", "drvp", "drvp_all", "drvp_all_dead_lv",
)
#: Program variants the sweep configurations run (``srvp_*`` are marked).
SWEEP_VARIANTS = ("base", "srvp_live_lv")
SWEEP_IQ_SIZES = (16, 32)

#: The sweep runs where its 54 streams and 18 traces overflow the session's
#: default 256 MiB estimate (above ~11k instructions), so the stream LRU
#: evicts and every measured cell re-prepares its stream, as the same sweep
#: does at the 25k budget of ``pytest benchmarks/``.  At the cold grid's
#: budget every stream would stay cached.
SWEEP_BUDGET = 12_000

#: Layers with work to do on both campaign workloads.
_CAMPAIGN_IO = (
    "runtime.campaign.sidecar", "runtime.campaign.report", "runtime.store.key",
    "runtime.store.get", "runtime.journal", "core.experiment.payload",
)


def stats_digest(stats) -> str:
    """Short content digest of one cell's simulated statistics."""
    payload = json.dumps(asdict(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class Round:
    """What one measured call into the program produced."""

    wall: float
    #: cell id -> stats digest, or None for a cell that did not complete.
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    #: Cells that completed but broke a workload invariant.
    broken: List[str] = field(default_factory=list)


class Context:
    """Per-run state: scratch directories under the checkout, and the seed."""

    def __init__(self, work_root: str, seed: int) -> None:
        self.work_root = work_root
        self.rng = random.Random(seed)
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.work_root, f"d{self._dirs}")
        os.makedirs(path)
        return path

    def permuted(self, items: Tuple[str, ...]) -> Tuple[str, ...]:
        order = list(items)
        self.rng.shuffle(order)
        return tuple(order)


def counter(name: str) -> int:
    """The program's own counter ``name`` (cache hits, misses, ...)."""
    return get_metrics().get(name)


class Workload:
    name = ""
    #: Golden digest file under ``perfbench/golden``.
    golden = ""
    #: Root span the benchmark opens around its call into the program.
    root = ""
    #: Layers wrapped in the untraced run, only to time cells and collect
    #: results; the traced run wraps every layer.
    clock_layers: Tuple[str, ...] = ()
    #: Layers that must do work in a traced round (the layer self-test).
    layers: Tuple[str, ...] = ()

    def __init__(self, budget: int) -> None:
        self.budget = budget

    def setup(self, ctx: Context) -> None:
        """Work done once before the measured phase."""

    def run_round(self, ctx: Context, tracer: Tracer) -> Round:
        raise NotImplementedError


class _CampaignWorkload(Workload):
    golden = "paper-grid"
    root = "runtime.campaign"
    clock_layers = ("runtime.journal", "runtime.campaign.sidecar")

    def _spec(self, ctx: Context, jobs: int = 1) -> CampaignSpec:
        programs = ctx.permuted(PAPER_PROGRAMS)
        configs = ctx.permuted(PAPER_CONFIGS)
        return CampaignSpec(programs, configs, max_instructions=self.budget, jobs=jobs)

    def _campaign(self, spec: CampaignSpec, store: ResultStore, out_dir: str, tracer: Tracer) -> Round:
        """One journaled campaign in a fresh session, as a new process runs it."""
        reset_session()
        first = len(tracer.spans)
        with tracer.root(self.root):
            start = time.perf_counter()
            report = run_campaign(spec, out_dir, run_id="bench", store=store)
            wall = time.perf_counter() - start
        result = Round(wall)
        by_id = {f"{r.workload}/{r.config}/{r.recovery}": r for r in report.results}
        for cell_id, status in report.statuses.items():
            cell = by_id.get(cell_id)
            ok = status == "ok" and cell is not None
            result.digests[cell_id] = stats_digest(cell.stats) if ok else None
        # A cell's latency runs from the previous commit (or the end of the
        # campaign's start-up checks) to its own terminal journal commit.
        mark = None
        for span in tracer.spans[first:]:
            if span.name == "runtime.campaign.sidecar":
                mark = span.end
            elif span.name == "runtime.journal" and span.tag in TERMINAL_STATUSES:
                if mark is not None:
                    result.latencies.append(span.end - mark)
                mark = span.end
        return result


class PaperGridCold(_CampaignWorkload):
    """A serial journaled paper grid into an empty store: every layer works."""

    name = "paper-grid-cold"
    layers = (
        "core.experiment", "uarch.pipeline", "uarch.stream", "sim.ref_trace",
        "profiling.train_pass", "profiling.lists", "workloads.program", "workloads.memory",
        "compiler.marking", "compiler.realloc", "analysis.verifier", "runtime.store.put",
    ) + _CAMPAIGN_IO

    def setup(self, ctx: Context) -> None:
        self.spec = self._spec(ctx)

    def run_round(self, ctx: Context, tracer: Tracer) -> Round:
        work = ctx.fresh_dir()
        store = ResultStore(os.path.join(work, "store"))
        return self._campaign(self.spec, store, os.path.join(work, "runs"), tracer)


class StoreReplay(_CampaignWorkload):
    """The same grid again, under a new run id, against its warm store.

    Not in ``BENCHMARK.json``'s workload list: its cells take well under a
    millisecond, most of it a journal fsync, so its per-cell latency follows
    the host's disk and swung by half over one ten-seed series.  It stays
    runnable for the batch-digest sidecar and the store's hit path.
    """

    name = "store-replay"
    layers = _CAMPAIGN_IO

    def setup(self, ctx: Context) -> None:
        # The store is filled by the same grid on a two-worker pool, which
        # halves set-up on two cores; its results are checked cell for cell
        # against the serial golden digests like every measured round.
        spec = self._spec(ctx, jobs=SETUP_WORKERS)
        self.spec = spec.with_jobs(1)
        work = ctx.fresh_dir()
        self.store = ResultStore(os.path.join(work, "store"))
        self.cold = self._campaign(spec, self.store, os.path.join(work, "runs"), Tracer((), counter))

    def run_round(self, ctx: Context, tracer: Tracer) -> Round:
        hits = counter("store.hits")
        result = self._campaign(self.spec, self.store, os.path.join(ctx.fresh_dir(), "runs"), tracer)
        served = counter("store.hits") - hits
        # Every cell must come from the store and equal the set-up result.
        for cell_id, digest in result.digests.items():
            if digest is not None and digest != self.cold.digests.get(cell_id):
                result.broken.append(cell_id)
        result.broken.extend(f"simulated-{n}" for n in range(len(result.digests) - served))
        return result


class SweepWarm(Workload):
    """An IQ-size sweep over warm traces: only streams and timing work."""

    name = "sweep-warm"
    golden = "sweep"
    root = "core.sweep"
    clock_layers = ("core.experiment",)
    layers = ("core.experiment", "uarch.pipeline", "uarch.stream")

    def setup(self, ctx: Context) -> None:
        self.programs = ctx.permuted(PAPER_PROGRAMS)
        self.configs = ctx.permuted(SWEEP_CONFIGS)
        reset_session()
        # Profile, compile and trace every program variant the sweep uses.
        # Streams are not built here: at this budget the LRU would evict
        # each one before the sweep reached it again.
        for program in self.programs:
            runner = ExperimentRunner(program, max_instructions=self.budget)
            for loads_only in (True, False):
                runner.profile_lists(loads_only=loads_only)
            for variant in SWEEP_VARIANTS:
                runner.ref_trace(variant)

    @staticmethod
    def _machine(iq: int):
        return replace(table1_config(), iq_int=iq, iq_fp=iq)

    def run_round(self, ctx: Context, tracer: Tracer) -> Round:
        first = len(tracer.spans)
        with tracer.root(self.root):
            start = time.perf_counter()
            rows = sweep_machine(
                "iq", SWEEP_IQ_SIZES, self._machine, self.programs, self.configs,
                max_instructions=self.budget,
            )
            wall = time.perf_counter() - start
        result = Round(wall)
        for span in tracer.spans[first:]:
            if span.name != "core.experiment":
                continue
            stats = span.result.stats
            result.digests[span.cell] = stats_digest(stats)
            result.latencies.append(span.end - span.start)
            iq, program, config, _ = span.cell.split("/")
            # The sweep's public output is the IPC table; it must match the cell.
            if rows.get((int(iq[2:]), program, config)) != stats.ipc:
                result.broken.append(span.cell)
        return result


def make_workloads(cold_budget: int = COLD_BUDGET, sweep_budget: int = SWEEP_BUDGET) -> Dict[str, Workload]:
    workloads = (PaperGridCold(cold_budget), SweepWarm(sweep_budget), StoreReplay(cold_budget))
    return {workload.name: workload for workload in workloads}
