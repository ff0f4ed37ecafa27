"""In-memory spans around the program's layer boundaries.

Each layer is wrapped where its callers look it up: a name imported into the
calling module (``repro.core.session.prepare_stream``), or a method on its
class (``RunJournal.record``), so that every call site sees the wrapper and
nothing under ``src/`` changes.  A span records its layer name, start, end,
parent span and cell id; spans stay in memory and are written out once the
run ends.  Wrapping costs one span per layer call, never one per instruction.

A layer's *self time* is its span's duration minus the durations of its
direct child spans.  The root spans (``runtime.campaign``, ``core.sweep``)
are opened by the benchmark around its own call into the program, so the
self times of all spans add up to the wall time of the measured calls; a
root's own self time is the part no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Journal statuses that end a cell (``pending`` marks do not).
TERMINAL_STATUSES = ("ok", "failed", "timeout")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    cell: Optional[str]
    #: False when a memoizing layer answered from its cache and did no work.
    worked: bool = True
    #: Work the call did, in the layer's own unit (cycles, entries, insts).
    amount: float = 0.0
    #: Layer-specific label (the journal status of a ``record`` call).
    tag: Optional[str] = None
    #: The call's return value, kept only for layers that ask for it.
    result: object = None


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _experiment_cell(args: tuple, kwargs: dict) -> str:
    runner = args[0]
    recovery = _arg(args, kwargs, 2, "recovery")
    recovery = "selective" if recovery is None else getattr(recovery, "value", recovery)
    config = _arg(args, kwargs, 1, "config")
    return f"iq{runner.machine.iq_int}/{runner.workload.name}/{config}/{recovery}"


@dataclass(frozen=True)
class Layer:
    """One wrapped call site: ``module`` + ``attr`` (``"Class.method"`` or a
    module-level name) recorded under ``name``."""

    name: str
    module: str
    attr: str
    #: Work done by one call, from its return value.
    amount: Optional[Callable[[object], float]] = None
    #: A program counter that rises only when the call missed its cache;
    #: calls that leave it unchanged count as spans but not as ``calls``.
    miss_counter: Optional[str] = None
    cell: Optional[Callable[[tuple, dict], str]] = None
    tag: Optional[Callable[[tuple, dict], str]] = None
    keep_result: bool = False


#: Every layer the benchmark measures, named by module.
LAYERS: Tuple[Layer, ...] = (
    Layer("core.experiment", "repro.core.experiment", "ExperimentRunner.run",
          cell=_experiment_cell, keep_result=True),
    Layer("core.experiment.payload", "repro.core.experiment", "ExperimentResult.to_dict"),
    Layer("core.experiment.payload", "repro.core.experiment", "ExperimentResult.from_dict"),
    Layer("uarch.pipeline", "repro.core.experiment", "simulate",
          amount=lambda stats: stats.cycles),
    Layer("uarch.stream", "repro.core.session", "prepare_stream", amount=len),
    Layer("sim.ref_trace", "repro.core.session", "SimSession.ref_trace",
          amount=len, miss_counter="session.trace.misses"),
    Layer("profiling.train_pass", "repro.core.session", "SimSession.train_artifacts",
          amount=lambda artifacts: artifacts.instructions, miss_counter="session.profile.misses"),
    Layer("profiling.lists", "repro.core.session", "SimSession.profile_lists",
          miss_counter="session.lists.misses"),
    Layer("workloads.program", "repro.workloads.base", "Workload.program"),
    Layer("workloads.memory", "repro.workloads.base", "Workload.memory"),
    Layer("compiler.marking", "repro.core.session", "mark_static_rvp"),
    Layer("compiler.realloc", "repro.core.session", "reallocate"),
    Layer("analysis.verifier", "repro.analysis.verifier", "check_program"),
    Layer("runtime.campaign.sidecar", "repro.runtime.campaign", "compute_batch_digests"),
    Layer("runtime.campaign.report", "repro.runtime.campaign", "build_report"),
    Layer("runtime.store.key", "repro.runtime.store", "cell_store_key"),
    Layer("runtime.store.get", "repro.runtime.store", "ResultStore.get"),
    Layer("runtime.store.put", "repro.runtime.store", "ResultStore.put"),
    Layer("runtime.journal", "repro.runtime.journal", "RunJournal.record",
          cell=lambda args, kwargs: _arg(args, kwargs, 1, "cell_id"),
          tag=lambda args, kwargs: _arg(args, kwargs, 2, "status")),
)


#: Every layer name, in table order (a layer may wrap several call sites).
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer.name for layer in LAYERS))

#: Roots the benchmark opens around its own calls into the program.
ROOTS = ("runtime.campaign", "core.sweep")


class Tracer:
    """Collects spans from the named layers while entered (``with tracer:``)."""

    def __init__(self, layers: Sequence[str], counter: Callable[[str], int]) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._counter = counter
        self._layers = [layer for layer in LAYERS if layer.name in layers]
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer in self._layers:
            self._install(layer)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrapping -------------------------------------------------------
    def _install(self, layer: Layer) -> None:
        owner = importlib.import_module(layer.module)
        path = layer.attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            wrapped = property(self._wrap(original.fget, layer))
        elif isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, layer))
        else:
            wrapped = self._wrap(original, layer)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        spans, stack, counter = self.spans, self._stack, self._counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if layer.cell is not None:
                cell = layer.cell(args, kwargs)
            else:
                cell = spans[parent].cell if parent >= 0 else None
            span = Span(layer.name, 0.0, 0.0, parent, cell)
            if layer.tag is not None:
                span.tag = layer.tag(args, kwargs)
            misses = counter(layer.miss_counter) if layer.miss_counter else 0
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if layer.miss_counter:
                span.worked = counter(layer.miss_counter) > misses
            if span.worked and layer.amount is not None:
                span.amount = float(layer.amount(result))
            if layer.keep_result:
                span.result = result
            return result

        return probe

    # -- benchmark-side spans ---------------------------------------------
    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        span = Span(name, 0.0, 0.0, -1, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- results ----------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON object per span; ``parent`` indexes the same file."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "cell": span.cell,
                }) + "\n")


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: spans, calls (spans that did work), total and self
    seconds, and the summed work amount."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    totals: Dict[str, Dict[str, float]] = {}
    for span, children in zip(spans, child):
        duration = span.end - span.start
        entry = totals.setdefault(
            span.name, {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0.0}
        )
        entry["spans"] += 1
        entry["calls"] += span.worked
        entry["total_s"] += duration
        entry["self_s"] += duration - children
        entry["amount"] += span.amount
    return totals


def load(path: str) -> List[Span]:
    """Spans written by :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]
