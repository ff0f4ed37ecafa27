"""Functional simulation substrate: memory, architectural state, interpreter, traces."""

from .batched import LaneResult, run_batch
from .decoded import DecodedProgram, decode
from .functional import (
    DEFAULT_ENGINE,
    FunctionalSimulator,
    RunResult,
    SimulationError,
    run_program,
    stream_program,
)
from .machine import ArchState
from .memory import WORD_BYTES, Memory
from .trace import TraceRecord

__all__ = [
    "DEFAULT_ENGINE",
    "DecodedProgram",
    "decode",
    "LaneResult",
    "run_batch",
    "FunctionalSimulator",
    "RunResult",
    "SimulationError",
    "run_program",
    "stream_program",
    "ArchState",
    "WORD_BYTES",
    "Memory",
    "TraceRecord",
]
