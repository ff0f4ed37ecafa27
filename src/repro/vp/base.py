"""Common value-predictor interface shared by the pipeline simulator.

The pipeline interrogates a predictor at *rename* time and trains it at
*execute/commit* time:

1. ``source(inst)`` — is this instruction a prediction candidate, and where
   would its prediction come from?  Returns a :class:`PredictionSource`
   (``DST`` = the instruction's own destination register, ``REG`` = a
   correlated register, ``STORED`` = a value the predictor itself holds —
   only buffer-based LVP and the idealised last-value-reallocation model use
   ``STORED``).
2. ``confident(pc)`` — should a prediction actually be made this time?
3. ``stored_value(pc)`` — for ``STORED`` sources, the value (or None).
4. ``update(pc, correct, actual)`` — train after the real result is known.
   ``correct`` means the *source value captured at rename* matched the
   result; register-based predictors are trained on this signal whether or
   not a prediction was issued, exactly like the hardware (the candidate
   instruction always reads its old mapping for the comparison).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Hashable, Optional

from ..isa.instructions import Instruction
from ..isa.registers import Reg


class SourceKind(enum.Enum):
    DST = "dst"  # old value of the destination register (pure RVP)
    REG = "reg"  # value of a correlated register (dead/live hints)
    STORED = "stored"  # value held by the predictor (LVP buffer / ideal LVR)


@dataclass(frozen=True)
class PredictionSource:
    kind: SourceKind
    reg: Optional[Reg] = None  # for REG sources


class ValuePredictor(abc.ABC):
    """Interface the pipeline drives.  Stateless instructions (no destination
    register) are never candidates."""

    __slots__ = ()

    #: human-readable configuration name (shown in stats)
    name: str = "predictor"

    #: does a prediction come from a dedicated value buffer (no register-file
    #: read port cost)?  Mirrors the paper's storage/port accounting.
    table_backed: bool = False

    @abc.abstractmethod
    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        """Prediction source for this instruction, or None if not a candidate."""

    def static_fingerprint(self) -> Optional[Hashable]:
        """Hashable key identifying everything :meth:`source` (and
        ``table_backed``) depend on, so a stream overlay — a pure function
        of (trace, those two) — can be cached and shared across predictor
        instances.  It keys the overlay only: a stream's predictor-free core
        is shared by every predictor on the trace whatever its fingerprint.
        Two predictors with equal fingerprints MUST yield identical
        ``source()`` results for every instruction of every trace.  ``None``
        (the default) means "not cacheable": the overlay is rebuilt per run
        over the shared core (e.g. when ``source()`` mutates predictor
        state)."""
        return None

    @abc.abstractmethod
    def confident(self, pc: int) -> bool:
        """Whether to actually speculate on this instance."""

    def stored_value(self, pc: int) -> Optional[int]:
        """Value for STORED sources (None suppresses the prediction)."""
        return None

    @abc.abstractmethod
    def update(self, pc: int, correct: bool, actual: int) -> None:
        """Train with the committed outcome."""

    def reset(self) -> None:  # pragma: no cover - trivial default
        """Clear learned state (between runs)."""


class NoPredictor(ValuePredictor):
    """The no-prediction baseline."""

    __slots__ = ()

    name = "no_predict"

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        return None

    def static_fingerprint(self):
        return ("no_predict",)

    def confident(self, pc: int) -> bool:
        return False

    def update(self, pc: int, correct: bool, actual: int) -> None:
        pass
