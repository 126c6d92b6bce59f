"""Core domain types shared across the pipeline.

All timestamps are integer epoch milliseconds (UTC). Durations are kept in ms
throughout and converted to minutes only when features are emitted.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from numbers import Integral

MAX_TS_MS = 2**63  # int64 epoch ms: the store's ts_ms column; also keeps attempt durations finite


class DataError(ValueError):
    """An input file, or the data read from it, is at fault (CLI exit 2)."""


class InvalidConfig(ValueError):
    """A configuration value is out of range or of the wrong type (CLI exit 1)."""


@contextmanager
def in_file(path):
    """Name `path` in any value error raised in the block, which becomes a DataError.

    So does a RecursionError, which `json` raises on input nested too deeply.
    """
    try:
        yield
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except RecursionError:
        raise DataError(f"{path}: nested too deeply to read") from None


_FLOAT_MAX = sys.float_info.max


def is_finite_number(value) -> bool:
    """An int or float that converts to a finite float; bools are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def format_number(value: float) -> str:
    """A number as written to CSV: digits only when it is whole, else its shortest repr."""
    value = float(value)
    return str(int(value)) if value == int(value) else repr(value)


def first_repeat(names) -> str | None:
    """The first name that appears a second time in `names`, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _check_types(cfg) -> None:
    """Raise InvalidConfig naming the first scalar field whose value has the wrong type."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        ok = {
            "int": isinstance(value, Integral) and not isinstance(value, bool),
            "float": is_finite_number(value),
        }.get(f.type, True)
        if not ok:
            kind = "a finite number" if f.type == "float" else f"of type {f.type}"
            raise InvalidConfig(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class QuizAttempt:
    """One quiz attempt with start/end timestamps and a raw score."""

    student_id: str
    quiz_id: str
    attempt_index: int
    start_ts_ms: int
    end_ts_ms: int
    score: float
    max_score: float

    def __post_init__(self) -> None:
        if self.attempt_index < 1:
            raise ValueError(f"attempt_index must be >= 1, got {self.attempt_index}")
        if self.end_ts_ms < self.start_ts_ms:
            raise ValueError(
                f"end_ts_ms {self.end_ts_ms} before start_ts_ms {self.start_ts_ms}"
            )
        if self.start_ts_ms < 0 or self.end_ts_ms >= MAX_TS_MS:
            raise ValueError("start_ts_ms and end_ts_ms must be in [0, 2**63)")
        if self.max_score <= 0:
            raise ValueError(f"max_score must be > 0, got {self.max_score}")
        if self.score < 0:
            raise ValueError(f"score must be >= 0, got {self.score}")
        if self.score > self.max_score:
            raise ValueError(f"score {self.score} exceeds max_score {self.max_score}")

    @property
    def score_fraction(self) -> float:
        return self.score / self.max_score

    @property
    def duration_mins(self) -> float:
        return (self.end_ts_ms - self.start_ts_ms) / 60_000.0


@dataclass(frozen=True)
class SessionizerConfig:
    """Thresholds driving session segmentation and backscroll counting."""

    break_gap_ms: int = 300_000
    top_band_px: float = 50.0
    min_depth_px: float = 200.0
    backscroll_epsilon_px: float = 50.0

    def __post_init__(self) -> None:
        _check_types(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise InvalidConfig(f"{f.name} must be strictly positive")


@dataclass(frozen=True)
class GbdtParams:
    """Hyperparameters of the boosted-tree learner."""

    n_rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    lambda_l2: float = 1.0
    min_child_weight: float = 1.0

    def __post_init__(self) -> None:
        _check_types(self)
        if self.n_rounds < 1:
            raise InvalidConfig("n_rounds must be >= 1")
        if self.max_depth < 1:
            raise InvalidConfig("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidConfig("learning_rate must be in (0, 1]")
        if self.lambda_l2 < 0:
            raise InvalidConfig("lambda_l2 must be >= 0")
        if self.min_child_weight < 0:
            raise InvalidConfig("min_child_weight must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end run configuration; `compare` echoes all of it, `evaluate` the three values it reads."""

    sessionizer: SessionizerConfig = field(default_factory=SessionizerConfig)
    gbdt: GbdtParams = field(default_factory=GbdtParams)
    pass_fraction: float = 0.5
    decision_threshold: float = 0.5
    test_fraction: float = 0.25
    split_seed: int = 7
    importance_repeats: int = 20

    def __post_init__(self) -> None:
        _check_types(self)
        if not 0.0 < self.pass_fraction <= 1.0:
            raise InvalidConfig("pass_fraction must be in (0, 1]")
        if not 0.0 < self.decision_threshold < 1.0:
            raise InvalidConfig("decision_threshold must be in (0, 1)")
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfig("test_fraction must be in (0, 1)")
        if self.split_seed < 0:
            raise InvalidConfig("split_seed must be >= 0")
        if self.importance_repeats < 1:
            raise InvalidConfig("importance_repeats must be >= 1")
