"""Per-attempt feature engineering and labeled dataset assembly.

Baseline features mirror the source study's per-attempt aggregates; the SRL
set adds cyclic-reinforcement signals comparing each attempt with the one
before it. All history-dependent features use strictly prior attempts only,
so no feature can leak the current attempt's score.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import JSON_NUMBER, PLAIN_INTEGER, TraceStore, loose_number
from .sessionize import WindowCounts, window_counts
from .trace_model import DataError, PipelineConfig, QuizAttempt, first_repeat, format_number

BASELINE_FEATURES = [
    "reading_sessions",
    "num_reading_breaks",
    "quiz_time_mins",
    "quiz_fails",
    "quiz_attempts",
]

SRL_FEATURES = [
    "num_backscrolls",
    "backscrolls_delta",
    "backscrolls_more",
    "reading_speed",
    "prev_fail",
    "score_diff",
    "improved_score",
    "quiz_time_diff",
    "quiz_time_longer",
]

FEATURE_SETS = {"baseline": BASELINE_FEATURES, "srl": BASELINE_FEATURES + SRL_FEATURES}

# Fig-2-style phase tags, kept as metadata only.
SRL_PHASE_TAGS = {
    "num_backscrolls": "performance",
    "backscrolls_delta": "performance",
    "backscrolls_more": "performance",
    "reading_speed": "reflection/performance",
    "prev_fail": "self-reflection",
    "score_diff": "self-reflection",
    "improved_score": "self-reflection",
    "quiz_time_diff": "performance",
    "quiz_time_longer": "performance",
}


def label_attempt(attempt: QuizAttempt, cfg: PipelineConfig) -> int:
    """1 = pass (score fraction at or above the pass mark), 0 = fail."""
    return 1 if attempt.score_fraction >= cfg.pass_fraction else 0


def _prior_attempts(store: TraceStore, attempt: QuizAttempt) -> tuple[QuizAttempt, ...]:
    group = store.attempts_for(attempt.student_id, attempt.quiz_id)
    return group[: attempt.attempt_index - 1]


def _attempt_features(
    store: TraceStore,
    attempt: QuizAttempt,
    window: WindowCounts,
    prev_window: WindowCounts,
    cfg: PipelineConfig,
) -> dict[str, float]:
    """All 14 features of one attempt from its window's counts and the previous attempt's."""
    priors = _prior_attempts(store, attempt)
    backscrolls = window.backscrolls
    prev_backscrolls = prev_window.backscrolls if priors else 0
    prev_fail = 1 if priors and not label_attempt(priors[-1], cfg) else 0
    quiz_time_diff = attempt.duration_mins - priors[-1].duration_mins if priors else 0.0
    # Needs two strictly prior attempts: trend of the two most recent scores
    # the student already knows about; never the current attempt's score.
    score_diff = priors[-1].score_fraction - priors[-2].score_fraction if len(priors) >= 2 else 0.0
    backscrolls_delta = float(backscrolls - prev_backscrolls)
    return {
        "reading_sessions": float(window.sessions),
        "num_reading_breaks": float(window.breaks),
        "quiz_time_mins": attempt.duration_mins,
        "quiz_fails": float(sum(1 for p in priors if not label_attempt(p, cfg))),
        "quiz_attempts": float(attempt.attempt_index),
        "num_backscrolls": float(backscrolls),
        "backscrolls_delta": backscrolls_delta,
        "backscrolls_more": 1.0 if backscrolls_delta > 0 else 0.0,
        "reading_speed": window.reading_speed,
        "prev_fail": float(prev_fail),
        "score_diff": score_diff,
        "improved_score": 1.0 if score_diff > 0 else 0.0,
        "quiz_time_diff": quiz_time_diff,
        "quiz_time_longer": 1.0 if quiz_time_diff > 0 else 0.0,
    }


def _recomputed_features(store: TraceStore, attempt: QuizAttempt, cfg: PipelineConfig) -> dict[str, float]:
    # Without a prior attempt the previous window is unused, and this passes the attempt's own.
    windows = list(window_counts(store, [*_prior_attempts(store, attempt)[-1:], attempt], cfg.sessionizer))
    return _attempt_features(store, attempt, windows[-1], windows[0], cfg)


def baseline_features(store: TraceStore, attempt: QuizAttempt, cfg: PipelineConfig) -> dict[str, float]:
    feats = _recomputed_features(store, attempt, cfg)
    return {name: feats[name] for name in BASELINE_FEATURES}


def srl_features(store: TraceStore, attempt: QuizAttempt, cfg: PipelineConfig) -> dict[str, float]:
    feats = _recomputed_features(store, attempt, cfg)
    return {name: feats[name] for name in SRL_FEATURES}


@dataclass(frozen=True)
class Dataset:
    """Labeled wide-format feature matrix, one row per quiz attempt."""

    keys: tuple[tuple[str, str, int], ...]  # (student_id, quiz_id, attempt_index)
    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.keys)

    @property
    def student_ids(self) -> tuple[str, ...]:
        return tuple(k[0] for k in self.keys)

    def subset_by_students(self, students: set[str]) -> "Dataset":
        """The rows of the given students, in their order."""
        idx = [i for i, k in enumerate(self.keys) if k[0] in students]
        return Dataset(tuple(self.keys[i] for i in idx), self.feature_names, self.X[idx], self.y[idx])

    def select(self, names: Sequence[str]) -> "Dataset":
        """The same rows with only the named feature columns, in the given order."""
        idx = [self.feature_names.index(n) for n in names]
        return Dataset(self.keys, tuple(names), np.ascontiguousarray(self.X[:, idx]), self.y)


def assemble_dataset(store: TraceStore, feature_set: str, cfg: PipelineConfig) -> Dataset:
    """One labeled row per attempt, sorted by (student_id, quiz_id, attempt_index).

    Each student's stream is sessionized once: `all_attempts` lists the
    attempts student by student, and every attempt right after the previous
    attempt of its quiz, whose window counts it reuses.
    """
    attempts = store.all_attempts()
    if not attempts:
        raise DataError("store contains no quiz attempts")
    names = FEATURE_SETS["srl"]

    keys, rows, labels = [], [], []
    prev_window = WindowCounts(0, 0, 0, 0, 0)
    for att, window in zip(attempts, window_counts(store, attempts, cfg.sessionizer)):
        values = _attempt_features(store, att, window, prev_window, cfg)
        prev_window = window
        keys.append((att.student_id, att.quiz_id, att.attempt_index))
        rows.append([values[c] for c in names])
        labels.append(label_attempt(att, cfg))
    full = Dataset(tuple(keys), tuple(names), np.array(rows, dtype=float), np.array(labels, dtype=float))
    ds = full.select(FEATURE_SETS[feature_set])
    finite = np.isfinite(ds.X).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature value for attempt {ds.keys[int(np.argmin(finite))]}")
    return ds


def save_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write `student_id,quiz_id,attempt_index,<features...>,label` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["student_id", "quiz_id", "attempt_index", *dataset.feature_names, "label"])
        for key, row, label in zip(dataset.keys, dataset.X, dataset.y):
            writer.writerow([key[0], key[1], str(key[2]), *(format_number(v) for v in row), str(int(label))])


def load_dataset_csv(path: str | Path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["student_id", "quiz_id", "attempt_index"] or len(header) < 5 or header[-1] != "label":
            raise DataError("line 1: header must be student_id,quiz_id,attempt_index,<features...>,label")
        names = tuple(header[3:-1])
        repeated = first_repeat(names)
        if repeated is not None:
            raise DataError(f"line 1: feature column {repeated!r} appears more than once")
        # One match per row: no pattern takes a comma, so the joined fields match when each field does.
        patterns = (PLAIN_INTEGER,) + (JSON_NUMBER,) * (len(names) + 1)
        numbers = re.compile(",".join(p.pattern for p in patterns))
        keys, rows, labels = [], [], []
        seen = set()
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}")
            try:
                if not numbers.fullmatch(",".join(row[2:])):
                    raise ValueError(loose_number(header[2:], row[2:], patterns))
                key = (row[0], row[1], int(row[2]))  # int() still refuses more digits than sys.get_int_max_str_digits()
                values = [float(v) for v in row[3:-1]]
                if not all(map(math.isfinite, values)):
                    name, text = next((n, t) for n, t, v in zip(names, row[3:-1], values) if not math.isfinite(v))
                    raise ValueError(f"field {name!r} is out of range for a float: {text!r}")
                label = float(row[-1])
                if label not in (0.0, 1.0):
                    raise ValueError(f"label must be 0 or 1, got {row[-1]!r}")
                rows.append(values)
                labels.append(label)
            except ValueError as exc:
                raise DataError(f"line {reader.line_num}: {exc}") from None
            if key in seen:
                raise DataError(
                    f"line {reader.line_num}: attempt (student_id, quiz_id, attempt_index) {key} appears more than once"
                )
            seen.add(key)
            keys.append(key)
    return Dataset(
        keys=tuple(keys),
        feature_names=names,
        X=np.array(rows, dtype=float).reshape(len(keys), len(names)),
        y=np.array(labels, dtype=float),
    )
