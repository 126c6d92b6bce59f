"""Parsing of raw event/attempt files and the indexed per-student store."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .trace_model import (
    DataError, QuizAttempt, ScrollEvent, format_number, in_file, is_finite_number, normalize_events,
)

ATTEMPTS_HEADER = "student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score"

EVENTS_FILENAME = "events.jsonl"
ATTEMPTS_FILENAME = "attempts.csv"
MANIFEST_FILENAME = "manifest.json"


class MalformedEvent(DataError):
    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class MalformedAttempt(DataError):
    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class InconsistentAttempts(DataError):
    def __init__(self, student_id: str, quiz_id: str, reason: str) -> None:
        super().__init__(f"({student_id}, {quiz_id}): {reason}")
        self.student_id = student_id
        self.quiz_id = quiz_id
        self.reason = reason


def _require_number(obj: dict, key: str, line_number: int) -> float:
    val = obj.get(key)
    if not is_finite_number(val):
        raise MalformedEvent(line_number, f"field {key!r} missing or not a finite number")
    return float(val)


def parse_events(stream: Iterable[str]) -> list[ScrollEvent]:
    """Parse a JSON Lines event stream; aborts on the first malformed line."""
    events: list[ScrollEvent] = []
    for line_number, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedEvent(line_number, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise MalformedEvent(line_number, "line is not a JSON object")
        student_id = obj.get("student_id")
        object_id = obj.get("object_id")
        if not isinstance(student_id, str):
            raise MalformedEvent(line_number, "field 'student_id' missing or not a string")
        if not isinstance(object_id, str):
            raise MalformedEvent(line_number, "field 'object_id' missing or not a string")
        ts_ms = obj.get("ts_ms")
        if isinstance(ts_ms, bool) or not isinstance(ts_ms, int):
            raise MalformedEvent(line_number, "field 'ts_ms' missing or not an integer")
        scroll_y = _require_number(obj, "scroll_y", line_number)
        page_height = None
        if "page_height" in obj:
            page_height = _require_number(obj, "page_height", line_number)
        kind = obj.get("event", "scroll")
        try:
            events.append(
                ScrollEvent(
                    student_id=student_id,
                    object_id=object_id,
                    ts_ms=ts_ms,
                    scroll_y=scroll_y,
                    page_height=page_height,
                    kind=kind,
                )
            )
        except ValueError as exc:
            raise MalformedEvent(line_number, str(exc)) from exc
    return events


def parse_attempts(stream: Iterable[str]) -> list[QuizAttempt]:
    """Parse the quiz attempts CSV; the header must match exactly."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedAttempt(1, "missing header row") from None
    if ",".join(header) != ATTEMPTS_HEADER:
        raise MalformedAttempt(1, f"bad header, expected {ATTEMPTS_HEADER!r}")
    attempts: list[QuizAttempt] = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise MalformedAttempt(line_number, f"expected 7 fields, got {len(row)}")
        try:
            score, max_score = float(row[5]), float(row[6])
            if not is_finite_number(score) or not is_finite_number(max_score):
                raise ValueError("score and max_score must be finite numbers")
            attempts.append(
                QuizAttempt(
                    student_id=row[0],
                    quiz_id=row[1],
                    attempt_index=int(row[2]),
                    start_ts_ms=int(row[3]),
                    end_ts_ms=int(row[4]),
                    score=score,
                    max_score=max_score,
                )
            )
        except ValueError as exc:
            raise MalformedAttempt(line_number, str(exc)) from exc
    return attempts


@dataclass(frozen=True)
class TraceStore:
    """Immutable indexed view over normalized events and validated attempts."""

    events_by_student: dict[str, tuple[ScrollEvent, ...]]
    attempts_by_key: dict[tuple[str, str], tuple[QuizAttempt, ...]]
    course_start_ts_ms: int

    def events_for(self, student_id: str) -> tuple[ScrollEvent, ...]:
        return self.events_by_student.get(student_id, ())

    def attempts_for(self, student_id: str, quiz_id: str) -> tuple[QuizAttempt, ...]:
        return self.attempts_by_key.get((student_id, quiz_id), ())

    def all_attempts(self) -> list[QuizAttempt]:
        out: list[QuizAttempt] = []
        for key in sorted(self.attempts_by_key):
            out.extend(self.attempts_by_key[key])
        return out

    def all_events(self) -> list[ScrollEvent]:
        out: list[ScrollEvent] = []
        for sid in sorted(self.events_by_student):
            out.extend(self.events_by_student[sid])
        return out

    @property
    def n_events(self) -> int:
        return sum(len(v) for v in self.events_by_student.values())

    @property
    def n_attempts(self) -> int:
        return sum(len(v) for v in self.attempts_by_key.values())


def build_store(events: list[ScrollEvent], attempts: list[QuizAttempt]) -> TraceStore:
    """Normalize and index inputs; rejects inconsistent or overlapping attempt sequences."""
    normalized = normalize_events(events)
    by_student: dict[str, list[ScrollEvent]] = {}
    for ev in normalized:
        by_student.setdefault(ev.student_id, []).append(ev)

    by_key: dict[tuple[str, str], list[QuizAttempt]] = {}
    for att in attempts:
        by_key.setdefault((att.student_id, att.quiz_id), []).append(att)
    for (sid, qid), group in by_key.items():
        group.sort(key=lambda a: a.attempt_index)
        indices = [a.attempt_index for a in group]
        if indices != list(range(1, len(group) + 1)):
            raise InconsistentAttempts(sid, qid, f"attempt_index sequence {indices} is not dense 1..k")
        for prev, cur in zip(group, group[1:]):
            if cur.start_ts_ms <= prev.start_ts_ms or cur.start_ts_ms < prev.end_ts_ms:
                raise InconsistentAttempts(
                    sid, qid,
                    f"attempt {cur.attempt_index} must start after attempt {prev.attempt_index} starts"
                    " and not before it ends",
                )

    all_ts = [ev.ts_ms for ev in normalized] + [a.start_ts_ms for a in attempts]
    course_start = min(all_ts) if all_ts else 0
    return TraceStore(
        events_by_student={sid: tuple(evs) for sid, evs in by_student.items()},
        attempts_by_key={key: tuple(group) for key, group in by_key.items()},
        course_start_ts_ms=course_start,
    )


def event_to_json_line(ev: ScrollEvent) -> str:
    obj: dict = {
        "student_id": ev.student_id,
        "object_id": ev.object_id,
        "ts_ms": ev.ts_ms,
        "scroll_y": ev.scroll_y,
    }
    if ev.page_height is not None:
        obj["page_height"] = ev.page_height
    obj["event"] = ev.kind
    return json.dumps(obj, separators=(",", ":"))


def write_trace_files(out_dir: str | Path, events: Iterable[ScrollEvent], attempts: Iterable[QuizAttempt]) -> None:
    """Write events JSON Lines and the attempts CSV into `out_dir`, as the parsers read them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / EVENTS_FILENAME, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(event_to_json_line(ev) + "\n" for ev in events)
    with open(out / ATTEMPTS_FILENAME, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ATTEMPTS_HEADER.split(","))
        writer.writerows(
            (a.student_id, a.quiz_id, a.attempt_index, a.start_ts_ms, a.end_ts_ms,
             format_number(a.score), format_number(a.max_score))
            for a in attempts
        )


def save_store(store: TraceStore, out_dir: str | Path) -> None:
    """Write normalized events JSONL, attempts CSV, and a small manifest."""
    out = Path(out_dir)
    write_trace_files(out, store.all_events(), store.all_attempts())
    manifest = {
        "course_start_ts_ms": store.course_start_ts_ms,
        "counts": {
            "events": store.n_events,
            "attempts": store.n_attempts,
            "students": len(set(store.events_by_student) | {k[0] for k in store.attempts_by_key}),
        },
    }
    with open(out / MANIFEST_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_store(in_dir: str | Path) -> TraceStore:
    """Rebuild a store from a directory holding events JSONL + attempts CSV."""
    src = Path(in_dir)
    with in_file(src / EVENTS_FILENAME), open(src / EVENTS_FILENAME, "r", encoding="utf-8") as fh:
        events = parse_events(fh)
    with in_file(src / ATTEMPTS_FILENAME), open(src / ATTEMPTS_FILENAME, "r", encoding="utf-8") as fh:
        attempts = parse_attempts(fh)
        return build_store(events, attempts)
