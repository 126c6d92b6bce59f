"""Reading-session segmentation and per-window behavioral counts.

A session ends when the learner restarts from the top of the page (after
having read past a minimum depth) or when a page reload occurs. Idle gaps
longer than the break threshold count as breaks and are excluded from
active time. Backward scrolls are counted as maximal decreasing runs so the
count does not depend on the scroll sampling rate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .ingest import TraceStore
from .trace_model import DataError, QuizAttempt, ReadingSession, ScrollEvent, SessionizerConfig


class UnsortedInput(DataError):
    pass


@dataclass(frozen=True)
class ReadingWindow:
    """The inter-attempt interval whose events feed one quiz attempt's features."""

    student_id: str
    window_start_ts_ms: int
    window_end_ts_ms: int
    events: tuple[ScrollEvent, ...]


def _check_sorted(events: Sequence[ScrollEvent]) -> None:
    for prev, cur in zip(events, events[1:]):
        if cur.ts_ms < prev.ts_ms:
            raise UnsortedInput(f"timestamp {cur.ts_ms} after {prev.ts_ms}")


def _split_into_runs(
    events: Sequence[ScrollEvent], cfg: SessionizerConfig
) -> list[tuple[list[ScrollEvent], list[int]]]:
    """Return (session events, break gaps in ms) per session, in time order."""
    runs: list[tuple[list[ScrollEvent], list[int]]] = []
    cur: list[ScrollEvent] = []
    gaps: list[int] = []
    max_depth = 0.0
    for ev in events:
        restart = bool(cur) and (
            ev.kind == "pageload"
            or (ev.scroll_y <= cfg.top_band_px and max_depth >= cfg.min_depth_px)
        )
        if restart:
            # Boundary takes precedence: the gap before a restart is not a break.
            runs.append((cur, gaps))
            cur, gaps, max_depth = [], [], 0.0
        elif cur:
            gap = ev.ts_ms - cur[-1].ts_ms
            if gap > cfg.break_gap_ms:
                gaps.append(gap)
        cur.append(ev)
        if ev.scroll_y > max_depth:
            max_depth = ev.scroll_y
    if cur:
        runs.append((cur, gaps))
    return runs


def _run_backscrolls(events: Sequence[ScrollEvent], epsilon_px: float) -> int:
    """Backscroll actions within one session: maximal decreasing runs on one object."""
    count = 0
    in_run = False
    for a, b in zip(events, events[1:]):
        qualifies = a.object_id == b.object_id and (a.scroll_y - b.scroll_y) > epsilon_px
        if qualifies and not in_run:
            count += 1
        in_run = qualifies
    return count


def segment_sessions(
    events: Sequence[ScrollEvent], cfg: SessionizerConfig
) -> list[ReadingSession]:
    """Segment one student's sorted scroll stream into reading sessions."""
    _check_sorted(events)
    sessions: list[ReadingSession] = []
    for run, gaps in _split_into_runs(events, cfg):
        start = run[0].ts_ms
        end = run[-1].ts_ms
        sessions.append(
            ReadingSession(
                student_id=run[0].student_id,
                start_ts_ms=start,
                end_ts_ms=end,
                event_count=len(run),
                num_breaks=len(gaps),
                num_backscrolls=_run_backscrolls(run, cfg.backscroll_epsilon_px),
                object_ids=frozenset(ev.object_id for ev in run),
                active_ms=(end - start) - sum(gaps),
            )
        )
    return sessions


def count_backscrolls(events: Sequence[ScrollEvent], cfg: SessionizerConfig) -> int:
    """Total backscroll actions over the stream; pairs never cross sessions."""
    return sum(s.num_backscrolls for s in segment_sessions(events, cfg))


def reading_speed(sessions: Sequence[ReadingSession]) -> float:
    """Distinct page objects per active minute across the window's sessions."""
    active_ms = sum(s.active_ms for s in sessions)
    if active_ms == 0:
        return 0.0
    objects: set[str] = set()
    for s in sessions:
        objects.update(s.object_ids)
    return len(objects) / (active_ms / 60_000.0)


def reading_window(store: TraceStore, attempt: QuizAttempt) -> ReadingWindow:
    """Events in [previous attempt end, this attempt start); course start for attempt 1."""
    if attempt.attempt_index > 1:
        prev = store.attempts_for(attempt.student_id, attempt.quiz_id)[attempt.attempt_index - 2]
        window_start = prev.end_ts_ms
    else:
        window_start = store.course_start_ts_ms
    window_end = attempt.start_ts_ms
    evs = store.events_for(attempt.student_id)
    lo = bisect_left(evs, window_start, key=lambda e: e.ts_ms)
    hi = bisect_left(evs, window_end, key=lambda e: e.ts_ms)
    return ReadingWindow(
        student_id=attempt.student_id,
        window_start_ts_ms=window_start,
        window_end_ts_ms=window_end,
        events=tuple(evs[lo:hi]),
    )
