"""Reading-session segmentation and per-window behavioral counts.

A session ends when the learner restarts from the top of the page (after
having read past a minimum depth) or when a page reload occurs. Idle gaps
longer than the break threshold count as breaks and are excluded from
active time. Backward scrolls are counted as maximal decreasing runs so the
count does not depend on the scroll sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import EventColumns, TraceStore, check_sorted, events_to_columns
from .ingest import UnsortedInput  # noqa: F401 - re-exported: segment_sessions raises it
from .trace_model import QuizAttempt, ReadingSession, ScrollEvent, SessionizerConfig


@dataclass(frozen=True)
class ReadingWindow:
    """The inter-attempt interval whose events feed one quiz attempt's features."""

    student_id: str
    window_start_ts_ms: int
    window_end_ts_ms: int
    events: EventColumns


def _split_into_runs(events: EventColumns, cfg: SessionizerConfig) -> list[tuple[int, int, int, int, int]]:
    """(first, stop, breaks, break ms, backscrolls) per session, in time order.

    A session is the events [first, stop). Backscroll actions are maximal runs
    of drops beyond epsilon on one object, and never span two sessions.
    """
    ts = events.ts_ms.tolist()
    ys = events.scroll_y.tolist()
    loads = events.pageload.tolist()
    objs = events.object_code.tolist()
    runs: list[tuple[int, int, int, int, int]] = []
    first = breaks = break_ms = backscrolls = 0
    max_depth = 0.0
    in_drop = False
    for i, y in enumerate(ys):
        if i > first:
            if loads[i] or (y <= cfg.top_band_px and max_depth >= cfg.min_depth_px):
                # Boundary takes precedence: the gap before a restart is not a break.
                runs.append((first, i, breaks, break_ms, backscrolls))
                first, breaks, break_ms, backscrolls, max_depth, in_drop = i, 0, 0, 0, 0.0, False
            else:
                gap = ts[i] - ts[i - 1]
                if gap > cfg.break_gap_ms:
                    breaks += 1
                    break_ms += gap
                drop = objs[i] == objs[i - 1] and (ys[i - 1] - y) > cfg.backscroll_epsilon_px
                if drop and not in_drop:
                    backscrolls += 1
                in_drop = drop
        if y > max_depth:
            max_depth = y
    if ys:
        runs.append((first, len(ys), breaks, break_ms, backscrolls))
    return runs


def segment_sessions(
    events: EventColumns | Sequence[ScrollEvent], cfg: SessionizerConfig
) -> list[ReadingSession]:
    """Segment one student's sorted scroll stream into reading sessions.

    A list of events goes through `events_to_columns`, which keeps its order, so
    this path checks the order itself: UnsortedInput if the timestamps decrease.
    """
    if not isinstance(events, EventColumns):
        events = events_to_columns(events)
        check_sorted(events)
    ts = events.ts_ms
    codes = events.object_code
    sessions: list[ReadingSession] = []
    for first, stop, breaks, break_ms, backscrolls in _split_into_runs(events, cfg):
        start, end = int(ts[first]), int(ts[stop - 1])
        sessions.append(
            ReadingSession(
                student_id=events.students[events.student_code[first]],
                start_ts_ms=start,
                end_ts_ms=end,
                event_count=stop - first,
                num_breaks=breaks,
                num_backscrolls=backscrolls,
                object_ids=frozenset(events.objects[c] for c in set(codes[first:stop].tolist())),
                active_ms=(end - start) - break_ms,
            )
        )
    return sessions


def count_backscrolls(events: EventColumns | Sequence[ScrollEvent], cfg: SessionizerConfig) -> int:
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
    lo, hi = np.searchsorted(evs.ts_ms, (window_start, window_end)).tolist()
    return ReadingWindow(
        student_id=attempt.student_id,
        window_start_ts_ms=window_start,
        window_end_ts_ms=window_end,
        events=evs[lo:hi],
    )
