"""Reading-session segmentation and per-window behavioral counts.

A session ends when the learner restarts from the top of the page (after
having read past a minimum depth) or when a page reload occurs. Idle gaps
longer than the break threshold count as breaks and are excluded from
active time. Backward scrolls are counted as maximal decreasing runs so the
count does not depend on the scroll sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .ingest import EventColumns, TraceStore
from .trace_model import QuizAttempt, SessionizerConfig


@dataclass(frozen=True)
class ReadingWindow:
    """The inter-attempt interval whose events feed one quiz attempt's features."""

    student_id: str
    window_start_ts_ms: int
    window_end_ts_ms: int
    events: EventColumns


class Session(NamedTuple):
    """One reading session.

    The first six fields are the `sessions.csv` columns after the student and
    session index, in file order; the file leaves out the last two.
    """

    start_ts_ms: int
    end_ts_ms: int
    num_breaks: int
    num_backscrolls: int
    objects_visited: int  # distinct page objects
    active_ms: int  # end - start, less the gaps longer than the break threshold
    event_count: int
    object_ids: frozenset[str]


class WindowCounts(NamedTuple):
    """Totals over the sessions of one reading window."""

    sessions: int
    breaks: int
    backscrolls: int
    active_ms: int
    objects: int  # distinct page objects

    @property
    def reading_speed(self) -> float:
        """Distinct page objects per active minute."""
        return 0.0 if self.active_ms == 0 else self.objects / (self.active_ms / 60_000.0)


def _prefix(values: np.ndarray) -> list[int]:
    """[m] = sum of values[:m], for m in 0..len(values)."""
    return [0, *values.cumsum(dtype=np.int64).tolist()]


class _StreamPass:
    """One student's sorted stream, sessionized once; any window [lo, hi) of it is read from prefix counts.

    A session that starts at event k ends at the first pageload after k, or at
    the first y <= top_band_px after the first event at or after k with
    y >= min_depth_px, whichever comes first. That end depends only on events
    from k onward, so a walk from lo restarts the state at lo exactly as a walk
    over the window's events alone would.
    """

    def __init__(self, events: EventColumns, cfg: SessionizerConfig) -> None:
        n = len(events)
        ts, ys, objs = events.ts_ms, events.scroll_y, events.object_code
        # Row by row, [m] = the first i >= m that is a pageload, a deep event or a
        # top-band event, else n; for m in 0..n+1. One array for the three: a
        # pass over a short stream is mostly NumPy call overhead.
        first_from = np.full((3, n + 2), n)
        masks = (events.pageload, ys >= cfg.min_depth_px, ys <= cfg.top_band_px)
        first_from[:, :n] = np.where(masks, np.arange(n), n)
        load, deep, top = np.minimum.accumulate(first_from[:, ::-1], axis=1)[:, ::-1]
        self._stop = np.minimum(load[1 : n + 1], top[deep[:n] + 1]).tolist()
        gap = np.zeros(n, dtype=np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        big = gap > cfg.break_gap_ms
        self._breaks = _prefix(big)
        self._break_ms = _prefix(gap * big)
        # drop[i]: event i is a fall of more than epsilon on the object of event i - 1.
        drop = np.zeros(n + 1, dtype=np.bool_)
        drop[1:n] = (objs[1:] == objs[:-1]) & (ys[:-1] - ys[1:] > cfg.backscroll_epsilon_px)
        starts = drop[:n].copy()
        starts[1:] &= ~drop[: n - 1]
        self._drop_starts = _prefix(starts)
        self._drop = drop.tolist()
        self._ts = ts.tolist()
        # The index of the previous event on the same object, or -1.
        order = objs.argsort(kind="stable")
        same = objs[order[1:]] == objs[order[:-1]]
        self._prev_same_object = np.full(n, -1)
        self._prev_same_object[order[1:][same]] = order[:-1][same]

    def runs(self, lo: int, hi: int) -> list[tuple[int, int, int, int, int]]:
        """(first, stop, breaks, break ms, backscrolls) per session of the window [lo, hi), in time order.

        A session is the events [first, stop). Gaps and drops are counted from
        first + 1: the gap before a session's first event is not a break, and a
        drop run that began before it counts anew inside it.
        """
        stop_at, breaks, break_ms = self._stop, self._breaks, self._break_ms
        starts, drop = self._drop_starts, self._drop
        runs = []
        a = lo
        while a < hi:
            b = min(stop_at[a], hi)
            backscrolls = starts[b] - starts[a + 1]
            if b > a + 1 and drop[a + 1] and drop[a]:
                backscrolls += 1
            runs.append((a, b, breaks[b] - breaks[a + 1], break_ms[b] - break_ms[a + 1], backscrolls))
            a = b
        return runs

    def window(self, lo: int, hi: int) -> WindowCounts:
        ts = self._ts
        sessions = breaks = backscrolls = active_ms = 0
        for first, stop, n_breaks, break_ms, n_backscrolls in self.runs(lo, hi):
            sessions += 1
            breaks += n_breaks
            backscrolls += n_backscrolls
            active_ms += ts[stop - 1] - ts[first] - break_ms
        objects = int(np.count_nonzero(self._prev_same_object[lo:hi] < lo))
        return WindowCounts(sessions, breaks, backscrolls, active_ms, objects)


def segment_sessions(events: EventColumns, cfg: SessionizerConfig) -> list[Session]:
    """Segment one student's sorted scroll stream into reading sessions."""
    ts, codes, objects = events.ts_ms.tolist(), events.object_code.tolist(), events.objects
    sessions = []
    for first, stop, breaks, break_ms, backscrolls in _StreamPass(events, cfg).runs(0, len(events)):
        start, end = ts[first], ts[stop - 1]
        visited = frozenset(objects[c] for c in set(codes[first:stop]))
        sessions.append(
            Session(start, end, breaks, backscrolls, len(visited), end - start - break_ms, stop - first, visited)
        )
    return sessions


def count_backscrolls(events: EventColumns, cfg: SessionizerConfig) -> int:
    """Total backscroll actions over one student's sorted stream; pairs never cross sessions."""
    return _StreamPass(events, cfg).window(0, len(events)).backscrolls


def _window_span(store: TraceStore, attempt: QuizAttempt) -> tuple[int, int]:
    """[previous attempt end, this attempt start) in ms; from course start for attempt 1."""
    if attempt.attempt_index > 1:
        prev = store.attempts_for(attempt.student_id, attempt.quiz_id)[attempt.attempt_index - 2]
        return prev.end_ts_ms, attempt.start_ts_ms
    return store.course_start_ts_ms, attempt.start_ts_ms


def reading_window(store: TraceStore, attempt: QuizAttempt) -> ReadingWindow:
    """Events in [previous attempt end, this attempt start); course start for attempt 1."""
    window_start, window_end = _window_span(store, attempt)
    evs = store.events_for(attempt.student_id)
    lo, hi = np.searchsorted(evs.ts_ms, (window_start, window_end)).tolist()
    return ReadingWindow(
        student_id=attempt.student_id,
        window_start_ts_ms=window_start,
        window_end_ts_ms=window_end,
        events=evs[lo:hi],
    )


def window_counts(
    store: TraceStore, attempts: Iterable[QuizAttempt], cfg: SessionizerConfig
) -> Iterator[WindowCounts]:
    """The counts of each attempt's reading window, in order.

    A student's stream is sessionized once for each run of that student's
    attempts, and only that pass is held: attempts listed student by student,
    as `all_attempts` lists them, cost one pass per student.
    """
    student = None
    for att in attempts:
        if att.student_id != student:
            student, stream = att.student_id, None  # drop the last pass before the next is built
            events = store.events_for(student)
            stream = _StreamPass(events, cfg)
        lo, hi = np.searchsorted(events.ts_ms, _window_span(store, att)).tolist()
        yield stream.window(lo, hi)
