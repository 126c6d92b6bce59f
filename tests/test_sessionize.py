"""Session segmentation, backscroll counting, reading speed, reading windows."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    Event,
    naive_count_backscrolls,
    naive_session_stats,
    naive_split_into_runs,
    naive_split_sessions,
    random_trace,
)
from srltrace import sessionize
from srltrace.ingest import build_store, events_to_columns
from srltrace.sessionize import (
    count_backscrolls,
    reading_window,
    segment_sessions,
    window_counts,
)
from srltrace.trace_model import QuizAttempt, SessionizerConfig

CFG = SessionizerConfig()


def ev(ts_ms, scroll_y, obj="p1", kind="scroll"):
    return Event("s1", obj, ts_ms, float(scroll_y), None, kind)


def trace(*pairs):
    """Build events from (scroll_y, ts_seconds) pairs."""
    return [ev(int(t * 1000), y) for y, t in pairs]


class TestSegmentSessions:
    def test_empty(self):
        assert segment_sessions(events_to_columns([]), CFG) == []

    def test_restart_from_top_splits(self):
        events = trace((0, 0), (500, 10), (900, 20), (0, 30), (400, 40))
        sessions = segment_sessions(events_to_columns(events), CFG)
        assert len(sessions) == 2
        assert sessions[1].start_ts_ms == 30_000

    def test_shallow_return_to_top_is_not_restart(self):
        events = trace((0, 0), (30, 10), (0, 20))
        assert len(segment_sessions(events_to_columns(events), CFG)) == 1

    def test_break_counted_and_excluded_from_active(self):
        events = trace((0, 0), (600, 10), (650, 400))
        sessions = segment_sessions(events_to_columns(events), CFG)
        assert len(sessions) == 1
        assert sessions[0].num_breaks == 1
        assert sessions[0].active_ms == 10_000

    def test_pageload_forces_boundary(self):
        events = [ev(0, 0), ev(10_000, 100), ev(20_000, 0, kind="pageload"), ev(30_000, 50)]
        sessions = segment_sessions(events_to_columns(events), CFG)
        assert len(sessions) == 2
        assert sessions[1].event_count == 2

    def test_boundary_takes_precedence_over_break(self):
        # The long gap lands on the restart event: session boundary, no break.
        events = trace((0, 0), (900, 10), (0, 500), (300, 510))
        sessions = segment_sessions(events_to_columns(events), CFG)
        assert len(sessions) == 2
        assert sessions[0].num_breaks == 0
        assert sessions[1].num_breaks == 0

    def test_partition_and_order(self):
        rng = random.Random(11)
        events = random_trace(rng, 120)
        sessions = segment_sessions(events_to_columns(events), CFG)
        assert sum(s.event_count for s in sessions) == len(events)
        for a, b in zip(sessions, sessions[1:]):
            assert a.end_ts_ms <= b.start_ts_ms

    def test_objects_visited_counts_distinct_objects(self):
        events = [ev(0, 100, obj="a"), ev(10_000, 110, obj="b"), ev(20_000, 120, obj="a")]
        (session,) = segment_sessions(events_to_columns(events), CFG)
        assert session.object_ids == {"a", "b"}
        assert session.objects_visited == 2

    def test_nonempty_iff_input_nonempty(self):
        assert segment_sessions(events_to_columns([ev(0, 0)]), CFG) != []


class TestCountBackscrolls:
    def test_epsilon_is_strict(self):
        events = trace((0, 0), (300, 10), (250, 20), (600, 30), (100, 40))
        assert count_backscrolls(events_to_columns(events), CFG) == 1

    def test_monotone_sequence(self):
        assert count_backscrolls(events_to_columns(trace((0, 0), (100, 10), (100, 20), (400, 30))), CFG) == 0

    def test_maximal_run_counts_once(self):
        events = trace((900, 0), (700, 10), (500, 20), (300, 30))
        assert count_backscrolls(events_to_columns(events), CFG) == 1

    def test_object_change_breaks_pair(self):
        events = [ev(0, 900, obj="p1"), ev(10_000, 100, obj="p2")]
        assert count_backscrolls(events_to_columns(events), CFG) == 0

    def test_pairs_do_not_cross_sessions(self):
        # Deep scroll then pageload at lower y: boundary, not a backscroll.
        events = [ev(0, 900), ev(10_000, 0, kind="pageload")]
        assert count_backscrolls(events_to_columns(events), CFG) == 0


class TestReadingSpeed:
    @staticmethod
    def _counts(events):
        """The window counts of one attempt that starts after every event: its window holds them all."""
        end = events[-1].ts_ms
        attempt = QuizAttempt("s1", "q1", 1, end + 1, end + 60_000, 50.0, 100.0)
        store = build_store(events_to_columns(events), [attempt])
        (counts,) = window_counts(store, store.all_attempts(), CFG)
        return counts

    def test_three_objects_ninety_seconds(self):
        counts = self._counts([ev(0, 100, obj="a"), ev(30_000, 110, obj="b"), ev(90_000, 120, obj="c")])
        assert counts.reading_speed == pytest.approx(2.0)

    def test_single_event_window(self):
        assert self._counts([ev(0, 100)]).reading_speed == 0.0

    def test_break_excluded_from_denominator(self):
        # 460 s elapsed, 400 s break -> 60 s active over 2 objects -> 2.0/min.
        counts = self._counts([ev(0, 100, obj="a"), ev(30_000, 110, obj="a"),
                               ev(430_000, 120, obj="b"), ev(460_000, 130, obj="b")])
        assert counts.breaks == 1
        assert counts.reading_speed == pytest.approx(2.0)


class TestReadingWindow:
    def _store(self):
        events = [ev(t, 100) for t in (100, 400_000, 600_000, 800_000)]
        attempts = [
            QuizAttempt("s1", "q1", 1, 450_000, 500_000, 30.0, 100.0),
            QuizAttempt("s1", "q1", 2, 900_000, 950_000, 80.0, 100.0),
        ]
        return build_store(events_to_columns(events), attempts)

    def test_first_attempt_starts_at_course_start(self):
        store = self._store()
        w = reading_window(store, store.attempts_for("s1", "q1")[0])
        assert w.window_start_ts_ms == store.course_start_ts_ms == 100
        assert w.window_end_ts_ms == 450_000
        assert w.events.ts_ms.tolist() == [100, 400_000]

    def test_second_attempt_window_between_attempts(self):
        store = self._store()
        w = reading_window(store, store.attempts_for("s1", "q1")[1])
        assert (w.window_start_ts_ms, w.window_end_ts_ms) == (500_000, 900_000)
        assert w.events.ts_ms.tolist() == [600_000, 800_000]

    def test_empty_window_permitted(self):
        store = build_store(events_to_columns([]), [QuizAttempt("s1", "q1", 1, 100, 200, 50.0, 100.0)])
        assert len(reading_window(store, store.attempts_for("s1", "q1")[0]).events) == 0


class TestOracleEquivalence:
    def _assert_matches(self, events, cfg):
        cols = events_to_columns(events)
        sessions = segment_sessions(cols, cfg)
        naive = naive_split_sessions(events, cfg)
        assert len(sessions) == len(naive)
        for got, ref in zip(sessions, naive):
            breaks, active, backs, objects = naive_session_stats(ref, cfg)
            assert got.event_count == len(ref)
            assert got.start_ts_ms == ref[0].ts_ms
            assert got.end_ts_ms == ref[-1].ts_ms
            assert got.num_breaks == breaks
            assert got.active_ms == active
            assert got.num_backscrolls == backs
            assert got.object_ids == frozenset(objects)
        assert count_backscrolls(cols, cfg) == naive_count_backscrolls(events, cfg)

    def test_thousand_random_traces(self):
        rng = random.Random(2024)
        for i in range(1000):
            self._assert_matches(random_trace(rng, rng.randrange(0, 201)), CFG)

    def test_nondefault_config(self):
        cfg = SessionizerConfig(break_gap_ms=60_000, top_band_px=100.0,
                                min_depth_px=300.0, backscroll_epsilon_px=10.0)
        rng = random.Random(5)
        for _ in range(100):
            self._assert_matches(random_trace(rng, rng.randrange(0, 120)), cfg)


# (ms since the previous event, scroll_y, object, kind): gaps and depths on
# both sides of the default config's thresholds (300,000 ms; top band 50 px,
# depth 200 px, backscroll epsilon 50 px), equal timestamps, two objects.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 299_999, 300_000, 300_001, 1_000_000]),
        st.one_of(st.sampled_from([0.0, 49.0, 50.0, 51.0, 100.0, 150.0, 199.0, 200.0, 201.0, 900.0]),
                  st.floats(0.0, 1200.0)),
        st.sampled_from(["a", "b"]),
        st.sampled_from(["scroll", "scroll", "scroll", "pageload"]),
    ),
    max_size=24,
)


def _stream(steps):
    ts, events = 0, []
    for gap, y, obj, kind in steps:
        ts += gap
        events.append(Event("s1", obj, ts, y, None, kind))
    return events_to_columns(events)


# The second config puts the top band over the minimum depth: one event can be both.
_CONFIGS = st.sampled_from([
    CFG, SessionizerConfig(break_gap_ms=1, top_band_px=250.0, min_depth_px=200.0, backscroll_epsilon_px=1.0),
])


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS, cfg=_CONFIGS)
# A drop run from event 1 on: windows from 2 and 3 start inside it.
@example(cfg=CFG, steps=[(0, 0.0, "a", "scroll"), *((1_000, y, "a", "scroll") for y in (900.0, 700.0, 500.0, 300.0))])
# Depth exactly min_depth_px, then y exactly top_band_px: a restart.
@example(cfg=CFG, steps=[
    (0, 0.0, "a", "scroll"), (1, 200.0, "a", "scroll"), (1, 50.0, "a", "scroll"),
    (1, 200.0, "a", "scroll"), (400_000, 50.0, "a", "scroll"),
])
# A pageload inside a drop run, and the object changing inside one at equal timestamps.
@example(cfg=CFG, steps=[
    (0, 900.0, "a", "scroll"), (0, 700.0, "a", "scroll"), (0, 500.0, "a", "pageload"),
    (0, 300.0, "a", "scroll"), (0, 100.0, "b", "scroll"), (0, 0.0, "b", "scroll"),
])
def test_stream_pass_matches_the_per_event_loop_on_every_window(steps, cfg):
    events = _stream(steps)
    stream = sessionize._StreamPass(events, cfg)
    ts = events.ts_ms.tolist()
    for lo in range(len(events) + 1):
        for hi in range(lo, len(events) + 1):
            window = events[lo:hi]
            expected = [(lo + a, lo + b, *counts) for a, b, *counts in naive_split_into_runs(window, cfg)]
            assert stream.runs(lo, hi) == expected
            assert stream.window(lo, hi) == (
                len(expected),
                sum(r[2] for r in expected),
                sum(r[4] for r in expected),
                sum(ts[b - 1] - ts[a] - ms for a, b, _, ms, _ in expected),
                len(set(window.object_code.tolist())),
            )


class TestMonotonicityAndInvariance:
    def test_raising_break_gap_never_adds_breaks(self):
        rng = random.Random(77)
        for _ in range(50):
            events = events_to_columns(random_trace(rng, 80))
            lo = sum(s.num_breaks for s in segment_sessions(events, SessionizerConfig(break_gap_ms=100_000)))
            hi = sum(s.num_breaks for s in segment_sessions(events, SessionizerConfig(break_gap_ms=400_000)))
            assert hi <= lo

    def test_raising_epsilon_never_adds_backscrolls(self):
        rng = random.Random(78)
        for _ in range(50):
            events = events_to_columns(random_trace(rng, 80))
            lo = count_backscrolls(events, SessionizerConfig(backscroll_epsilon_px=20.0))
            hi = count_backscrolls(events, SessionizerConfig(backscroll_epsilon_px=200.0))
            assert hi <= lo

    @settings(max_examples=30, deadline=None)
    @given(shift=st.integers(min_value=0, max_value=10**9), seed=st.integers(0, 1000))
    def test_translation_invariance(self, shift, seed):
        events = random_trace(random.Random(seed), 60)
        shifted = [e._replace(ts_ms=e.ts_ms + shift) for e in events]
        a = segment_sessions(events_to_columns(events), CFG)
        b = segment_sessions(events_to_columns(shifted), CFG)
        assert [(s.event_count, s.num_breaks, s.num_backscrolls, s.active_ms) for s in a] == [
            (s.event_count, s.num_breaks, s.num_backscrolls, s.active_ms) for s in b
        ]
