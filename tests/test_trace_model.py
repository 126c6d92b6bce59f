"""Domain type validation."""

import importlib
import io
import json
import pickle
import pkgutil

import pytest

from helpers import Event, event_rows
import srltrace
from srltrace.ingest import parse_events
from srltrace.trace_model import DataError, InvalidConfig, QuizAttempt, SessionizerConfig


def event_line(ts_ms, scroll_y=0.0, page_height=None):
    fields = {"student_id": "s1", "object_id": "p1", "ts_ms": ts_ms, "scroll_y": scroll_y, "event": "scroll"}
    if page_height is not None:
        fields["page_height"] = page_height
    return io.StringIO(json.dumps(fields))


class TestScrollEvent:
    """A scroll event has no domain type; its values are checked where a line is parsed."""

    def test_valid(self):
        assert event_rows(parse_events(event_line(1000, 250.0, 2000.0))) == [
            Event("s1", "p1", 1000, 250.0, 2000.0, "scroll")
        ]

    def test_negative_ts_rejected(self):
        with pytest.raises(DataError, match=r"^line 1: ts_ms must be in \[0, 2\*\*63\), got -5$"):
            parse_events(event_line(-5))

    def test_scroll_beyond_page_height_rejected(self):
        with pytest.raises(DataError, match=r"^line 1: scroll_y 2001\.0 exceeds page_height 2000\.0$"):
            parse_events(event_line(0, 2001.0, 2000.0))


class TestQuizAttempt:
    def test_valid_properties(self):
        a = QuizAttempt("s1", "q1", 1, 0, 600_000, 70.0, 100.0)
        assert a.score_fraction == 0.7
        assert a.duration_mins == 10.0

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            QuizAttempt("s1", "q1", 1, 1000, 999, 70.0, 100.0)

    def test_score_above_max_rejected(self):
        with pytest.raises(ValueError):
            QuizAttempt("s1", "q1", 1, 0, 1, 101.0, 100.0)

    def test_nonpositive_max_score_rejected(self):
        with pytest.raises(ValueError):
            QuizAttempt("s1", "q1", 1, 0, 1, 0.0, 0.0)

    def test_attempt_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            QuizAttempt("s1", "q1", 0, 0, 1, 1.0, 100.0)


class TestSessionizerConfig:
    def test_defaults(self):
        cfg = SessionizerConfig()
        assert cfg.break_gap_ms == 300_000
        assert cfg.top_band_px == 50.0
        assert cfg.min_depth_px == 200.0
        assert cfg.backscroll_epsilon_px == 50.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            SessionizerConfig(break_gap_ms=0)


def _error_classes():
    """Every exception class the package defines."""
    modules = [importlib.import_module(f"srltrace.{m.name}") for m in pkgutil.iter_modules(srltrace.__path__)]
    return {obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__.startswith("srltrace.")}


def test_error_classes_are_the_two_exit_codes():
    assert _error_classes() == {DataError, InvalidConfig}
    # The package root exports them and nothing else; the rest is imported from its modules.
    assert srltrace.__all__ == ["DataError", "InvalidConfig"]


@pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_error_survives_a_pickle_round_trip(error):
    # compare's forked branch sends the error it raised back pickled
    back = pickle.loads(pickle.dumps(error("line 3: bad")))
    assert (type(back), str(back)) == (error, "line 3: bad")
