"""Parsing, store construction, and store serialization round-trips."""

import hashlib
import io
import json
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import Event, event_rows, naive_normalize, parse_events_per_line, random_store, random_store_inputs, whole
from srltrace import ingest
from srltrace.ingest import (
    ATTEMPTS_HEADER,
    build_store,
    events_to_columns,
    load_store,
    normalize_events,
    parse_attempts,
    parse_events,
    save_store,
    write_trace_files,
)
from srltrace.trace_model import DataError, QuizAttempt

VALID_LINE = '{"student_id":"s1","object_id":"p1","ts_ms":1000,"scroll_y":0,"event":"scroll"}'
# Characters `str.strip()` removes that JSON does not count as whitespace.
_NON_JSON_SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]


class TestParseEvents:
    def test_direct_field_mapping(self):
        events = parse_events(io.StringIO(VALID_LINE))
        assert event_rows(events) == [Event("s1", "p1", 1000, 0.0, None, "scroll")]
        assert event_rows(events)[0][4] is None

    def test_empty_stream(self):
        assert event_rows(parse_events(io.StringIO(""))) == []

    def test_blank_lines_skipped(self):
        assert len(parse_events(io.StringIO(f"\n \t\r\n{VALID_LINE}\n\n"))) == 1

    @pytest.mark.parametrize("space", _NON_JSON_SPACES, ids=ascii)
    def test_line_of_non_json_whitespace_reports_line(self, space):
        stream = io.StringIO(f"{VALID_LINE}\n{space}\n{VALID_LINE}\n")
        with pytest.raises(DataError, match=r"^line 2: invalid JSON: Expecting value$"):
            parse_events(stream)

    @pytest.mark.parametrize("space", _NON_JSON_SPACES, ids=ascii)
    def test_object_followed_by_non_json_whitespace_reports_line(self, space):
        text = f"{VALID_LINE}\n{VALID_LINE}{space}\n"
        for parse in (parse_events, parse_events_per_line):
            assert _parse_outcome(parse, text) == ("error", "line 2: invalid JSON: Extra data")

    def test_line_with_leading_space_inside_a_chunk_parses(self):
        lines = [VALID_LINE.replace("1000", str(1000 + i)) for i in range(300)]
        lines[149] = " " + lines[149]
        text = "\n".join(lines) + "\n"
        assert parse_events(io.StringIO(text)).ts_ms.tolist() == list(range(1000, 1300))
        assert _parse_outcome(parse_events, text) == _parse_outcome(parse_events_per_line, text)

    def test_negative_ts_reports_line(self):
        stream = io.StringIO(VALID_LINE + "\n" + VALID_LINE.replace("1000", "-5"))
        with pytest.raises(DataError, match=whole("line 2: ts_ms must be in [0, 2**63), got -5")):
            parse_events(stream)

    def test_carriage_return_in_student_id_reports_line(self):
        stream = io.StringIO(VALID_LINE + "\n" + VALID_LINE.replace('"s1"', '"s\\r1"'))
        with pytest.raises(DataError, match=whole(f"line 2: field 'student_id' {ingest._NO_CR}")):
            parse_events(stream)

    def test_invalid_json(self):
        message = "line 1: invalid JSON: Expecting property name enclosed in double quotes"
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_events(io.StringIO("{not json"))

    def test_missing_required_field(self):
        with pytest.raises(DataError, match="^line 1: field 'student_id' missing or not a string$"):
            parse_events(io.StringIO('{"object_id":"p1","ts_ms":1,"scroll_y":0}'))

    def test_boolean_ts_rejected(self):
        line = '{"student_id":"s1","object_id":"p1","ts_ms":true,"scroll_y":0}'
        with pytest.raises(DataError, match="^line 1: field 'ts_ms' missing or not an integer$"):
            parse_events(io.StringIO(line))

    def test_scroll_beyond_page_height(self):
        line = '{"student_id":"s1","object_id":"p1","ts_ms":1,"scroll_y":900,"page_height":800}'
        with pytest.raises(DataError, match=r"^line 1: scroll_y 900\.0 exceeds page_height 800\.0$"):
            parse_events(io.StringIO(line))

    def test_scroll_at_page_height_accepted(self):
        line = VALID_LINE.replace('"scroll_y":0', '"scroll_y":2000,"page_height":2000')
        assert parse_events(io.StringIO(line)).scroll_y.tolist() == [2000.0]

    @pytest.mark.parametrize("fields, reason", [
        ('"scroll_y":-1', "scroll_y must be >= 0, got -1.0"),
        ('"scroll_y":0,"page_height":0', "page_height must be > 0, got 0.0"),
        ('"scroll_y":0,"event":"click"', "kind must be one of ('scroll', 'pageload'), got 'click'"),
    ], ids=["negative-scroll_y", "zero-page_height", "unknown-kind"])
    def test_out_of_range_value_reports_line_and_reason(self, fields, reason):
        line = VALID_LINE.replace('"scroll_y":0,"event":"scroll"', fields)
        with pytest.raises(DataError, match=whole(f"line 1: {reason}")):
            parse_events(io.StringIO(line))

    def test_unknown_fields_ignored(self):
        line = VALID_LINE[:-1] + ',"extra":42}'
        assert len(parse_events(io.StringIO(line))) == 1

    @pytest.mark.parametrize("value", ["NaN", "1e400"])
    def test_non_finite_scroll_y_reports_line(self, value):
        stream = io.StringIO(VALID_LINE + "\n" + VALID_LINE.replace('"scroll_y":0', f'"scroll_y":{value}'))
        with pytest.raises(DataError, match="^line 2: field 'scroll_y' missing or not a finite number$"):
            parse_events(stream)

    def test_ts_beyond_int64_reports_line(self):
        stream = io.StringIO(VALID_LINE + "\n" + VALID_LINE.replace("1000", str(2**63)))
        with pytest.raises(DataError, match=whole(f"line 2: ts_ms must be in [0, 2**63), got {2**63}")):
            parse_events(stream)

    def test_parse_holds_at_most_one_chunk_of_lines(self):
        def lines():
            yield VALID_LINE
            yield "{not json"
            for _ in range(2 * ingest.CHUNK_LINES - 2):
                yield VALID_LINE
            pytest.fail("parse_events read past two chunks of lines")

        message = "line 2: invalid JSON: Expecting property name enclosed in double quotes"
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_events(lines())


def _parse_outcome(parse, text):
    """What a parser makes of `text`: the error's message, or the columns' bytes and tables."""
    try:
        cols = parse(io.StringIO(text))
    except DataError as exc:
        return "error", str(exc)
    return "ok", cols.students, cols.objects, [
        (getattr(cols, name).dtype.str, getattr(cols, name).tobytes()) for name in ingest._COLUMN_DTYPES
    ]


# JSON tokens per field: values `_parse_line` accepts, and values it rejects.
_FLOAT_MAX_PLUS_ONE = str(int(sys.float_info.max) + 1)  # rejected, though float64 rounds it to the maximum
_GOOD_NUMBERS = ["0", "0.0", "-0.0", "3", "12.5", "5e-324", "1e-05", "1e16", repr(sys.float_info.max)]
_BAD_NUMBERS = ["-1", "-0.5", "NaN", "Infinity", "-Infinity", "1e400", "-1e400", _FLOAT_MAX_PLUS_ONE,
                "true", "false", "null", '"3"', "[]", "{}"]
_TOKENS = {
    "student_id": (['"s1"', '"s2"', '"s10"', '"p\\u00e9"', '"\\ud800"', '""'], ["1", "null", '["s1"]', "true", "{}"]),
    "object_id": (['"p1"', '"p2"', '"a\\"b\\\\c"'], ["2", "null", "[]", "false"]),
    "ts_ms": (["0", "7", "1000", str(2**63 - 1)], ["-1", str(2**63), "true", "false", "1.0", "null", '"5"', "1e3"]),
    "scroll_y": (_GOOD_NUMBERS, _BAD_NUMBERS),
    "page_height": (["900", "12.5", "1e16", repr(sys.float_info.max)], _BAD_NUMBERS + ["0", "-0.0", "2"]),
    "event": (['"scroll"', '"pageload"'], ['"click"', '"Scroll"', "[]", "{}", '["scroll"]', "null", "1"]),
}


@st.composite
def _object_line(draw, bad: bool):
    """An event object as text, fields in any order and the optional ones sometimes absent.

    A bad line has one field changed: absent, of a rejected value, repeated with
    another value (the last one counts), or beside an unknown field.
    """
    pairs = [(key, draw(st.sampled_from(good))) for key, (good, _) in _TOKENS.items()]
    pairs = [pair for pair in pairs if pair[0] not in ("page_height", "event") or draw(st.booleans())]
    if bad:
        i = draw(st.integers(0, len(pairs) - 1))
        key, (good, rejected) = pairs[i][0], _TOKENS[pairs[i][0]]
        change = draw(st.sampled_from(["value", "value", "absent", "repeat", "extra"]))
        if change == "value":
            pairs[i] = (key, draw(st.sampled_from(rejected)))
        elif change == "absent":
            del pairs[i]
        elif change == "repeat":
            pairs.append((key, draw(st.sampled_from(good + rejected))))
        else:
            pairs.append(("extra", '[1, {"x": NaN}]'))
    return "{" + ",".join(f'"{key}":{token}' for key, token in draw(st.permutations(pairs))) + "}"


# What may stand before and after an event object on its line: JSON whitespace
# (accepted), other whitespace, a byte order mark, or another character (rejected).
_LEADS = ["", " ", "\t", "\r", "  \t", "\ufeff", "\x0c"]
_TAILS = ["", " ", "\t", "\r", " \r\t", "x", " x", "}", "{}", *_NON_JSON_SPACES]


@st.composite
def _event_file(draw):
    """Event lines, mostly good; a padding of good lines puts the rest at or near the chunk boundary."""
    lines = [VALID_LINE] * draw(st.sampled_from([0, 0, ingest.CHUNK_LINES - 2, ingest.CHUNK_LINES - 1]))
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.integers(0, 20))
        if shape < 11:
            lines.append(draw(_object_line(bad=False)))
        elif shape < 16:
            lines.append(draw(_object_line(bad=True)))
        elif shape == 16:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r", " \t\r"] + _NON_JSON_SPACES)))
        elif shape == 17:
            lines.append(draw(st.sampled_from(["[]", "1", '"s1"', "null", "[{}]", " []", "1 ", "[1]x"])))
        elif shape == 18:
            sep = draw(st.sampled_from(["", ",", " "]))
            lines.append(draw(_object_line(bad=False)) + sep + draw(_object_line(bad=False)))
        elif shape == 19:
            line = draw(_object_line(bad=False))
            cut = draw(st.integers(1, len(line) - 1))
            lines += [line[:cut], line[cut:]]
        else:
            lines.append(draw(st.sampled_from(_LEADS)) + draw(_object_line(bad=False)) + draw(st.sampled_from(_TAILS)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


_SPLIT_ACROSS_ELEMENTS = "\n".join([
    '{"student_id":"s","object_id":"o","ts_ms":1,"scroll_y":0.0,"x":[{}',
    "{}]}",
    VALID_LINE + "," + VALID_LINE,
])


@settings(max_examples=300, deadline=None)
@given(text=_event_file())
@example(text=_SPLIT_ACROSS_ELEMENTS)
@example(text=f" {VALID_LINE}\n\t{VALID_LINE}")
@example(text=f"{VALID_LINE} \t\r\n{VALID_LINE}\r")
@example(text="\ufeff" + VALID_LINE)
@example(text=f"{VALID_LINE}\n{VALID_LINE}{VALID_LINE}")
@example(text=f"{VALID_LINE}\n{VALID_LINE} {VALID_LINE}")
@example(text=f"{VALID_LINE}\n1\n")
@example(text=f"{VALID_LINE}\n[{VALID_LINE}]\n")
@example(text=f"{VALID_LINE}\n{VALID_LINE}x")
@example(text="\n".join([VALID_LINE] * (ingest.CHUNK_LINES - 1) + ['{"student_id":"s1"}', "", VALID_LINE]))
@example(text=VALID_LINE + "\n" + VALID_LINE.replace("1000", "-1"))
@example(text=VALID_LINE.replace("1000", str(2**63)))
@example(text=VALID_LINE.replace('"scroll_y":0', f'"scroll_y":{_FLOAT_MAX_PLUS_ONE}'))
@example(text=VALID_LINE.replace('"scroll_y":0', f'"scroll_y":{sys.float_info.max!r}'))
@example(text=VALID_LINE.replace('"scroll_y":0', '"scroll_y":0,"page_height":null'))
@example(text=VALID_LINE + "\n" + VALID_LINE.replace('"event":"scroll"', '"event":"click"'))
@example(text=VALID_LINE.replace('"event":"scroll"', '"event":["scroll"]'))
@example(text=VALID_LINE + "\n" + VALID_LINE.replace('"scroll_y":0', '"scroll_y":1,"page_height":NaN'))
def test_chunked_parse_matches_the_per_line_parse(text):
    assert _parse_outcome(parse_events, text) == _parse_outcome(parse_events_per_line, text)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


_ID_TEXT = st.text(st.characters() | st.sampled_from(["\x00", "\ud800", "\udfff", '"', "\\", "é", "\U0001f600"]))
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e16, 1e-05])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_ID_TEXT, _ID_TEXT, st.integers(-(2**63), 2**63 - 1), _FINITE,
                               st.none() | _FINITE, st.sampled_from(["scroll", "pageload"])), max_size=6))
def test_event_json_line_is_json_dumps(out_dir, rows):
    expected = []
    for sid, oid, ts, y, height, kind in rows:
        obj = {"student_id": sid, "object_id": oid, "ts_ms": ts, "scroll_y": y}
        if height is not None:
            obj["page_height"] = height
        obj["event"] = kind
        expected.append(json.dumps(obj, separators=(",", ":")) + "\n")
    write_trace_files(out_dir, events_to_columns(rows), [])
    with open(out_dir / "events.jsonl", encoding="utf-8", newline="") as fh:
        assert fh.read() == "".join(expected)


class TestParseAttempts:
    def test_direct_mapping(self):
        text = ATTEMPTS_HEADER + "\ns1,q1,1,0,600000,70,100\n"
        attempts = parse_attempts(io.StringIO(text))
        assert attempts == [QuizAttempt("s1", "q1", 1, 0, 600_000, 70.0, 100.0)]
        assert attempts[0].duration_mins == 10.0

    def test_header_only(self):
        assert parse_attempts(io.StringIO(ATTEMPTS_HEADER + "\n")) == []

    def test_bad_header(self):
        with pytest.raises(DataError, match=whole(f"line 1: bad header, expected {ATTEMPTS_HEADER!r}")):
            parse_attempts(io.StringIO("a,b,c\n"))

    def test_end_before_start_reports_line(self):
        text = ATTEMPTS_HEADER + "\ns1,q1,1,600000,0,70,100\n"
        with pytest.raises(DataError, match="^line 2: end_ts_ms 0 before start_ts_ms 600000$"):
            parse_attempts(io.StringIO(text))

    def test_score_above_max(self):
        text = ATTEMPTS_HEADER + "\ns1,q1,1,0,1,110,100\n"
        with pytest.raises(DataError, match=r"^line 2: score 110\.0 exceeds max_score 100\.0$"):
            parse_attempts(io.StringIO(text))

    def test_wrong_field_count(self):
        text = ATTEMPTS_HEADER + "\ns1,q1,1,0,1\n"
        with pytest.raises(DataError, match="^line 2: expected 7 fields, got 5$"):
            parse_attempts(io.StringIO(text))

    def test_record_after_a_two_line_field_reports_its_line(self):
        text = ATTEMPTS_HEADER + '\n"s\n1",q1,1,0,10,1,2\nbad,row\n'
        with pytest.raises(DataError, match=whole("line 4: expected 7 fields, got 2")):
            parse_attempts(io.StringIO(text))

    @pytest.mark.parametrize("ids, name", [('"s\r1",q1', "student_id"), ('s1,"q\r1"', "quiz_id")],
                             ids=["student_id", "quiz_id"])
    def test_carriage_return_in_id_reports_line(self, ids, name):
        text = ATTEMPTS_HEADER + f"\ns1,q1,1,0,1,70,100\n{ids},1,0,1,70,100\n"
        with pytest.raises(DataError, match=whole(f"line 3: field {name!r} {ingest._NO_CR}")):
            parse_attempts(io.StringIO(text))

    @pytest.mark.parametrize("fields, name", [
        ("1_0,0,1,70,100", "attempt_index"),
        ("\u0661,0,1,70,100", "attempt_index"),
        (" 1 ,0,1,70,100", "attempt_index"),
        ("1,0_0,1,70,100", "start_ts_ms"),
        ("1,0,+1,70,100", "end_ts_ms"),
        ("1,0,1,7_0,100", "score"),
        ("1,0,1,70,.5e3", "max_score"),
        ("1,0,1,70, 100", "max_score"),
    ], ids=["underscore-index", "arabic-indic-index", "spaced-index", "underscore-start", "plus-end",
            "underscore-score", "bare-fraction-max", "spaced-max"])
    def test_loose_number_reports_line(self, fields, name):
        text = ATTEMPTS_HEADER + f"\ns1,q1,1,0,1,70,100\ns1,q2,{fields}\n"
        value = fields.split(",")[ATTEMPTS_HEADER.split(",").index(name) - 2]
        with pytest.raises(DataError, match=whole(f"line 3: field {name!r} is not a plain number: {value!r}")):
            parse_attempts(io.StringIO(text))

    @pytest.mark.parametrize("score, max_score", [("70", "100"), ("-0", "1E2"), ("0.5", "1e+2"), ("7e-1", "100.0")])
    def test_json_numbers_accepted(self, score, max_score):
        text = ATTEMPTS_HEADER + f"\ns1,q1,007,-0,1,{score},{max_score}\n"
        [att] = parse_attempts(io.StringIO(text))
        assert (att.attempt_index, att.start_ts_ms, att.score, att.max_score) == (7, 0, float(score), 100.0)

    @pytest.mark.parametrize("fields, reason", [
        ("5,9,70,nan", "field 'max_score' is not a plain number: 'nan'"),
        ("5,9,nan,100", "field 'score' is not a plain number: 'nan'"),
        ("5,9,70,inf", "field 'max_score' is not a plain number: 'inf'"),
        ("5,9,1e400,1e400", "score and max_score must be finite numbers"),
        (f"5,{10**400},70,100", "start_ts_ms and end_ts_ms must be in [0, 2**63)"),
    ], ids=["nan-max", "nan-score", "inf-max", "inf-both", "end-beyond-int64"])
    def test_out_of_range_number_reports_line(self, fields, reason):
        text = ATTEMPTS_HEADER + f"\ns1,q1,1,0,1,70,100\ns1,q1,2,{fields}\n"
        with pytest.raises(DataError, match=whole(f"line 3: {reason}")):
            parse_attempts(io.StringIO(text))


def _ev(ts, y=0.0, sid="s1", obj="p1", kind="scroll", height=None):
    return Event(sid, obj, ts, y, height, kind)


def _att(idx, start, end=None, sid="s1", qid="q1", score=70.0):
    return QuizAttempt(sid, qid, idx, start, end if end is not None else start + 60_000, score, 100.0)


def _normalized(events):
    return event_rows(normalize_events(events_to_columns(events)))


class TestNormalizeEvents:
    def test_empty(self):
        assert _normalized([]) == []

    def test_exact_duplicates_collapse(self):
        e = _ev(10, 100.0)
        assert _normalized([e, e]) == [tuple(e)]

    def test_sorts_by_timestamp(self):
        events = [_ev(30), _ev(10), _ev(20)]
        assert normalize_events(events_to_columns(events)).ts_ms.tolist() == [10, 20, 30]

    def test_near_duplicates_kept_ordered_by_scroll(self):
        events = [_ev(10, 200.0), _ev(10, 100.0)]
        assert normalize_events(events_to_columns(events)).scroll_y.tolist() == [100.0, 200.0]

    def test_input_not_mutated(self):
        cols = events_to_columns([_ev(30), _ev(10)])
        normalize_events(cols)
        assert cols.ts_ms.tolist() == [30, 10]

    @given(
        st.lists(
            st.builds(
                _ev,
                ts=st.integers(min_value=0, max_value=10_000),
                y=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                sid=st.sampled_from(["s1", "s2"]),
                obj=st.sampled_from(["p1", "p2"]),
            ),
            max_size=30,
        )
    )
    def test_idempotent_and_preserves_distinct_events(self, events):
        once = normalize_events(events_to_columns(events))
        assert normalize_events(once) == once
        assert len(once) <= len(events)
        assert set(event_rows(once)) == set(map(tuple, events))


@st.composite
def _event_lists(draw):
    """Events from small pools, some repeated, in any order: equal keys and duplicates are common."""
    event = st.builds(
        _ev,
        ts=st.integers(min_value=0, max_value=3),
        y=st.sampled_from([0.0, -0.0, 10.0, 50.0]),
        sid=st.sampled_from(["s1", "s2", "s10"]),
        obj=st.sampled_from(["p1", "p2", "p10"]),
        kind=st.sampled_from(["scroll", "pageload"]),
        height=st.sampled_from([None, 50.0, 60.0]),
    )
    events = draw(st.lists(event, max_size=40))
    repeats = draw(st.lists(st.sampled_from(events), max_size=10)) if events else []
    return draw(st.permutations(events + repeats))


@settings(max_examples=300, deadline=None)
@given(events=_event_lists())
@example(events=[_ev(10, sid="s2"), _ev(10, sid="s10"), _ev(10, sid="s2"), _ev(10, sid="s10"), _ev(10, sid="s2")])
@example(events=[_ev(10, -0.0), _ev(10, 0.0)])
@example(events=[_ev(10, 0.0), _ev(10, -0.0)])
@example(events=[_ev(10, height=900.0), _ev(10)])
@example(events=[_ev(10), _ev(10, kind="pageload")])
def test_normalize_events_matches_the_object_sort(events):
    # repr tells -0.0 from 0.0, so the kept one of two equal rows must match too.
    assert repr(_normalized(events)) == repr([tuple(ev) for ev in naive_normalize(events)])


OVERLAP_MESSAGE = "(s1, q1): attempt 2 must start after attempt 1 starts and not before it ends"


class TestBuildStore:
    def test_events_sorted_per_student(self):
        store = build_store(events_to_columns([_ev(30), _ev(10), _ev(20)]), [_att(1, 100)])
        assert store.events_for("s1").ts_ms.tolist() == [10, 20, 30]

    def test_attempt_gap_rejected(self):
        with pytest.raises(DataError, match=whole("(s1, q1): attempt_index sequence [1, 3] is not dense 1..k")):
            build_store(events_to_columns([]), [_att(1, 100), _att(3, 200)])

    def test_duplicate_index_rejected(self):
        with pytest.raises(DataError, match=whole("(s1, q1): attempt_index sequence [1, 1] is not dense 1..k")):
            build_store(events_to_columns([]), [_att(1, 100), _att(1, 200)])

    def test_nonincreasing_starts_rejected(self):
        with pytest.raises(DataError, match=whole(OVERLAP_MESSAGE)):
            build_store(events_to_columns([]), [_att(1, 200), _att(2, 100)])

    def test_overlapping_attempts_rejected(self):
        with pytest.raises(DataError, match=whole(OVERLAP_MESSAGE)):
            build_store(events_to_columns([]), [_att(1, 100, 500), _att(2, 400)])

    def test_start_at_previous_end_permitted(self):
        store = build_store(events_to_columns([]), [_att(1, 100, 500), _att(2, 500)])
        assert store.n_attempts == 2

    def test_student_without_events_permitted(self):
        store = build_store(events_to_columns([]), [_att(1, 100)])
        assert len(store.events_for("s1")) == 0
        assert store.n_attempts == 1

    def test_course_start_is_min_timestamp(self):
        store = build_store(events_to_columns([_ev(50)]), [_att(1, 20)])
        assert store.course_start_ts_ms == 20

    def test_empty_store_course_start_zero(self):
        assert build_store(events_to_columns([]), []).course_start_ts_ms == 0


class TestStoreRoundTrip:
    def test_save_load_identity(self, tmp_path):
        store = random_store(random.Random(3))
        save_store(store, tmp_path / "store")
        again = load_store(tmp_path / "store")
        assert again == store

    def test_serialization_deterministic(self, tmp_path):
        rng = random.Random(4)
        events, attempts = random_store_inputs(rng)
        store = build_store(events_to_columns(events), attempts)
        save_store(store, tmp_path / "a")
        # Same multiset of inputs in a different order must serialize identically.
        shuffled_events = list(events)
        shuffled_attempts = list(attempts)
        random.Random(9).shuffle(shuffled_events)
        random.Random(9).shuffle(shuffled_attempts)
        save_store(build_store(events_to_columns(shuffled_events), shuffled_attempts), tmp_path / "b")
        for name in ("events.jsonl", "attempts.csv", "manifest.json", *ingest.COLUMN_FILES):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _rehash(store_dir):
    """Recompute every hash in the manifest, as a writer that skips ingest's checks would."""
    path = store_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for name in manifest["files"]:
        manifest["files"][name] = hashlib.sha256((store_dir / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestColumnarStore:
    @pytest.fixture
    def saved(self, tmp_path):
        store = random_store(random.Random(5))
        save_store(store, tmp_path / "store")
        return store, tmp_path / "store"

    def test_manifest_lists_every_file_with_its_hash(self, saved):
        store, d = saved
        manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["format_version"] == ingest.STORE_FORMAT_VERSION
        assert manifest["counts"]["events"] == store.n_events
        assert manifest["counts"]["attempts"] == store.n_attempts
        assert set(manifest["files"]) == {"events.jsonl", "attempts.csv", *ingest.COLUMN_FILES}
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((d / name).read_bytes()).hexdigest() == digest

    def test_load_does_no_parsing(self, saved, monkeypatch):
        store, d = saved

        def refuse(*args, **kwargs):
            raise AssertionError("load_store parsed an event")

        monkeypatch.setattr(ingest, "parse_events", refuse)
        assert load_store(d) == store

    def test_parsed_file_stores_as_its_rows_do(self, tmp_path):
        events, attempts = random_store_inputs(random.Random(6))
        cols = events_to_columns(events)
        write_trace_files(tmp_path / "raw", cols, attempts)
        expected = build_store(cols, attempts)
        with open(tmp_path / "raw" / "events.jsonl", encoding="utf-8") as fh:
            store = build_store(parse_events(fh), attempts)
        save_store(store, tmp_path / "store")
        assert store == expected
        assert load_store(tmp_path / "store") == expected

    def test_unsorted_within_student_rejected_after_rehash(self, tmp_path):
        d = tmp_path / "store"
        save_store(build_store(events_to_columns([_ev(10), _ev(20), _ev(30), _ev(5, sid="s2")]), [_att(1, 100)]), d)
        ts = np.load(d / "events.ts_ms.npy")
        assert ts.tolist() == [10, 20, 30, 5]
        ts[:2] = [20, 10]
        np.save(d / "events.ts_ms.npy", ts, allow_pickle=False)
        _rehash(d)
        message = (f"{d / 'events.ts_ms.npy'}: event 2 (student 's1', ts_ms 10) sorts before"
                   " event 1 (student 's1', ts_ms 20)")
        with pytest.raises(DataError, match=whole(message)):
            load_store(d)

    def test_code_out_of_range_rejected_after_rehash(self, saved):
        _, d = saved
        codes = np.load(d / "events.object_code.npy")
        codes[-1] = 10_000
        np.save(d / "events.object_code.npy", codes, allow_pickle=False)
        _rehash(d)
        with pytest.raises(DataError, match="events.object_code.npy"):
            load_store(d)

    def test_ids_with_trailing_nul_round_trip(self, tmp_path):
        store = build_store(events_to_columns([Event("s1\x00", "p1\x00", 5, 1.0)]), [_att(1, 100, sid="s1\x00")])
        save_store(store, tmp_path / "store")
        assert load_store(tmp_path / "store") == store
