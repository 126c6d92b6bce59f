"""Parsing of raw event/attempt files, and the columnar, hash-checked store they are indexed into."""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .trace_model import MAX_TS_MS, DataError, QuizAttempt, format_number, in_file, is_finite_number

ATTEMPTS_HEADER = "student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score"
_ATTEMPT_FIELDS = ATTEMPTS_HEADER.split(",")
# Numbers in both CSV inputs, attempts and features: ASCII integers, the others in JSON's number grammar.
PLAIN_INTEGER = re.compile(r"-?[0-9]+")
JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_NUMBER_PATTERNS = (PLAIN_INTEGER,) * 3 + (JSON_NUMBER,) * 2  # the numeric attempt fields
# Why a student or quiz id may not hold "\r": csv.writer writes it unquoted, so no output row could hold it.
_NO_CR = "holds a carriage return, which the CSV files srltrace writes cannot hold"
EVENT_KINDS = ("scroll", "pageload")
_PAGELOAD = {kind: kind == "pageload" for kind in EVENT_KINDS}
_KIND_JSON = ('"scroll"', '"pageload"')  # indexed by the pageload flag
_NUMBER_TYPES = {int, float}
_NO_HEIGHT = object()  # what `_checked_chunk` reads from a line without a page_height
_JSON_SPACE = " \t\r\n"  # the whitespace json.loads skips around a value; str.strip() skips more
_scan_once = json.JSONDecoder().scan_once  # the C scanner json.loads calls, without its two Python frames
_FLOAT_MAX = sys.float_info.max
# Event lines are parsed, and event rows coded and written, this many at a time. The
# memory a chunk's Python objects took stays resident: the `ingest` stage's peak RSS
# (CPython 3.11) rose 0.4-0.8 MB over a line-at-a-time parse with 1,024 lines, 0.2-0.3 MB
# with 512, and not at all with 256, at no measurable cost in time.
CHUNK_LINES = 256

EVENTS_FILENAME = "events.jsonl"
ATTEMPTS_FILENAME = "attempts.csv"
MANIFEST_FILENAME = "manifest.json"

# The store layout `load_store` reads; a manifest without this version predates the columns.
STORE_FORMAT_VERSION = 2
# dtype of each event column, saved as events.<name>.npy
_COLUMN_DTYPES = {
    "ts_ms": np.dtype(np.int64),
    "scroll_y": np.dtype(np.float64),
    "page_height": np.dtype(np.float64),
    "pageload": np.dtype(np.bool_),
    "student_code": np.dtype(np.int32),
    "object_code": np.dtype(np.int32),
}
# JSON, not .npy: NumPy's fixed-width strings drop an id's trailing NUL characters.
TABLES_FILENAME = "events.tables.json"
COLUMN_FILES = (*(f"events.{name}.npy" for name in _COLUMN_DTYPES), TABLES_FILENAME)


def _require_number(obj: dict, key: str, line_number: int) -> float:
    val = obj.get(key)
    if not is_finite_number(val):
        raise DataError(f"line {line_number}: field {key!r} missing or not a finite number")
    return float(val)


def _parse_line(line_number: int, line: str) -> tuple:
    """One event line as a row; the one place an event's fields and values are checked."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {line_number}: invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise DataError(f"line {line_number}: invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DataError(f"line {line_number}: line is not a JSON object")
    student_id = obj.get("student_id")
    object_id = obj.get("object_id")
    if not isinstance(student_id, str):
        raise DataError(f"line {line_number}: field 'student_id' missing or not a string")
    if not isinstance(object_id, str):
        raise DataError(f"line {line_number}: field 'object_id' missing or not a string")
    if "\r" in student_id:
        raise DataError(f"line {line_number}: field 'student_id' {_NO_CR}")
    ts_ms = obj.get("ts_ms")
    if isinstance(ts_ms, bool) or not isinstance(ts_ms, int):
        raise DataError(f"line {line_number}: field 'ts_ms' missing or not an integer")
    scroll_y = _require_number(obj, "scroll_y", line_number)
    page_height = _require_number(obj, "page_height", line_number) if "page_height" in obj else None
    kind = obj.get("event", "scroll")
    if not 0 <= ts_ms < MAX_TS_MS:
        raise DataError(f"line {line_number}: ts_ms must be in [0, 2**63), got {ts_ms}")
    if scroll_y < 0:
        raise DataError(f"line {line_number}: scroll_y must be >= 0, got {scroll_y}")
    if page_height is not None:
        if page_height <= 0:
            raise DataError(f"line {line_number}: page_height must be > 0, got {page_height}")
        if scroll_y > page_height:
            raise DataError(f"line {line_number}: scroll_y {scroll_y} exceeds page_height {page_height}")
    if kind not in EVENT_KINDS:
        raise DataError(f"line {line_number}: kind must be one of {EVENT_KINDS}, got {kind!r}")
    return student_id, object_id, ts_ms, scroll_y, page_height, kind


def _checked_chunk(lines: list[str]) -> tuple | None:
    """A chunk of event lines as one chunk for `_columns`, or None if any line may be malformed.

    Each line is decoded alone, as `json.loads` decodes a line that starts with its value,
    then `_parse_line`'s checks run over the chunk's columns. They are stricter only at
    leading whitespace and at a number of exactly the float maximum, which cost the
    per-line pass and nothing else.
    """
    try:
        # The fields of each line as it is decoded, so one line's dict is held at a time. A list
        # comprehension, not `map`: there the scanner's StopIteration would end the chunk early.
        rows = [
            (obj.get("student_id"), obj.get("object_id"), obj.get("ts_ms"), obj.get("scroll_y"),
             obj.get("page_height", _NO_HEIGHT), _PAGELOAD.get(obj.get("event", "scroll")))
            for line in lines
            for obj, end in (_scan_once(line, 0),)
            if not line[end:].strip(_JSON_SPACE)
        ]
    # No value at column 0, not JSON, not an object, an unhashable kind
    except (StopIteration, ValueError, RecursionError, AttributeError, TypeError):
        return None
    if len(rows) < len(lines):  # a line goes on past its value
        return None
    student_ids, object_ids, ts_ms, scroll_y, heights, pageload = zip(*rows)
    del rows  # frees the row tuples before the arrays are built
    absent = None
    if _NO_HEIGHT in heights:
        absent = np.array([h is _NO_HEIGHT for h in heights])
        heights = [math.nan if h is _NO_HEIGHT else h for h in heights]
    if not (
        set(map(type, student_ids)) == set(map(type, object_ids)) == {str}
        and "\r" not in "".join(set(student_ids))
        and set(map(type, ts_ms)) == {int} and 0 <= min(ts_ms) and max(ts_ms) < MAX_TS_MS
        and set(map(type, scroll_y)) <= _NUMBER_TYPES and set(map(type, heights)) <= _NUMBER_TYPES
        and None not in pageload
    ):
        return None
    try:
        scroll_y, heights = array("d", scroll_y), array("d", heights)
    except OverflowError:  # an int beyond float64
        return None
    y, h = np.frombuffer(scroll_y), np.frombuffer(heights)
    height_ok = (h > 0) & (h < _FLOAT_MAX) & (y <= h)
    if absent is not None:
        height_ok |= absent
    if not (((y >= 0) & (y < _FLOAT_MAX)).all() and height_ok.all()):
        return None
    return student_ids, object_ids, ts_ms, scroll_y, heights, pageload


def parse_events(stream: Iterable[str]) -> EventColumns:
    """The columns of a JSON Lines event stream, in file order; aborts on the first malformed line.

    Lines are read and checked a chunk at a time. A chunk that fails a check is parsed
    again line by line by `_parse_line`, so the first error keeps its line and reason.
    """
    return _columns(_checked_chunks(stream))


def _checked_chunks(stream: Iterable[str]) -> Iterator[tuple]:
    """The non-blank lines of each CHUNK_LINES lines of `stream`, as one chunk for `_columns`.

    A blank line holds only JSON whitespace; any other line must hold one event.
    """
    first = 1  # the line number of the chunk's first line; blank lines count
    for lines in _chunks(stream):
        events = [line for line in lines if line.strip(_JSON_SPACE)]
        if events:
            yield _checked_chunk(events) or _row_columns(
                [_parse_line(n, line) for n, line in enumerate(lines, start=first) if line.strip(_JSON_SPACE)]
            )
        first += len(lines)


def loose_number(names, values, patterns) -> str | None:
    """Why the first value that its pattern does not fully match is rejected, or None."""
    for name, value, pattern in zip(names, values, patterns):
        if not pattern.fullmatch(value):
            return f"field {name!r} is not a plain number: {value!r}"
    return None


def parse_attempts(stream: Iterable[str]) -> list[QuizAttempt]:
    """Parse the quiz attempts CSV, opened with newline=""; the header must match exactly."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("line 1: missing header row") from None
    if ",".join(header) != ATTEMPTS_HEADER:
        raise DataError(f"line 1: bad header, expected {ATTEMPTS_HEADER!r}")
    attempts: list[QuizAttempt] = []
    for row in reader:
        line_number = reader.line_num  # a quoted field may span lines
        if not row:
            continue
        if len(row) != 7:
            raise DataError(f"line {line_number}: expected 7 fields, got {len(row)}")
        for name, value in zip(_ATTEMPT_FIELDS[:2], row[:2]):
            if "\r" in value:
                raise DataError(f"line {line_number}: field {name!r} {_NO_CR}")
        loose = loose_number(_ATTEMPT_FIELDS[2:], row[2:], _NUMBER_PATTERNS)
        if loose:
            raise DataError(f"line {line_number}: {loose}")
        try:
            score, max_score = float(row[5]), float(row[6])
            if not is_finite_number(score) or not is_finite_number(max_score):
                raise ValueError("score and max_score must be finite numbers")
            # The fields in the order of ATTEMPTS_HEADER.
            attempts.append(QuizAttempt(row[0], row[1], int(row[2]), int(row[3]), int(row[4]), score, max_score))
        except ValueError as exc:
            raise DataError(f"line {line_number}: {exc}") from exc
    return attempts


@dataclass(frozen=True, eq=False)
class EventColumns:
    """Events as parallel arrays; a store's are sorted by `normalize_events`.

    `student_code` and `object_code` index the sorted `students` and `objects`
    tables; `page_height` is NaN where an event has none. Slicing gives views.
    """

    ts_ms: np.ndarray
    scroll_y: np.ndarray
    page_height: np.ndarray
    pageload: np.ndarray
    student_code: np.ndarray
    object_code: np.ndarray
    students: tuple[str, ...]
    objects: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ts_ms)

    def __getitem__(self, rows: slice | np.ndarray) -> "EventColumns":
        return EventColumns(*(getattr(self, c)[rows] for c in _COLUMN_DTYPES), self.students, self.objects)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return (self.students, self.objects) == (other.students, other.objects) and all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True) for c in _COLUMN_DTYPES
        )


def _check_sorted(cols: EventColumns) -> None:
    """Raise DataError unless student codes ascend and each student's ts_ms never decreases."""
    code, ts = cols.student_code, cols.ts_ms
    same = code[1:] == code[:-1]
    back = (code[1:] < code[:-1]) | (same & (ts[1:] < ts[:-1]))
    if back.any():
        i = int(back.argmax())
        raise DataError(
            f"event {i + 2} (student {cols.students[code[i + 1]]!r}, ts_ms {ts[i + 1]}) sorts before"
            f" event {i + 1} (student {cols.students[code[i]]!r}, ts_ms {ts[i]})"
        )


def _coded(codes: dict[str, int], first_seen: array) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted table of `codes`' strings, and `first_seen` codes mapped to their rank in it."""
    table = sorted(codes)
    rank = dict(zip(table, range(len(table))))
    return tuple(table), np.array([rank[s] for s in codes], dtype=np.int32)[np.array(first_seen, dtype=np.intp)]


def _chunks(items: Iterable) -> Iterator[list]:
    """`items` in lists of up to CHUNK_LINES, read as each list is asked for."""
    items = iter(items)
    while chunk := list(islice(items, CHUNK_LINES)):
        yield chunk


def _columns(chunks: Iterable[tuple]) -> EventColumns:
    """The columns of chunks of (student_ids, object_ids, ts_ms, scroll_y, page_height, pageload).

    They grow in typed arrays, and each id is coded when first seen.
    """
    student_codes: dict[str, int] = {}
    object_codes: dict[str, int] = {}
    students, objects = array("q"), array("q")
    ts_ms, scroll_y, page_height, pageload = array("q"), array("d"), array("d"), array("b")
    for student_ids, object_ids, *values in chunks:
        for codes, ids, out in ((student_codes, student_ids, students), (object_codes, object_ids, objects)):
            for new in dict.fromkeys(ids):
                codes.setdefault(new, len(codes))
            out.extend(map(codes.__getitem__, ids))
        for out, chunk in zip((ts_ms, scroll_y, page_height, pageload), values):
            out.extend(chunk)
    student_table, student_code = _coded(student_codes, students)
    object_table, object_code = _coded(object_codes, objects)
    return EventColumns(
        np.array(ts_ms, dtype=np.int64), np.array(scroll_y), np.array(page_height), np.array(pageload, dtype=np.bool_),
        student_code, object_code, student_table, object_table,
    )


def _row_columns(rows: list[tuple]) -> tuple:
    """Event rows as one chunk for `_columns`; page_height None becomes NaN."""
    student_ids, object_ids, ts_ms, scroll_y, heights, kinds = zip(*rows)
    heights = [math.nan if h is None else h for h in heights]
    return student_ids, object_ids, ts_ms, array("d", scroll_y), array("d", heights), [k == "pageload" for k in kinds]


def events_to_columns(rows: Iterable[tuple]) -> EventColumns:
    """The columns of event rows (student_id, object_id, ts_ms, scroll_y, page_height, kind), in their order.

    Rows are coded a chunk at a time, so few of them are held at once.
    """
    return _columns(map(_row_columns, _chunks(rows)))


def normalize_events(cols: EventColumns) -> EventColumns:
    """Sort by student, ts_ms, object, scroll_y, pageload before scroll, then page height
    (none as -1), and drop rows equal to their predecessor in every column.

    Near-duplicates (same time, different scroll_y) are kept. Idempotent; the input is not mutated.
    """
    keys = (
        cols.student_code, cols.ts_ms, cols.object_code, cols.scroll_y, ~cols.pageload,
        np.where(np.isnan(cols.page_height), -1.0, cols.page_height),
    )
    order = np.lexsort(keys[::-1])
    repeat = np.arange(len(order)) > 0
    for key in keys:
        key = key[order]
        repeat[1:] &= key[1:] == key[:-1]
    return cols[order[~repeat]]


@dataclass(frozen=True)
class TraceStore:
    """Immutable indexed view over normalized event columns and validated attempts."""

    events: EventColumns
    attempts_by_key: dict[tuple[str, str], tuple[QuizAttempt, ...]]
    course_start_ts_ms: int
    _by_student: dict[str, EventColumns] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cols = self.events
        edges = np.searchsorted(cols.student_code, np.arange(len(cols.students) + 1)).tolist()
        by_student = {sid: cols[edges[i]:edges[i + 1]] for i, sid in enumerate(cols.students)}
        object.__setattr__(self, "_by_student", by_student)

    def events_for(self, student_id: str) -> EventColumns:
        found = self._by_student.get(student_id)
        return self.events[:0] if found is None else found

    def attempts_for(self, student_id: str, quiz_id: str) -> tuple[QuizAttempt, ...]:
        return self.attempts_by_key.get((student_id, quiz_id), ())

    def all_attempts(self) -> list[QuizAttempt]:
        out: list[QuizAttempt] = []
        for key in sorted(self.attempts_by_key):
            out.extend(self.attempts_by_key[key])
        return out

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_attempts(self) -> int:
        return sum(len(v) for v in self.attempts_by_key.values())


def _index_store(events: EventColumns, attempts: list[QuizAttempt]) -> TraceStore:
    """Index attempts by (student, quiz); rejects inconsistent or overlapping attempt sequences."""
    by_key: dict[tuple[str, str], list[QuizAttempt]] = {}
    for att in attempts:
        by_key.setdefault((att.student_id, att.quiz_id), []).append(att)
    for (sid, qid), group in by_key.items():
        group.sort(key=lambda a: a.attempt_index)
        indices = [a.attempt_index for a in group]
        if indices != list(range(1, len(group) + 1)):
            raise DataError(f"({sid}, {qid}): attempt_index sequence {indices} is not dense 1..k")
        for prev, cur in zip(group, group[1:]):
            if cur.start_ts_ms <= prev.start_ts_ms or cur.start_ts_ms < prev.end_ts_ms:
                raise DataError(
                    f"({sid}, {qid}): attempt {cur.attempt_index} must start after attempt"
                    f" {prev.attempt_index} starts and not before it ends"
                )

    starts = [a.start_ts_ms for a in attempts]
    if len(events):
        starts.append(int(events.ts_ms.min()))
    return TraceStore(
        events=events,
        attempts_by_key={key: tuple(group) for key, group in by_key.items()},
        course_start_ts_ms=min(starts, default=0),
    )


def build_store(events: EventColumns, attempts: list[QuizAttempt]) -> TraceStore:
    """Normalize and index inputs; rejects inconsistent or overlapping attempt sequences."""
    return _index_store(normalize_events(events), attempts)


def _write_event_lines(fh, cols: EventColumns) -> None:
    """Write each event as `json.dumps` writes its fields with separators (",", ":"), one string a chunk.

    Each table entry is encoded once; an event without a page height has no page_height field.
    """
    students = [encode_basestring_ascii(s) for s in cols.students]
    objects = [encode_basestring_ascii(o) for o in cols.objects]
    for lo in range(0, len(cols), CHUNK_LINES):
        part = cols[lo:lo + CHUNK_LINES]
        heights = ["" if math.isnan(h) else f',"page_height":{h!r}' for h in part.page_height.tolist()]
        fh.write("".join([
            f'{{"student_id":{students[s]},"object_id":{objects[o]},"ts_ms":{t},'
            f'"scroll_y":{y!r}{h},"event":{_KIND_JSON[p]}}}\n'
            for s, o, t, y, h, p in zip(
                part.student_code.tolist(), part.object_code.tolist(), part.ts_ms.tolist(),
                part.scroll_y.tolist(), heights, part.pageload.tolist(),
            )
        ]))


def write_trace_files(out_dir: str | Path, events: EventColumns, attempts: Iterable[QuizAttempt]) -> None:
    """Write events as JSON Lines and the attempts CSV into `out_dir`, as the parsers read them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / EVENTS_FILENAME, "w", encoding="utf-8", newline="\n") as fh:
        _write_event_lines(fh, events)
    with open(out / ATTEMPTS_FILENAME, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_ATTEMPT_FIELDS)
        writer.writerows(
            (a.student_id, a.quiz_id, a.attempt_index, a.start_ts_ms, a.end_ts_ms,
             format_number(a.score), format_number(a.max_score))
            for a in attempts
        )


def _sha256(path: Path) -> str:
    import hashlib  # here, not at the top: its OpenSSL adds 3.5 MB of RSS to stages that never hash

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_store(store: TraceStore, out_dir: str | Path) -> None:
    """Write the events as JSON Lines and as columns, the attempts CSV, and a manifest
    that holds the format version, the counts and every file's sha256."""
    out = Path(out_dir)
    cols = store.events
    write_trace_files(out, cols, store.all_attempts())
    for name in _COLUMN_DTYPES:
        np.save(out / f"events.{name}.npy", getattr(cols, name), allow_pickle=False)
    with open(out / TABLES_FILENAME, "w", encoding="utf-8") as fh:
        json.dump({"objects": list(cols.objects), "students": list(cols.students)}, fh)
        fh.write("\n")
    manifest = {
        "format_version": STORE_FORMAT_VERSION,
        "counts": {"events": store.n_events, "attempts": store.n_attempts},
        "files": {name: _sha256(out / name) for name in (EVENTS_FILENAME, ATTEMPTS_FILENAME, *COLUMN_FILES)},
    }
    with open(out / MANIFEST_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_manifest(path: Path) -> dict:
    with in_file(path), open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
        if not isinstance(manifest, dict) or "format_version" not in manifest:
            raise DataError("no format_version: the store predates the columnar layout; re-run `srltrace ingest`")
        if manifest["format_version"] != STORE_FORMAT_VERSION:
            raise DataError(
                f"format_version {manifest['format_version']!r} is not {STORE_FORMAT_VERSION}; re-run `srltrace ingest`"
            )
        if not isinstance(manifest.get("files"), dict) or not isinstance(manifest.get("counts"), dict):
            raise DataError("'files' and 'counts' must be JSON objects")
    return manifest


def _verified(path: Path, manifest: dict) -> Path:
    if _sha256(path) != manifest["files"].get(path.name):
        raise DataError(f"{path}: content differs from its sha256 in {MANIFEST_FILENAME}; re-run `srltrace ingest`")
    return path


def _read_table(tables: dict, name: str) -> tuple[str, ...]:
    table = tables.get(name)
    if not isinstance(table, list) or not all(isinstance(x, str) for x in table):
        raise DataError(f"{name!r} must be a list of strings")
    if any(a >= b for a, b in zip(table, table[1:])):
        raise DataError(f"{name!r} must be sorted without repeats")
    return tuple(table)


def _read_columns(src: Path, manifest: dict) -> EventColumns:
    """Every event column and table, checked for dtype, length, code range and order."""
    path = _verified(src / TABLES_FILENAME, manifest)
    with in_file(path), open(path, "r", encoding="utf-8") as fh:
        tables = json.load(fh)
        if not isinstance(tables, dict):
            raise DataError("must hold a JSON object")
        students, objects = _read_table(tables, "students"), _read_table(tables, "objects")
    columns: dict[str, np.ndarray] = {}
    for name, dtype in _COLUMN_DTYPES.items():
        path = _verified(src / f"events.{name}.npy", manifest)
        with in_file(path), open(path, "rb") as fh:
            column = np.lib.format.read_array(fh, allow_pickle=False)
            if column.dtype != dtype or column.ndim != 1:
                raise DataError(f"expected a 1-d column of {dtype}, got {column.ndim}-d {column.dtype}")
            if columns and len(column) != len(columns["ts_ms"]):
                raise DataError(f"{len(column)} values where events.ts_ms.npy has {len(columns['ts_ms'])}")
        columns[name] = column
    for name, table in (("student_code", students), ("object_code", objects)):
        codes = columns[name]
        if len(codes) and not (codes.min() >= 0 and codes.max() < len(table)):
            raise DataError(f"{src / f'events.{name}.npy'}: code out of range of the {len(table)}-entry table")
    cols = EventColumns(**columns, students=students, objects=objects)
    with in_file(src / "events.ts_ms.npy"):
        _check_sorted(cols)
    return cols


def load_store(in_dir: str | Path) -> TraceStore:
    """Read a store that `save_store` wrote, without parsing or sorting any event again.

    The manifest's version and every file's sha256 are checked, then the columns'
    lengths, codes and order; only the attempts CSV is parsed.
    """
    src = Path(in_dir)
    manifest = _read_manifest(src / MANIFEST_FILENAME)
    _verified(src / EVENTS_FILENAME, manifest)  # kept beside the columns; must not drift from them
    cols = _read_columns(src, manifest)
    path = _verified(src / ATTEMPTS_FILENAME, manifest)
    with in_file(path), open(path, "r", encoding="utf-8", newline="") as fh:
        store = _index_store(cols, parse_attempts(fh))
    counts = manifest["counts"]
    if counts.get("events") != store.n_events or counts.get("attempts") != store.n_attempts:
        raise DataError(
            f"{src / MANIFEST_FILENAME}: counts differ from the store's {store.n_events} events"
            f" and {store.n_attempts} attempts"
        )
    return store
