"""Output checks made apart from the program.

Everything here is recomputed from the raw input files with a naive
sessionizer and window rule written from the documented semantics. Nothing
is imported from ``srltrace``: a fault shared by the program and its checks
would hide itself.

Each ``check_*`` function raises ``CheckFailed`` with a short reason when an
output disagrees with the recomputation or breaks a property the method must
have; it returns ``None`` when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Defaults of the pipeline configuration; the benchmark passes no config file.
BREAK_GAP_MS = 300_000
TOP_BAND_PX = 50.0
MIN_DEPTH_PX = 200.0
BACKSCROLL_EPSILON_PX = 50.0
PASS_FRACTION = 0.5
DECISION_THRESHOLD = 0.5
TEST_FRACTION = 0.25

FEATURE_NAMES = (
    "reading_sessions",
    "num_reading_breaks",
    "quiz_time_mins",
    "quiz_fails",
    "quiz_attempts",
    "num_backscrolls",
    "backscrolls_delta",
    "backscrolls_more",
    "reading_speed",
    "prev_fail",
    "score_diff",
    "improved_score",
    "quiz_time_diff",
    "quiz_time_longer",
)
SESSION_HEADER = [
    "student_id",
    "session_index",
    "start_ts_ms",
    "end_ts_ms",
    "num_breaks",
    "num_backscrolls",
    "objects_visited",
    "active_ms",
]
REL_TOL = 1e-12


class CheckFailed(Exception):
    pass


# An event is (student_id, object_id, ts_ms, scroll_y, page_height, kind).
def read_events(path: Path) -> list[tuple]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            o = json.loads(line)
            ph = o.get("page_height")
            out.append(
                (
                    o["student_id"],
                    o["object_id"],
                    int(o["ts_ms"]),
                    float(o["scroll_y"]),
                    None if ph is None else float(ph),
                    o.get("event", "scroll"),
                )
            )
    return out


@dataclass(frozen=True)
class Attempt:
    student_id: str
    quiz_id: str
    index: int
    start: int
    end: int
    frac: float

    @property
    def passed(self) -> bool:
        return self.frac >= PASS_FRACTION

    @property
    def minutes(self) -> float:
        return (self.end - self.start) / 60_000.0


def read_attempts(path: Path) -> list[Attempt]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [
        Attempt(r[0], r[1], int(r[2]), int(r[3]), int(r[4]), float(r[5]) / float(r[6]))
        for r in rows[1:]
        if r
    ]


def _order(ev: tuple) -> tuple:
    # Time order; the remaining fields only break ties between equal stamps.
    sid, obj, ts, y, ph, kind = ev
    return (ts, obj, y, kind, -1.0 if ph is None else ph)


def split_sessions(events: list[tuple]) -> list[list[tuple]]:
    """A new session starts on a page load, or on a return to the top band
    after the current session has reached the minimum depth."""
    sessions: list[list[tuple]] = []
    for ev in events:
        if sessions:
            cur = sessions[-1]
            deepest = max(e[3] for e in cur)
            if ev[5] == "pageload" or (ev[3] <= TOP_BAND_PX and deepest >= MIN_DEPTH_PX):
                sessions.append([ev])
            else:
                cur.append(ev)
        else:
            sessions.append([ev])
    return sessions


def session_stats(session: list[tuple]) -> dict:
    gaps = [b[2] - a[2] for a, b in zip(session, session[1:]) if b[2] - a[2] > BREAK_GAP_MS]
    # A backscroll is a maximal run of upward moves of more than epsilon on one page.
    ups = [
        a[1] == b[1] and a[3] - b[3] > BACKSCROLL_EPSILON_PX
        for a, b in zip(session, session[1:])
    ]
    backscrolls = sum(1 for i, up in enumerate(ups) if up and (i == 0 or not ups[i - 1]))
    start, end = session[0][2], session[-1][2]
    return {
        "start": start,
        "end": end,
        "breaks": len(gaps),
        "backscrolls": backscrolls,
        "objects": {e[1] for e in session},
        "active_ms": end - start - sum(gaps),
    }


@dataclass
class Expected:
    """Everything the checks compare against, recomputed once per input set."""

    distinct_events: set
    n_attempts: int
    students: list[str]
    session_rows: list[list]
    feature_rows: list[tuple[tuple, list[float], int]]

    @property
    def rows_by_student(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for key, _, _ in self.feature_rows:
            out[key[0]] = out.get(key[0], 0) + 1
        return out


def recompute(events_path: Path, attempts_path: Path) -> Expected:
    raw = read_events(events_path)
    distinct = set(raw)
    attempts = read_attempts(attempts_path)

    by_student: dict[str, list[tuple]] = {}
    for ev in distinct:
        by_student.setdefault(ev[0], []).append(ev)
    for evs in by_student.values():
        evs.sort(key=_order)

    session_rows = []
    for sid in sorted(by_student):
        for i, s in enumerate(split_sessions(by_student[sid]), start=1):
            st = session_stats(s)
            session_rows.append(
                [sid, i, st["start"], st["end"], st["breaks"], st["backscrolls"],
                 len(st["objects"]), st["active_ms"]]
            )

    course_start = min([e[2] for e in distinct] + [a.start for a in attempts])
    groups: dict[tuple[str, str], dict[int, Attempt]] = {}
    for a in attempts:
        groups.setdefault((a.student_id, a.quiz_id), {})[a.index] = a
    stamps = {sid: [e[2] for e in evs] for sid, evs in by_student.items()}

    def window(a: Attempt) -> list[dict]:
        lo_ts = groups[(a.student_id, a.quiz_id)][a.index - 1].end if a.index > 1 else course_start
        evs = by_student.get(a.student_id, [])
        ts = stamps.get(a.student_id, [])
        chosen = evs[bisect_left(ts, lo_ts):bisect_left(ts, a.start)]
        return [session_stats(s) for s in split_sessions(chosen)] if chosen else []

    feature_rows = []
    for key in sorted(groups):
        group = groups[key]
        stats = {k: window(a) for k, a in group.items()}
        for k in sorted(group):
            a = group[k]
            sessions = stats[k]
            back = sum(s["backscrolls"] for s in sessions)
            active = sum(s["active_ms"] for s in sessions)
            objects = set().union(*(s["objects"] for s in sessions)) if sessions else set()
            speed = len(objects) / (active / 60_000.0) if active else 0.0
            prev = group.get(k - 1)
            prev_back = sum(s["backscrolls"] for s in stats[k - 1]) if prev else 0
            time_diff = a.minutes - prev.minutes if prev else 0.0
            score_diff = prev.frac - group[k - 2].frac if k >= 3 else 0.0
            delta = float(back - prev_back)
            values = [
                float(len(sessions)),
                float(sum(s["breaks"] for s in sessions)),
                a.minutes,
                float(sum(1 for j in range(1, k) if not group[j].passed)),
                float(k),
                float(back),
                delta,
                1.0 if delta > 0 else 0.0,
                speed,
                1.0 if prev and not prev.passed else 0.0,
                score_diff,
                1.0 if score_diff > 0 else 0.0,
                time_diff,
                1.0 if time_diff > 0 else 0.0,
            ]
            feature_rows.append(((a.student_id, a.quiz_id, k), values, int(a.passed)))

    return Expected(
        distinct_events=distinct,
        n_attempts=len(attempts),
        students=sorted({a.student_id for a in attempts}),
        session_rows=session_rows,
        feature_rows=feature_rows,
    )


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_store(store_dir: Path, exp: Expected) -> None:
    """The store holds exactly the distinct raw events and every attempt."""
    manifest = json.loads((store_dir / "manifest.json").read_text(encoding="utf-8"))
    stored = read_events(store_dir / "events.jsonl")
    if manifest["counts"]["events"] != len(exp.distinct_events):
        raise CheckFailed(
            f"store counts {manifest['counts']['events']} events, "
            f"input has {len(exp.distinct_events)} distinct"
        )
    if len(stored) != len(exp.distinct_events) or set(stored) != exp.distinct_events:
        raise CheckFailed("store events differ from the distinct input events")
    if manifest["counts"]["attempts"] != exp.n_attempts:
        raise CheckFailed("store attempt count differs from the input")


def check_sessions(path: Path, exp: Expected) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != SESSION_HEADER:
        raise CheckFailed(f"sessions header {rows[0]}")
    got = [[r[0], *map(int, r[1:])] for r in rows[1:] if r]
    if len(got) != len(exp.session_rows):
        raise CheckFailed(f"{len(got)} session rows, expected {len(exp.session_rows)}")
    for g, e in zip(got, exp.session_rows):
        if g != e:
            raise CheckFailed(f"session row {g} differs from {e}")


def read_features(path: Path) -> tuple[list[str], list[tuple], np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][3:-1]
    body = [r for r in rows[1:] if r]
    keys = [(r[0], r[1], int(r[2])) for r in body]
    X = np.array([[float(v) for v in r[3:-1]] for r in body], dtype=float).reshape(len(body), len(names))
    y = np.array([float(r[-1]) for r in body], dtype=float)
    return names, keys, X, y


def check_features(path: Path, exp: Expected) -> None:
    names, keys, X, y = read_features(path)
    if tuple(names) != FEATURE_NAMES:
        raise CheckFailed(f"feature columns {names}")
    if len(keys) != len(exp.feature_rows):
        raise CheckFailed(f"{len(keys)} feature rows, expected {len(exp.feature_rows)}")
    for i, (key, values, label) in enumerate(exp.feature_rows):
        if keys[i] != key or int(y[i]) != label:
            raise CheckFailed(f"row {i}: key/label {keys[i]} {y[i]} differ from {key} {label}")
        for j, v in enumerate(values):
            if not _close(float(X[i, j]), v):
                raise CheckFailed(f"row {key} {names[j]}: {float(X[i, j])!r} differs from {v!r}")


def tree_values(node: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value of each row, by walking the serialized tree."""
    out = np.empty(len(X))
    todo = [(node, np.arange(len(X)))]
    while todo:
        nd, rows = todo.pop()
        if "v" in nd:
            out[rows] = nd["v"]
            continue
        left = X[rows, nd["f"]] < nd["t"]
        todo.append((nd["l"], rows[left]))
        todo.append((nd["r"], rows[~left]))
    return out


def _depth(node: dict) -> int:
    return 0 if "v" in node else 1 + max(_depth(node["l"]), _depth(node["r"]))


def _logloss(y: np.ndarray, logits: np.ndarray) -> float:
    p = np.clip(1.0 / (1.0 + np.exp(-np.clip(logits, -500.0, 500.0))), 1e-15, 1.0 - 1e-15)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def check_model(model_path: Path, features_path: Path) -> np.ndarray:
    """Training log-loss after each tree prefix does not increase.

    Returns the final logits, summed in tree order, for the evaluate check.
    """
    model = json.loads(model_path.read_text(encoding="utf-8"))
    names, _, X, y = read_features(features_path)
    if model["feature_names"] != names:
        raise CheckFailed("model feature names differ from the training columns")
    params = model["params"]
    if len(model["trees"]) != params["n_rounds"]:
        raise CheckFailed(f"{len(model['trees'])} trees for {params['n_rounds']} rounds")
    if any(_depth(t) > params["max_depth"] for t in model["trees"]):
        raise CheckFailed("a tree is deeper than max_depth")
    p0 = min(max(float(np.mean(y)), 1e-6), 1.0 - 1e-6)
    if not _close(model["base_score_logit"], math.log(p0 / (1.0 - p0))):
        raise CheckFailed("base score is not the log-odds of the label mean")
    logits = np.full(len(X), float(model["base_score_logit"]))
    loss = _logloss(y, logits)
    for t, tree in enumerate(model["trees"], start=1):
        logits = logits + tree_values(tree, X)
        prev, loss = loss, _logloss(y, logits)
        if loss > prev + 1e-12:
            raise CheckFailed(f"training loss rises at tree {t}: {prev} -> {loss}")
    return logits


def confusion(y: np.ndarray, logits: np.ndarray) -> dict[str, int]:
    pred = 1.0 / (1.0 + np.exp(-np.clip(logits, -500.0, 500.0))) >= DECISION_THRESHOLD
    truth = y == 1.0
    return {
        "tp": int(np.sum(pred & truth)),
        "fp": int(np.sum(pred & ~truth)),
        "tn": int(np.sum(~pred & ~truth)),
        "fn": int(np.sum(~pred & truth)),
    }


def _check_rates(name: str, rep: dict) -> None:
    c = rep["confusion"]
    n = c["tp"] + c["fp"] + c["tn"] + c["fn"]
    if n != rep["n_rows"]:
        raise CheckFailed(f"{name}: confusion counts sum to {n}, n_rows is {rep['n_rows']}")
    if rep["accuracy"] != (c["tp"] + c["tn"]) / n:
        raise CheckFailed(f"{name}: accuracy {rep['accuracy']} is not (tp+tn)/n")


def check_evaluate(report_path: Path, features_path: Path, logits: np.ndarray) -> None:
    """Accuracy and confusion counts recomputed by walking the model."""
    rep = json.loads(report_path.read_text(encoding="utf-8"))
    names, _, _, y = read_features(features_path)
    want = confusion(y, logits)
    if rep["confusion"] != want:
        raise CheckFailed(f"confusion {rep['confusion']} differs from {want}")
    if rep["n_rows"] != len(y):
        raise CheckFailed(f"n_rows {rep['n_rows']} for {len(y)} rows")
    _check_rates("evaluate", rep)
    if sorted(rep["feature_importance"]["permutation"]) != sorted(names):
        raise CheckFailed("permutation importance does not cover every feature")


def check_compare(report_path: Path, exp: Expected) -> dict:
    """Properties every comparison report must have."""
    rep = json.loads(report_path.read_text(encoding="utf-8"))
    train, test = rep["split"]["train_students"], rep["split"]["test_students"]
    if set(train) & set(test):
        raise CheckFailed("a student is on both sides of the split")
    if sorted(train + test) != exp.students:
        raise CheckFailed("the split does not cover every student exactly once")
    if len(test) != math.ceil(TEST_FRACTION * len(exp.students)):
        raise CheckFailed(f"{len(test)} test students for {len(exp.students)}")
    per_student = exp.rows_by_student
    n_test = sum(per_student.get(s, 0) for s in test)
    for name in ("baseline", "srl"):
        if rep[name]["n_rows"] != n_test:
            raise CheckFailed(f"{name}: {rep[name]['n_rows']} rows, test students hold {n_test}")
        _check_rates(name, rep[name])
    if rep["accuracy_delta"] != rep["srl"]["accuracy"] - rep["baseline"]["accuracy"]:
        raise CheckFailed("accuracy_delta is not srl minus baseline")
    return rep


def check_headline_bands(rep: dict) -> None:
    """The paper cohort's acceptance bands (criteria 1, 3 and 4)."""
    base, srl, delta = rep["baseline"]["accuracy"], rep["srl"]["accuracy"], rep["accuracy_delta"]
    if not (0.55 <= base <= 0.75 and srl >= 0.85 and delta >= 0.10):
        raise CheckFailed(f"accuracy bands: baseline {base}, srl {srl}, delta {delta}")
    perm = rep["srl"]["feature_importance"]["permutation"]
    top4 = [k for k, _ in sorted(perm.items(), key=lambda kv: -kv[1])[:4]]
    if "prev_fail" not in top4 or "score_diff" not in top4:
        raise CheckFailed(f"permutation top 4 is {top4}")
    c = rep["srl"]["confusion"]
    if c["fn"] / (c["fn"] + c["tp"]) > 0.10:
        raise CheckFailed("srl false-negative rate above 0.10")


def check_srl_gain(rep: dict) -> None:
    if not rep["srl"]["accuracy"] > rep["baseline"]["accuracy"]:
        raise CheckFailed(
            f"srl accuracy {rep['srl']['accuracy']} does not exceed "
            f"baseline {rep['baseline']['accuracy']}"
        )
