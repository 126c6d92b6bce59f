"""Shared test utilities: independent naive references and random fixtures.

The naive sessionizer here is written as a direct transcription of the
segmentation rules with plain loops and no shared code with the production
path; it is the oracle the production implementation is checked against.
"""

from __future__ import annotations

import math
import os
import random
import re
from typing import NamedTuple

import numpy as np

from srltrace import learner
from srltrace.ingest import _parse_line, build_store, events_to_columns
from srltrace.trace_model import DataError, QuizAttempt, SessionizerConfig

# Pass/fail checklist lines collected by the acceptance tests and echoed in
# the terminal summary (see conftest.py).
ACCEPTANCE_LINES: list[str] = []


class Event(NamedTuple):
    """An event row in the field order `events_to_columns` takes, with names for fixtures."""

    student_id: str
    object_id: str
    ts_ms: int
    scroll_y: float
    page_height: float | None = None
    kind: str = "scroll"


def naive_split_sessions(events, cfg: SessionizerConfig):
    """Split a sorted event list into session event-lists, the slow way."""
    sessions = []
    current = []
    for ev in events:
        if current:
            deepest = max(e.scroll_y for e in current)
            if ev.kind == "pageload" or (
                ev.scroll_y <= cfg.top_band_px and deepest >= cfg.min_depth_px
            ):
                sessions.append(current)
                current = []
        current.append(ev)
    if current:
        sessions.append(current)
    return sessions


def naive_session_stats(session_events, cfg: SessionizerConfig):
    """(num_breaks, active_ms, num_backscrolls, objects) for one session."""
    breaks = 0
    break_ms = 0
    for i in range(1, len(session_events)):
        gap = session_events[i].ts_ms - session_events[i - 1].ts_ms
        if gap > cfg.break_gap_ms:
            breaks += 1
            break_ms += gap

    backscrolls = 0
    previous_pair_qualified = False
    for i in range(1, len(session_events)):
        a, b = session_events[i - 1], session_events[i]
        qualified = (
            a.object_id == b.object_id
            and a.scroll_y - b.scroll_y > cfg.backscroll_epsilon_px
        )
        if qualified and not previous_pair_qualified:
            backscrolls += 1
        previous_pair_qualified = qualified

    elapsed = session_events[-1].ts_ms - session_events[0].ts_ms
    objects = set(e.object_id for e in session_events)
    return breaks, elapsed - break_ms, backscrolls, objects


def naive_count_backscrolls(events, cfg: SessionizerConfig) -> int:
    return sum(
        naive_session_stats(s, cfg)[2] for s in naive_split_sessions(events, cfg)
    )


def naive_split_into_runs(events, cfg: SessionizerConfig):
    """(first, stop, breaks, break ms, backscrolls) per session of an `EventColumns`, one event at a time.

    The reference for `sessionize._StreamPass`, which reads the same runs of
    any window from one pass over the whole stream. A session is the events
    [first, stop). Backscroll actions are maximal runs of drops beyond epsilon
    on one object, and never span two sessions.
    """
    ts = events.ts_ms.tolist()
    ys = events.scroll_y.tolist()
    loads = events.pageload.tolist()
    objs = events.object_code.tolist()
    runs = []
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


def naive_normalize(events):
    """The canonical order of `Event`s, with exact duplicates collapsed, by a plain sort.

    Key: student_id, ts_ms, object_id, scroll_y, kind ("pageload" < "scroll"),
    then page_height with None as -1. Of equal events the first in input order stays.
    """
    def key(ev):
        height = ev.page_height if ev.page_height is not None else -1.0
        return (ev.student_id, ev.ts_ms, ev.object_id, ev.scroll_y, ev.kind, height)

    out = []
    for ev in sorted(events, key=key):
        if out and out[-1] == ev:
            continue
        out.append(ev)
    return out


def parse_events_per_line(stream):
    """The columns of an event stream parsed one line at a time: the reference for the chunked `parse_events`.

    A line of only JSON whitespace (space, tab, CR, LF) is blank and skipped.
    """
    return events_to_columns(
        _parse_line(n, line) for n, line in enumerate(stream, start=1) if line.strip(" \t\r\n")
    )


def event_rows(columns):
    """An `EventColumns` as a list of rows (student_id, object_id, ts_ms, scroll_y, page_height, kind)."""
    return list(zip(
        [columns.students[c] for c in columns.student_code.tolist()],
        [columns.objects[c] for c in columns.object_code.tolist()],
        columns.ts_ms.tolist(),
        columns.scroll_y.tolist(),
        [None if math.isnan(h) else h for h in columns.page_height.tolist()],
        ["pageload" if p else "scroll" for p in columns.pageload.tolist()],
    ))


def _best_split_per_feature(cols, g, h, sorted_rows, params):
    """Best (gain, feature_index, threshold) at a node, one feature at a time.

    `sorted_rows[j]` lists the node's rows in ascending (feature j, row) order.
    A feature whose first maximum gain is not finite offers no split.
    """
    lam = params.lambda_l2
    best = None
    for j, rows in enumerate(sorted_rows):
        v = cols[j][rows]
        cg = np.cumsum(g[rows])
        ch = np.cumsum(h[rows])
        total_g = cg[-1]
        total_h = ch[-1]
        boundaries = np.nonzero(v[:-1] < v[1:])[0]
        if len(boundaries) == 0:
            continue
        gl = cg[boundaries]
        hl = ch[boundaries]
        gr = total_g - gl
        hr = total_h - hl
        gains = 0.5 * (
            gl * gl / (hl + lam)
            + gr * gr / (hr + lam)
            - total_g * total_g / (total_h + lam)
        )
        gains = np.where(
            (hl >= params.min_child_weight) & (hr >= params.min_child_weight),
            gains,
            -np.inf,
        )
        k = int(np.argmax(gains))  # first max -> lowest threshold on ties
        if not np.isfinite(gains[k]):
            continue
        if best is None or gains[k] > best[0]:  # strict -> lowest feature index wins
            thr = (v[boundaries[k]] + v[boundaries[k] + 1]) / 2.0
            best = (float(gains[k]), j, float(thr))
    return best


def _build_node_per_feature(cols, g, h, idx, sorted_rows, depth, params):
    if depth < params.max_depth and len(idx) >= 2:
        best = _best_split_per_feature(cols, g, h, sorted_rows, params)
    else:
        best = None
    if best is None or best[0] <= 0.0:
        return learner.TreeNode(
            value=learner._leaf_value(float(np.sum(g[idx])), float(np.sum(h[idx])), params)
        )
    gain, j, thr = best
    goes_left = cols[j] < thr
    children = []
    for side in (goes_left, ~goes_left):
        child_sorted = [rows.compress(side[rows]) for rows in sorted_rows] if depth + 1 < params.max_depth else []
        children.append(
            _build_node_per_feature(cols, g, h, idx.compress(side[idx]), child_sorted, depth + 1, params)
        )
    left, right = children
    return learner.TreeNode(feature_index=j, threshold=thr, left=left, right=right, gain=gain)


def fit_per_feature(dataset, params):
    """`learner.fit` with one presorted row list per feature, searched one feature at a time.

    The reference for the block split search of `learner.fit`: the models and
    training losses must be equal.
    """
    X, y = learner._checked_arrays(dataset)
    p0 = min(max(float(np.mean(y)), 1e-6), 1.0 - 1e-6)
    base = math.log(p0 / (1.0 - p0))
    logits = np.full(len(y), base)
    losses = [learner._logloss(y, learner._sigmoid(logits))]
    trees = []
    cols = np.ascontiguousarray(X.T)
    presorted = [np.argsort(col, kind="stable") for col in cols]
    for round_number in range(1, params.n_rounds + 1):
        p = learner._sigmoid(logits)
        g = p - y
        h = p * (1.0 - p)
        root = _build_node_per_feature(cols, g, h, np.arange(len(y)), presorted, 0, params)
        trees.append(root)
        logits = logits + learner._tree_values(root, X)
        loss = learner._logloss(y, learner._sigmoid(logits))
        if loss > losses[-1] + 1e-12:
            raise DataError(
                f"round {round_number}: training loss rose from {losses[-1]!r} to {loss!r} with learning_rate ="
                f" {params.learning_rate}, lambda_l2 = {params.lambda_l2}, min_child_weight = {params.min_child_weight};"
                " the step overshot, so lower learning_rate or raise lambda_l2"
            )
        losses.append(loss)
    return learner.GbdtModel(base, trees, tuple(dataset.feature_names), params, losses)


def random_trace(rng: random.Random, n_events: int, student_id: str = "s1"):
    """A sorted random scroll trace exercising all segmentation rules."""
    events = []
    t = rng.randrange(0, 10_000)
    for _ in range(n_events):
        t += rng.choice([0, 100, 1_000, 5_000, 40_000, 200_000, 350_000, 700_000])
        kind = "pageload" if rng.random() < 0.07 else "scroll"
        events.append(
            Event(
                student_id=student_id,
                object_id=rng.choice(["p1", "p2", "p3"]),
                ts_ms=t,
                scroll_y=0.0 if kind == "pageload" else float(rng.randrange(0, 1200)),
                page_height=1200.0,
                kind=kind,
            )
        )
    return events


def random_store_inputs(rng: random.Random, n_students: int = 6, n_quizzes: int = 2):
    """Random but always-valid (events, attempts) pair for store building."""
    events = []
    attempts = []
    for si in range(n_students):
        sid = f"st{si:02d}"
        t = rng.randrange(0, 50_000)
        trace = random_trace(rng, rng.randrange(5, 60), student_id=sid)
        shift = t - trace[0].ts_ms if trace else 0
        events.extend(ev._replace(ts_ms=ev.ts_ms + shift) for ev in trace)
        t = (events[-1].ts_ms if trace else t) + rng.randrange(1_000, 50_000)
        for qi in range(n_quizzes):
            qid = f"q{qi}"
            n_att = rng.randrange(1, 4)
            for ai in range(1, n_att + 1):
                start = t + rng.randrange(1_000, 100_000)
                end = start + rng.randrange(60_000, 1_200_000)
                attempts.append(
                    QuizAttempt(
                        student_id=sid,
                        quiz_id=qid,
                        attempt_index=ai,
                        start_ts_ms=start,
                        end_ts_ms=end,
                        score=float(rng.randrange(0, 101)),
                        max_score=100.0,
                    )
                )
                t = end + rng.randrange(1_000, 100_000)
    return events, attempts


def random_store(rng: random.Random, n_students: int = 6, n_quizzes: int = 2):
    """The store `build_store` makes of `random_store_inputs`."""
    events, attempts = random_store_inputs(rng, n_students, n_quizzes)
    return build_store(events_to_columns(events), attempts)


def mutate_score(store, target: QuizAttempt, new_score: float):
    """Rebuild a store with one attempt's score replaced."""
    attempts = []
    for att in store.all_attempts():
        if (att.student_id, att.quiz_id, att.attempt_index) == (
            target.student_id, target.quiz_id, target.attempt_index,
        ):
            att = QuizAttempt(att.student_id, att.quiz_id, att.attempt_index,
                              att.start_ts_ms, att.end_ts_ms, new_score, att.max_score)
        attempts.append(att)
    return build_store(store.events, attempts)


def whole(message: str) -> str:
    """A `pytest.raises(match=...)` pattern that matches exactly `message`."""
    return f"^{re.escape(message)}$"


def no_child_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
