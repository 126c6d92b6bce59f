"""End-to-end acceptance suite.

Each test checks one release criterion and records a single PASS line; the
collected checklist is echoed in the terminal summary (see conftest.py).
"""

import json
import random
import time

import numpy as np
import pytest

import helpers
from helpers import (
    mutate_score,
    naive_count_backscrolls,
    naive_session_stats,
    naive_split_sessions,
    random_store,
    random_trace,
)
from test_learner import check_fit_against_oracle, random_ds
from srltrace.cli import run
from srltrace.features import (
    assemble_dataset,
    baseline_features,
    load_dataset_csv,
    save_dataset_csv,
    srl_features,
)
from srltrace.ingest import events_to_columns, load_store, save_store
from srltrace.learner import fit, grouped_split, load_model, save_model
from srltrace.sessionize import count_backscrolls, segment_sessions
from srltrace.trace_model import GbdtParams, PipelineConfig, SessionizerConfig


def report_line(text: str) -> None:
    helpers.ACCEPTANCE_LINES.append(text)
    print(text)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The headline `synth --students 142 --seed 7` + `compare --seed 7` chain."""
    base = tmp_path_factory.mktemp("default_run")
    started = time.monotonic()
    assert run(["synth", "--out", str(base / "cohort"),
                "--students", "142", "--seed", "7"]) == 0
    assert run(["ingest", "--events", str(base / "cohort" / "events.jsonl"),
                "--attempts", str(base / "cohort" / "attempts.csv"),
                "--out", str(base / "store")]) == 0
    assert run(["compare", "--store", str(base / "store"),
                "--report", str(base / "report.json"), "--seed", "7"]) == 0
    elapsed = time.monotonic() - started
    report = json.loads((base / "report.json").read_text())
    return base, report, elapsed


def test_criterion_1_headline_gap(default_run):
    _, report, elapsed = default_run
    baseline = report["baseline"]["accuracy"]
    srl = report["srl"]["accuracy"]
    delta = report["accuracy_delta"]
    assert 0.55 <= baseline <= 0.75
    assert srl >= 0.85
    assert delta >= 0.10
    assert elapsed < 60.0
    report_line(
        f"PASS criterion 1 (headline gap): baseline={baseline:.3f} in [0.55,0.75], "
        f"srl={srl:.3f} >= 0.85, delta={delta:.3f} >= 0.10, runtime={elapsed:.1f}s < 60s"
    )


def test_criterion_2_no_signal_control(tmp_path):
    deltas = []
    for seed in range(1, 6):
        base = tmp_path / f"seed{seed}"
        assert run(["synth", "--out", str(base / "cohort"), "--students", "142",
                    "--seed", str(seed), "--signal", "0"]) == 0
        assert run(["ingest", "--events", str(base / "cohort" / "events.jsonl"),
                    "--attempts", str(base / "cohort" / "attempts.csv"),
                    "--out", str(base / "store")]) == 0
        assert run(["compare", "--store", str(base / "store"),
                    "--report", str(base / "report.json"), "--seed", str(seed)]) == 0
        deltas.append(json.loads((base / "report.json").read_text())["accuracy_delta"])
    mean_delta = float(np.mean(deltas))
    assert abs(mean_delta) <= 0.05
    report_line(
        f"PASS criterion 2 (no-signal control): mean |delta| over seeds 1-5 = "
        f"{abs(mean_delta):.4f} <= 0.05"
    )


def test_criterion_3_top_features(default_run):
    _, report, _ = default_run
    importances = report["srl"]["feature_importance"]["permutation"]
    top4 = [name for name, _ in sorted(importances.items(), key=lambda kv: -kv[1])[:4]]
    assert "score_diff" in top4
    assert "prev_fail" in top4
    report_line(f"PASS criterion 3 (top features): permutation top-4 = {top4}")


def test_criterion_4_false_negative_rate(default_run):
    _, report, _ = default_run
    conf = report["srl"]["confusion"]
    fnr = conf["fn"] / (conf["fn"] + conf["tp"])
    assert fnr <= 0.10
    report_line(f"PASS criterion 4 (false negatives): fn/(fn+tp) = {fnr:.3f} <= 0.10")


def test_criterion_5_sessionizer_oracle():
    cfg = SessionizerConfig()
    rng = random.Random(424242)
    started = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        events = random_trace(rng, rng.randrange(0, 201))
        cols = events_to_columns(events)
        sessions = segment_sessions(cols, cfg)
        naive = naive_split_sessions(events, cfg)
        if len(sessions) != len(naive):
            mismatches += 1
            continue
        for got, ref in zip(sessions, naive):
            breaks, active, backs, objects = naive_session_stats(ref, cfg)
            if (got.event_count, got.num_breaks, got.active_ms, got.num_backscrolls,
                    got.object_ids) != (len(ref), breaks, active, backs, frozenset(objects)):
                mismatches += 1
        if count_backscrolls(cols, cfg) != naive_count_backscrolls(events, cfg):
            mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 5.0
    report_line(
        f"PASS criterion 5 (sessionizer oracle): 1000 traces, 0 mismatches, "
        f"{elapsed:.2f}s < 5s"
    )


def test_criterion_6_learner_numerics():
    # (a) per-round training loss non-increasing on 20 random datasets
    rng = np.random.default_rng(606)
    for _ in range(20):
        ds = random_ds(rng, int(rng.integers(5, 60)), int(rng.integers(1, 5)))
        model = fit(ds, GbdtParams(n_rounds=25))
        assert np.all(np.diff(model.train_losses) <= 1e-12)

    # (b) gradient/hessian central finite differences at 100 points
    import math
    def loss(z, y):
        p = 1.0 / (1.0 + math.exp(-z))
        return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    eps = 1e-3
    for _ in range(100):
        z = float(rng.uniform(-3.0, 3.0))
        y = float(rng.integers(0, 2))
        p = 1.0 / (1.0 + math.exp(-z))
        g_fd = (loss(z + eps, y) - loss(z - eps, y)) / (2 * eps)
        h_fd = (loss(z + eps, y) - 2 * loss(z, y) + loss(z - eps, y)) / (eps * eps)
        assert (p - y) == pytest.approx(g_fd, rel=1e-6, abs=1e-9)
        assert p * (1 - p) == pytest.approx(h_fd, rel=1e-6, abs=1e-9)

    # (c) every fitted split matches the exhaustive oracle (<= 30 rows x 3 features)
    for _ in range(10):
        ds = random_ds(rng, int(rng.integers(4, 31)), int(rng.integers(1, 4)))
        check_fit_against_oracle(ds, GbdtParams(n_rounds=4, max_depth=3))
    report_line(
        "PASS criterion 6 (learner numerics): loss monotone on 20 datasets, "
        "grad/hessian FD check at 100 points, split oracle matched"
    )


def test_criterion_7_leakage_invariants():
    # grouped_split disjointness on 100 random datasets
    rng = np.random.default_rng(707)
    for _ in range(100):
        ds = random_ds(rng, int(rng.integers(4, 50)), 2)
        train, test = grouped_split(ds, float(rng.uniform(0.1, 0.5)), int(rng.integers(0, 1000)))
        train_students = set(train.student_ids)
        test_students = set(test.student_ids)
        assert train_students.isdisjoint(test_students)
        assert train.n_rows + test.n_rows == ds.n_rows

    # no-label-leakage mutation testing on 50 random stores
    cfg = PipelineConfig()
    pyrng = random.Random(708)
    for _ in range(50):
        store = random_store(pyrng, n_students=3)
        target = pyrng.choice(store.all_attempts())
        mutated = mutate_score(store, target, (target.score + 37.0) % 100.0)
        matt = mutated.attempts_for(target.student_id, target.quiz_id)[target.attempt_index - 1]
        assert baseline_features(store, target, cfg) == baseline_features(mutated, matt, cfg)
        assert srl_features(store, target, cfg) == srl_features(mutated, matt, cfg)
    report_line(
        "PASS criterion 7 (leakage invariants): 100 disjoint grouped splits, "
        "50 score-mutation stores with unchanged features"
    )


def test_criterion_8_determinism(tmp_path):
    reports = []
    for d in ("a", "b"):
        base = tmp_path / d
        assert run(["synth", "--out", str(base / "cohort"),
                    "--students", "142", "--seed", "7"]) == 0
        assert run(["ingest", "--events", str(base / "cohort" / "events.jsonl"),
                    "--attempts", str(base / "cohort" / "attempts.csv"),
                    "--out", str(base / "store")]) == 0
        assert run(["compare", "--store", str(base / "store"),
                    "--report", str(base / "report.json"), "--seed", "7"]) == 0
        reports.append((base / "report.json").read_bytes())
    assert reports[0] == reports[1]
    report_line("PASS criterion 8 (determinism): repeated synth->compare chains byte-identical")


def test_criterion_9_round_trips(tmp_path):
    pyrng = random.Random(909)
    store = random_store(pyrng, n_students=5)

    # store serialize -> re-parse identity
    save_store(store, tmp_path / "store")
    assert load_store(tmp_path / "store") == store

    # feature CSV re-read equals the in-memory dataset exactly
    ds = assemble_dataset(store, "srl", PipelineConfig())
    save_dataset_csv(ds, tmp_path / "feats.csv")
    again = load_dataset_csv(tmp_path / "feats.csv")
    assert again.keys == ds.keys
    assert again.feature_names == ds.feature_names
    assert np.array_equal(again.X, ds.X)
    assert np.array_equal(again.y, ds.y)

    # model save/load identity
    model = fit(ds, GbdtParams(n_rounds=15))
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert loaded == model
    report_line(
        "PASS criterion 9 (round trips): store, feature CSV, and model files "
        "reload to exact equality"
    )
