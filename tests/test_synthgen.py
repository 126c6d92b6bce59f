"""Synthetic cohort generator: determinism, validity, latent-truth checks."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from srltrace import synthgen
from srltrace.features import assemble_dataset
from srltrace.ingest import build_store, parse_attempts, parse_events
from srltrace.learner import run_comparison
from srltrace.sessionize import reading_window
from srltrace.synthgen import CALIBRATION, Cohort, GenConfig, InvalidConfig, generate_cohort, write_cohort
from srltrace.trace_model import PipelineConfig


class TestConfigValidation:
    def test_zero_students_rejected(self):
        with pytest.raises(InvalidConfig):
            GenConfig(n_students=0)

    def test_signal_out_of_range_rejected(self):
        with pytest.raises(InvalidConfig):
            GenConfig(signal_strength=1.5)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidConfig):
            GenConfig(noise=-0.1)


class TestDeterminism:
    def test_equal_config_equal_cohort(self):
        cfg = GenConfig(n_students=12, seed=3)
        a = generate_cohort(cfg)
        b = generate_cohort(cfg)
        assert a.events == b.events
        assert a.attempts == b.attempts
        assert a.truth == b.truth

    def test_written_files_byte_identical(self, tmp_path):
        cfg = GenConfig(n_students=12, seed=3)
        write_cohort(generate_cohort(cfg), tmp_path / "a")
        write_cohort(generate_cohort(cfg), tmp_path / "b")
        for name in ("events.jsonl", "attempts.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        a = generate_cohort(GenConfig(n_students=5, seed=1))
        b = generate_cohort(GenConfig(n_students=5, seed=2))
        assert a.attempts != b.attempts


# sha256 of the raw cohort in the long-history shape (10 students, 48 quizzes, seed 7);
# a speedup of the generator keeps every byte.
LONG_HISTORY_SHA256 = {
    "events.jsonl": "9386890b322f25987642202820709fbe495401e2171c10bea208ef564d81c89c",
    "attempts.csv": "6bd4e120ae4e04b8d8e21304f8756767ef8f4fb88d0e2b41a24a264a0c9dcf9d",
    "truth.json": "e80881211f9843b9b26b7a32076763aab6c8ef11de7df58373349409408f3d30",
}


def test_long_history_cohort_is_a_fixed_point(tmp_path):
    write_cohort(generate_cohort(GenConfig(n_students=10, n_quizzes=48, seed=7)), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in LONG_HISTORY_SHA256}
    assert digests == LONG_HISTORY_SHA256


def _cal_range(name: str) -> tuple[float, float]:
    return CALIBRATION[f"{name}_lo"], CALIBRATION[f"{name}_hi"]


# Every (low, high) the generator draws a uniform from.
UNIFORM_RANGES = [
    (0, 1), (0, 48 * 3600 * 1000), (0, 40), (60, 150), (100, 400), (120, 300), (150, 350),
    (1500, 5000), (2000, 6000), (2000, 9000), (3000, 12000),
    (60_000, 600_000), (300_000, 1_800_000), (360_000, 900_000),
    *map(_cal_range, ("retry_pass_time_mult", "adjust_time_mult", "no_adjust_time_mult",
                      "fail_score", "adjusted_fail_score", "unadjusted_fail_score", "pass_score")),
]


def check_uniform_draws(low, high, seed: int, n: int) -> None:
    """`synthgen._uniform` gives `float(rng.uniform(low, high))` n times over, and the next `random()` agrees."""
    ours, numpy_s = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        got = synthgen._uniform(ours, low, high)
        assert type(got) is float and got == float(numpy_s.uniform(low, high))
    assert ours.random() == numpy_s.random()


class TestUniform:
    def test_ranges_are_every_range_the_generator_draws_from(self):
        seen = set()

        def record(rng, low, high):
            seen.add((low, high))
            return float(rng.uniform(low, high))

        with mock.patch.object(synthgen, "_uniform", record):
            generate_cohort(GenConfig(n_students=30, seed=9))
        assert seen == set(UNIFORM_RANGES)

    @pytest.mark.parametrize("low, high", UNIFORM_RANGES)
    def test_equals_numpy_uniform_draw_for_draw(self, low, high):
        check_uniform_draws(low, high, seed=7, n=2000)

    @given(
        st.one_of(st.integers(-10**9, 10**9), st.floats(-1e12, 1e12)),
        st.one_of(st.integers(-10**9, 10**9), st.floats(-1e12, 1e12)),
        st.integers(0, 2**32),
    )
    # NumPy rejects uniform(0, -0.0): the width high - low is -0.0, which it takes for high < low.
    @example(0, -0.0, 0)
    def test_equals_numpy_uniform_on_any_range(self, a, b, seed):
        # NumPy rejects high < low; of two equal zeros, -0.0 goes first.
        check_uniform_draws(*sorted((a, b), key=lambda v: (v, math.copysign(1, v))), seed, n=20)


class TestValidity:
    # The default shape, and the long-history benchmark workload's 48 quizzes per student.
    @pytest.mark.parametrize("cfg", [GenConfig(n_students=30, seed=9), GenConfig(n_students=10, n_quizzes=48, seed=7)],
                             ids=["6-quizzes", "48-quizzes"])
    def test_student_count_and_ingest(self, tmp_path, cfg):
        cohort = generate_cohort(cfg)
        assert len(cohort.events.students) == cfg.n_students
        assert len({a.student_id for a in cohort.attempts}) == cfg.n_students
        write_cohort(cohort, tmp_path / "d")
        # parses through the ingest path, as `srltrace ingest` does: every generated row's values are checked
        with open(tmp_path / "d" / "events.jsonl", encoding="utf-8") as events, \
                open(tmp_path / "d" / "attempts.csv", encoding="utf-8") as attempts:
            store = build_store(parse_events(events), parse_attempts(attempts))
        assert store.n_attempts == len(cohort.attempts)

    def test_every_attempt_has_nonempty_reading_window(self):
        cohort = generate_cohort(GenConfig(n_students=20, seed=4))
        store = build_store(cohort.events, cohort.attempts)
        for att in store.all_attempts():
            assert len(reading_window(store, att).events) > 0

    def test_datasets_assemble_cleanly(self):
        cohort = generate_cohort(GenConfig(n_students=15, seed=6))
        store = build_store(cohort.events, cohort.attempts)
        ds = assemble_dataset(store, "srl", PipelineConfig())
        assert ds.n_rows == len(cohort.attempts)
        assert np.all(np.isfinite(ds.X))


class TestLatentTruth:
    def test_empirical_pass_rates_match_recorded_probabilities(self):
        cohort = generate_cohort(GenConfig(n_students=142, seed=7))
        rows = cohort.truth["attempts"]
        by_attempt = {(r["student_id"], r["quiz_id"], r["attempt_index"]): r for r in rows}
        cells: dict[tuple[int, int], list[dict]] = {}
        for r in rows:
            prev = by_attempt.get((r["student_id"], r["quiz_id"], r["attempt_index"] - 1))
            prev_fail = 0 if prev is None or prev["passed"] else 1
            decile = min(int(r["reflectiveness"] * 10), 9)
            cells.setdefault((decile, prev_fail), []).append(r)
        checked = 0
        for members in cells.values():
            if len(members) < 10:
                continue
            n = len(members)
            p = [m["pass_prob"] for m in members]
            observed = sum(1 for m in members if m["passed"]) / n
            expected = sum(p) / n
            se = math.sqrt(sum(q * (1 - q) for q in p)) / n
            assert abs(observed - expected) <= 3 * se + 1e-12
            checked += 1
        assert checked >= 10

    def test_truth_echoes_config(self):
        cfg = GenConfig(n_students=5, seed=11, signal_strength=0.5)
        truth = generate_cohort(cfg).truth
        assert truth["config"]["signal_strength"] == 0.5
        assert truth["config"]["seed"] == 11


class TestMonotoneSignal:
    def test_mean_delta_higher_with_signal(self):
        deltas = {0.0: [], 1.0: []}
        cfg_pipe = PipelineConfig()
        for seed in range(1, 11):
            for signal in (0.0, 1.0):
                cohort = generate_cohort(
                    GenConfig(n_students=60, seed=seed, signal_strength=signal)
                )
                store = build_store(cohort.events, cohort.attempts)
                report = run_comparison(store, cfg_pipe)
                deltas[signal].append(report.accuracy_delta)
        assert np.mean(deltas[1.0]) > np.mean(deltas[0.0])
