"""Synthetic cohort generator: determinism, validity, latent-truth checks."""

import math

import numpy as np
import pytest

from srltrace.features import assemble_dataset
from srltrace.ingest import build_store, parse_attempts, parse_events
from srltrace.learner import run_comparison
from srltrace.sessionize import reading_window
from srltrace.synthgen import Cohort, GenConfig, InvalidConfig, generate_cohort, write_cohort
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


class TestValidity:
    # The default shape, and the long-history benchmark workload's 48 quizzes per student.
    @pytest.mark.parametrize("cfg", [GenConfig(n_students=30, seed=9), GenConfig(n_students=10, n_quizzes=48, seed=7)],
                             ids=["6-quizzes", "48-quizzes"])
    def test_student_count_and_ingest(self, tmp_path, cfg):
        cohort = generate_cohort(cfg)
        assert len({e[0] for e in cohort.events}) == cfg.n_students
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
