"""Feature engineering fixtures, leakage properties, and dataset assembly."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import Event, mutate_score, random_store, whole
from srltrace.features import (
    BASELINE_FEATURES,
    SRL_FEATURES,
    assemble_dataset,
    baseline_features,
    label_attempt,
    load_dataset_csv,
    save_dataset_csv,
    srl_features,
)
from srltrace.ingest import JSON_NUMBER, build_store, events_to_columns
from srltrace.trace_model import DataError, PipelineConfig, QuizAttempt, format_number

CFG = PipelineConfig()


def _att(idx, start, end, score, sid="s1", qid="q1"):
    return QuizAttempt(sid, qid, idx, start, end, score, 100.0)


def _backscroll_events(t0, n_drops, sid="s1", obj="p1"):
    """Events producing exactly n_drops backscroll actions in one session."""
    ys = [100.0]
    for _ in range(n_drops):
        ys.extend([800.0, 100.0])
    return [Event(sid, obj, t0 + i * 10_000, y) for i, y in enumerate(ys)]


class TestLabelAttempt:
    def test_above_mark_passes(self):
        assert label_attempt(_att(1, 0, 1, 60.0), CFG) == 1

    def test_boundary_inclusive(self):
        assert label_attempt(_att(1, 0, 1, 50.0), CFG) == 1

    def test_zero_fails(self):
        assert label_attempt(_att(1, 0, 1, 0.0), CFG) == 0


class TestBaselineFeatures:
    def test_first_attempt_empty_window(self):
        store = build_store(events_to_columns([]), [_att(1, 0, 600_000, 80.0)])
        feats = baseline_features(store, store.attempts_for("s1", "q1")[0], CFG)
        assert feats == {
            "reading_sessions": 0.0,
            "num_reading_breaks": 0.0,
            "quiz_time_mins": 10.0,
            "quiz_fails": 0.0,
            "quiz_attempts": 1.0,
        }

    def test_third_attempt_after_two_fails(self):
        # Window of attempt 3 holds two sessions separated by a restart-from-top,
        # with one >300 s idle gap inside the first session.
        events = [
            Event("s1", "p1", 2_100_000, 0.0),
            Event("s1", "p1", 2_110_000, 500.0),
            Event("s1", "p1", 2_120_000, 900.0),
            Event("s1", "p1", 2_500_000, 950.0),  # 380 s gap: break
            Event("s1", "p1", 2_510_000, 0.0),    # restart: new session
            Event("s1", "p1", 2_520_000, 300.0),
        ]
        attempts = [
            _att(1, 1_000_000, 1_060_000, 30.0),
            _att(2, 2_000_000, 2_060_000, 40.0),
            _att(3, 4_000_000, 4_450_000, 80.0),
        ]
        store = build_store(events_to_columns(events), attempts)
        feats = baseline_features(store, store.attempts_for("s1", "q1")[2], CFG)
        assert feats == {
            "reading_sessions": 2.0,
            "num_reading_breaks": 1.0,
            "quiz_time_mins": 7.5,
            "quiz_fails": 2.0,
            "quiz_attempts": 3.0,
        }

    def test_quiz_time_arithmetic(self):
        store = build_store(events_to_columns([]), [_att(1, 0, 90_000, 80.0)])
        feats = baseline_features(store, store.attempts_for("s1", "q1")[0], CFG)
        assert feats["quiz_time_mins"] == 1.5


class TestSrlFeatures:
    def test_first_attempt_conventions(self):
        events = _backscroll_events(100_000, 4)
        store = build_store(events_to_columns(events), [_att(1, 1_000_000, 1_060_000, 80.0)])
        feats = srl_features(store, store.attempts_for("s1", "q1")[0], CFG)
        assert feats["num_backscrolls"] == 4.0
        assert feats["backscrolls_delta"] == 4.0
        assert feats["backscrolls_more"] == 1.0
        assert feats["prev_fail"] == 0.0
        assert feats["score_diff"] == 0.0
        assert feats["improved_score"] == 0.0
        assert feats["quiz_time_diff"] == 0.0
        assert feats["quiz_time_longer"] == 0.0

    def test_second_attempt_deltas(self):
        # 2 backscrolls before attempt 1, 5 between attempts; 8 vs 12 minutes.
        events = _backscroll_events(100_000, 2) + _backscroll_events(1_500_000, 5)
        attempts = [
            _att(1, 1_000_000, 1_480_000, 40.0),
            _att(2, 3_000_000, 3_720_000, 80.0),
        ]
        store = build_store(events_to_columns(events), attempts)
        feats = srl_features(store, store.attempts_for("s1", "q1")[1], CFG)
        assert feats["prev_fail"] == 1.0
        assert feats["backscrolls_delta"] == 3.0
        assert feats["backscrolls_more"] == 1.0
        assert feats["quiz_time_diff"] == pytest.approx(4.0)
        assert feats["quiz_time_longer"] == 1.0

    def test_score_diff_uses_two_most_recent_priors(self):
        attempts = [
            _att(1, 1_000_000, 1_060_000, 50.0),
            _att(2, 2_000_000, 2_060_000, 80.0),
            _att(3, 3_000_000, 3_060_000, 10.0),
        ]
        store = build_store(events_to_columns([]), attempts)
        feats = srl_features(store, store.attempts_for("s1", "q1")[2], CFG)
        assert feats["score_diff"] == pytest.approx(0.3)
        assert feats["improved_score"] == 1.0

    def test_score_diff_zero_with_single_prior(self):
        attempts = [_att(1, 1_000_000, 1_060_000, 90.0), _att(2, 2_000_000, 2_060_000, 10.0)]
        store = build_store(events_to_columns([]), attempts)
        feats = srl_features(store, store.attempts_for("s1", "q1")[1], CFG)
        assert feats["score_diff"] == 0.0
        assert feats["improved_score"] == 0.0


def _seven_attempt_store():
    attempts = [
        _att(1, 1_000_000, 1_060_000, 30.0),
        _att(2, 2_000_000, 2_120_000, 70.0),
        _att(1, 3_000_000, 3_060_000, 55.0, qid="q2"),
        _att(1, 1_100_000, 1_200_000, 90.0, sid="s2"),
        _att(1, 1_000_000, 1_050_000, 20.0, sid="s3"),
        _att(2, 2_000_000, 2_070_000, 45.0, sid="s3"),
        _att(3, 3_000_000, 3_080_000, 75.0, sid="s3"),
    ]
    events = _backscroll_events(100_000, 2) + _backscroll_events(500_000, 1, sid="s3")
    return build_store(events_to_columns(events), attempts)


class TestAssembleDataset:
    def test_baseline_shape_and_columns(self):
        ds = assemble_dataset(_seven_attempt_store(), "baseline", CFG)
        assert ds.X.shape == (7, 5)
        assert list(ds.feature_names) == BASELINE_FEATURES

    def test_srl_shape_baseline_first(self):
        ds = assemble_dataset(_seven_attempt_store(), "srl", CFG)
        assert ds.X.shape == (7, 14)
        assert list(ds.feature_names) == BASELINE_FEATURES + SRL_FEATURES

    def test_rows_sorted_by_key(self):
        ds = assemble_dataset(_seven_attempt_store(), "srl", CFG)
        assert list(ds.keys) == sorted(ds.keys)

    def test_empty_store_rejected(self):
        with pytest.raises(DataError, match="^store contains no quiz attempts$"):
            assemble_dataset(build_store(events_to_columns([]), []), "srl", CFG)

    def test_assembly_deterministic(self):
        store = _seven_attempt_store()
        a = assemble_dataset(store, "srl", CFG)
        b = assemble_dataset(store, "srl", CFG)
        assert a.keys == b.keys
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)


class TestRowInvariants:
    def _random_dataset(self, seed):
        return assemble_dataset(random_store(random.Random(seed)), "srl", CFG)

    def test_first_attempt_zeros(self):
        for seed in range(10):
            ds = self._random_dataset(seed)
            names = list(ds.feature_names)
            for key, row in zip(ds.keys, ds.X):
                if key[2] != 1:
                    continue
                for col in ("prev_fail", "score_diff", "improved_score",
                            "quiz_time_diff", "quiz_time_longer"):
                    assert row[names.index(col)] == 0.0

    def test_indicator_consistency(self):
        for seed in range(10, 20):
            ds = self._random_dataset(seed)
            names = list(ds.feature_names)
            for row in ds.X:
                assert row[names.index("backscrolls_more")] == (
                    1.0 if row[names.index("backscrolls_delta")] > 0 else 0.0
                )
                assert row[names.index("improved_score")] == (
                    1.0 if row[names.index("score_diff")] > 0 else 0.0
                )
                assert row[names.index("quiz_time_longer")] == (
                    1.0 if row[names.index("quiz_time_diff")] > 0 else 0.0
                )

    def test_fails_below_attempts(self):
        for seed in range(20, 30):
            ds = self._random_dataset(seed)
            names = list(ds.feature_names)
            for key, row in zip(ds.keys, ds.X):
                assert row[names.index("quiz_fails")] < row[names.index("quiz_attempts")]
                assert row[names.index("quiz_attempts")] == key[2]


class TestAssemblyReusesWindows:
    def test_rows_equal_per_attempt_functions(self):
        for seed in range(10):
            store = random_store(random.Random(seed))
            srl = assemble_dataset(store, "srl", CFG)
            assert srl.feature_names == tuple(BASELINE_FEATURES + SRL_FEATURES)
            for (sid, qid, idx), row in zip(srl.keys, srl.X):
                att = store.attempts_for(sid, qid)[idx - 1]
                expected = baseline_features(store, att, CFG) | srl_features(store, att, CFG)
                assert list(expected) == list(srl.feature_names)
                assert list(row) == list(expected.values())
            base = assemble_dataset(store, "baseline", CFG)
            assert base.keys == srl.keys
            assert np.array_equal(base.X, srl.X[:, : len(BASELINE_FEATURES)])

    def test_one_pass_per_student(self, stream_passes):
        store = random_store(random.Random(5))
        assemble_dataset(store, "srl", CFG)
        students = {a.student_id for a in store.all_attempts()}
        assert len(stream_passes) == len(students)
        assert sum(stream_passes) == sum(len(store.events_for(s)) for s in students)


class TestNoLabelLeakage:
    def test_features_invariant_to_current_score(self):
        rng = random.Random(42)
        for _ in range(15):
            store = random_store(rng, n_students=3)
            target = rng.choice(store.all_attempts())
            new_score = (target.score + 37.0) % 100.0
            mutated = mutate_score(store, target, new_score)
            mutated_att = mutated.attempts_for(target.student_id, target.quiz_id)[
                target.attempt_index - 1
            ]
            assert baseline_features(store, target, CFG) == baseline_features(
                mutated, mutated_att, CFG
            )
            assert srl_features(store, target, CFG) == srl_features(
                mutated, mutated_att, CFG
            )


class TestCsvRoundTrip:
    def test_load_save_identity(self, tmp_path):
        ds = assemble_dataset(_seven_attempt_store(), "srl", CFG)
        save_dataset_csv(ds, tmp_path / "ds.csv")
        again = load_dataset_csv(tmp_path / "ds.csv")
        assert again.keys == ds.keys
        assert again.feature_names == ds.feature_names
        assert np.array_equal(again.X, ds.X)
        assert np.array_equal(again.y, ds.y)

    def test_repeated_feature_column_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset_csv(assemble_dataset(_seven_attempt_store(), "srl", CFG), path)
        header, rest = path.read_text().split("\n", 1)
        path.write_text(header.replace("num_backscrolls", "reading_sessions") + "\n" + rest)
        with pytest.raises(DataError, match="^line 1: feature column 'reading_sessions' appears more than once$"):
            load_dataset_csv(path)

    def test_repeated_attempt_key_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset_csv(assemble_dataset(_seven_attempt_store(), "srl", CFG), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[1:3]))  # rows of ('s1', 'q1', 1) and 2 again, as lines 9 and 10
        message = "line 9: attempt (student_id, quiz_id, attempt_index) ('s1', 'q1', 1) appears more than once"
        with pytest.raises(DataError, match=whole(message)):
            load_dataset_csv(path)

    @pytest.mark.parametrize("column, value", [
        (2, "1_0"), (2, "+1"), (2, "1.0"), (3, "1_0"), (3, "\u0661"), (3, " 2 "), (3, "nan"), (3, "inf"),
        (3, ".5"), (3, "01"), (-1, "1_0"), (-1, "\uff11"),
    ])
    def test_loose_number_rejected_at_its_line(self, tmp_path, column, value):
        path = tmp_path / "ds.csv"
        save_dataset_csv(assemble_dataset(_seven_attempt_store(), "srl", CFG), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        name = lines[0].rstrip("\n").split(",")[column]
        row = lines[2].rstrip("\n").split(",")
        row[column] = value
        path.write_text("".join([*lines[:2], ",".join(row) + "\n", *lines[3:]]), encoding="utf-8")
        message = f"line 3: field {name!r} is not a plain number: {value!r}"
        with pytest.raises(DataError, match=whole(message)):
            load_dataset_csv(path)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_written_number_reads_back(self, value):
        written = format_number(value)
        assert JSON_NUMBER.fullmatch(written) and float(written) == value

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit")
    def test_attempt_index_beyond_the_int_digit_limit_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path.write_text(f"student_id,quiz_id,attempt_index,a,label\ns1,q1,1,0,1\ns1,q1,{digits},0,1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as refused:
            int(digits)
        with pytest.raises(DataError, match=whole(f"line 3: {refused.value}")):
            load_dataset_csv(path)

    def test_json_number_forms_accepted(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("student_id,quiz_id,attempt_index,a,b,c,label\n"
                        "s1,q1,-0,-0.5,1e-05,2.5E+3,1\n", encoding="utf-8")
        ds = load_dataset_csv(path)
        assert ds.keys == (("s1", "q1", 0),)
        assert ds.X.tolist() == [[-0.5, 1e-05, 2500.0]] and ds.y.tolist() == [1.0]

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = assemble_dataset(_seven_attempt_store(), "srl", CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(ds, a)
        save_dataset_csv(ds, b)
        assert a.read_bytes() == b.read_bytes()
