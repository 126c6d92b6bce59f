"""CLI exit codes, subcommand wiring, config resolution, and artifact determinism."""

import hashlib
import json
import os
import re
import shutil
import warnings

import pytest

from helpers import no_child_left
from srltrace import ingest, learner
from srltrace.cli import run
from srltrace.features import BASELINE_FEATURES, load_dataset_csv
from srltrace.ingest import parse_events
from srltrace.trace_model import GbdtParams


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert run(["synth", "--out", str(out), "--students", "30", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def store_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("store")
    code = run([
        "ingest",
        "--events", str(cohort_dir / "events.jsonl"),
        "--attempts", str(cohort_dir / "attempts.csv"),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(store_dir, tmp_path_factory):
    """(features CSV, model file) for the srl set, trained with few rounds."""
    out = tmp_path_factory.mktemp("trained")
    feats, model = out / "srl.csv", out / "model.json"
    assert run(["features", "--store", str(store_dir), "--set", "srl", "--out", str(feats)]) == 0
    assert run(["train", "--features", str(feats), "--model", str(model), "--rounds", "5"]) == 0
    return feats, model


class TestPipelineStages:
    def test_sessionize_emits_summary_csv(self, store_dir, tmp_path):
        out = tmp_path / "sessions.csv"
        assert run(["sessionize", "--store", str(store_dir), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == (
            "student_id,session_index,start_ts_ms,end_ts_ms,"
            "num_breaks,num_backscrolls,objects_visited,active_ms"
        )

    def test_features_train_evaluate(self, store_dir, tmp_path):
        feats = tmp_path / "srl.csv"
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        assert run(["features", "--store", str(store_dir), "--set", "srl", "--out", str(feats)]) == 0
        assert run(["train", "--features", str(feats), "--model", str(model), "--rounds", "20"]) == 0
        assert run(["evaluate", "--model", str(model), "--features", str(feats), "--report", str(report)]) == 0
        obj = json.loads(report.read_text())
        assert 0.0 <= obj["accuracy"] <= 1.0
        # evaluate echoes only the settings it reads; the model's are in its file
        assert list(obj["config"].items()) == [("decision_threshold", 0.5), ("split_seed", 7), ("importance_repeats", 20)]
        assert "permutation" in obj["feature_importance"]

    def test_evaluate_reports_the_gain_importance_of_the_fit(self, trained, tmp_path):
        feats, model = trained
        report = tmp_path / "report.json"
        assert run(["evaluate", "--model", str(model), "--features", str(feats), "--report", str(report)]) == 0
        gains = json.loads(report.read_text())["feature_importance"]["gain"]
        assert gains == learner.gain_importance(learner.fit(load_dataset_csv(feats), GbdtParams(n_rounds=5)))
        assert max(gains.values()) > 0

    def test_compare_writes_report_with_config_echo(self, store_dir, tmp_path):
        report = tmp_path / "cmp.json"
        assert run(["compare", "--store", str(store_dir), "--report", str(report), "--seed", "7"]) == 0
        obj = json.loads(report.read_text())
        assert obj["config"]["split_seed"] == 7
        assert list(obj["split"]) == ["train_students", "test_students"]  # the split's settings are in config
        assert set(obj["split"]["train_students"]).isdisjoint(obj["split"]["test_students"])
        assert obj["accuracy_delta"] == pytest.approx(
            obj["srl"]["accuracy"] - obj["baseline"]["accuracy"]
        )
        assert obj["config"]["sessionizer"]["break_gap_ms"] == 300_000

    def test_inputs_not_mutated(self, store_dir, tmp_path):
        before = {p.name: _digest(p) for p in store_dir.iterdir()}
        run(["compare", "--store", str(store_dir), "--report", str(tmp_path / "r.json")])
        after = {p.name: _digest(p) for p in store_dir.iterdir()}
        assert before == after


def _run_on_edited_features(trained, tmp_path, stage, line, field, value):
    """Run `stage` on the trained features CSV with `field` of line `line` set to `value`; it must exit 2
    and write nothing. Returns the edited file."""
    feats, model = trained
    lines = feats.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[line - 1].rstrip("\n").split(",")
    row[lines[0].rstrip("\n").split(",").index(field)] = value
    lines[line - 1] = ",".join(row) + "\n"
    edited = tmp_path / "edited.csv"
    edited.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = {
        "train": ["train", "--features", str(edited), "--model", str(out), "--rounds", "2"],
        "evaluate": ["evaluate", "--model", str(model), "--features", str(edited), "--report", str(out)],
    }[stage]
    assert run(argv) == 2
    assert not out.exists()
    return edited


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--bogus", "x"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_malformed_events_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "events.jsonl"
        bad.write_text('{"student_id":"s1","object_id":"p1","ts_ms":-5,"scroll_y":0}\n')
        attempts = tmp_path / "attempts.csv"
        attempts.write_text("student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score\n")
        code = run(["ingest", "--events", str(bad), "--attempts", str(attempts),
                    "--out", str(tmp_path / "store")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "line 1" in err

    def test_line_of_non_json_whitespace_names_file_and_line(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"student_id":"s1","object_id":"p1","ts_ms":5,"scroll_y":0}\n\x0c\n')
        attempts = tmp_path / "attempts.csv"
        attempts.write_text("student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score\n")
        code = run(["ingest", "--events", str(events), "--attempts", str(attempts),
                    "--out", str(tmp_path / "store")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(events) in err and "line 2: invalid JSON: Expecting value" in err

    def test_loose_number_in_attempts_names_file_and_line(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        attempts = tmp_path / "attempts.csv"
        attempts.write_text("student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score\n"
                            "s1,q1,1,0,1,7_0,100\n")
        code = run(["ingest", "--events", str(events), "--attempts", str(attempts),
                    "--out", str(tmp_path / "store")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(attempts) in err and "line 2" in err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("event_students, where", [(("c", "a\rb"), "events.jsonl: line 31"),
                                                        (("c",), "attempts.csv: line 4")],
                             ids=["events_and_attempts", "attempts_only"])
    def test_carriage_return_in_student_id_names_file_and_line(self, tmp_path, capsys, event_students, where):
        # csv.writer writes a "\r" unquoted, so no CSV output could hold this student's rows.
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"student_id": sid, "object_id": "p1", "ts_ms": 1000 * i, "scroll_y": 10.0 * i}) + "\n"
            for sid in event_students for i in range(30)
        ))
        attempts = tmp_path / "attempts.csv"
        # Python's reader ends a line at a lone "\r", so the record that starts on line 3 ends on line 4.
        attempts.write_bytes(b"student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score\n"
                             b"c,q1,1,40000,50000,5,10\n"
                             b'"a\rb",q1,1,40000,50000,5,10\n')
        code = run(["ingest", "--events", str(events), "--attempts", str(attempts),
                    "--out", str(tmp_path / "store")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {tmp_path / where}: field 'student_id' {ingest._NO_CR}\n"
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("field, value", [
        ("attempt_index", "1_0"),
        ("reading_sessions", "\u0661"),
        ("reading_sessions", " 2 "),
        ("label", "1_0"),
    ], ids=["underscore_index", "arabic_digit_feature", "spaced_feature", "underscore_label"])
    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_loose_number_in_features_names_file_and_line(self, trained, tmp_path, capsys, stage, field, value):
        edited = _run_on_edited_features(trained, tmp_path, stage, 2, field, value)
        assert f"{edited}: line 2: field {field!r} is not a plain number: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, reason", [
        ("reading_speed", "1e400", "field 'reading_speed' is out of range for a float: '1e400'"),
        ("label", "2", "label must be 0 or 1, got '2'"),
    ], ids=["huge_feature", "label_2"])
    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_out_of_range_number_in_features_names_file_and_line(self, trained, tmp_path, capsys, stage, field,
                                                                value, reason):
        edited = _run_on_edited_features(trained, tmp_path, stage, 3, field, value)
        assert capsys.readouterr().err == f"error: {edited}: line 3: {reason}\n"

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = run(["ingest", "--events", str(tmp_path / "nope.jsonl"),
                    "--attempts", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s")])
        assert code == 2

    def test_invalid_generator_config_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "d"), "--students", "0"]) == 1
        assert run(["synth", "--out", str(tmp_path / "d"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.endswith("error: seed must be >= 0\n")
        assert not (tmp_path / "d").exists()

    def test_nan_max_score_is_data_error_and_writes_no_store(self, cohort_dir, tmp_path, capsys):
        attempts = tmp_path / "attempts.csv"
        lines = (cohort_dir / "attempts.csv").read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])
        attempts.write_text("\n".join(lines) + "\n")
        code = run(["ingest", "--events", str(cohort_dir / "events.jsonl"),
                    "--attempts", str(attempts), "--out", str(tmp_path / "store")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(attempts) in err and "line 2" in err
        assert not (tmp_path / "store").exists()

    def test_truncated_store_events_is_data_error(self, store_dir, tmp_path, capsys):
        store = tmp_path / "store"
        shutil.copytree(store_dir, store)
        events = store / "events.jsonl"
        data = events.read_bytes()
        events.write_bytes(data[: len(data) // 2])
        code = run(["sessionize", "--store", str(store), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert str(events) in capsys.readouterr().err

    def test_altered_column_file_is_data_error(self, store_dir, tmp_path, capsys):
        store = tmp_path / "store"
        shutil.copytree(store_dir, store)
        column = store / "events.scroll_y.npy"
        data = bytearray(column.read_bytes())
        data[-1] ^= 1
        column.write_bytes(bytes(data))
        code = run(["sessionize", "--store", str(store), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert str(column) in capsys.readouterr().err

    def test_deleted_column_file_is_data_error(self, store_dir, tmp_path, capsys):
        store = tmp_path / "store"
        shutil.copytree(store_dir, store)
        (store / "events.pageload.npy").unlink()
        code = run(["features", "--store", str(store), "--set", "srl", "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert str(store / "events.pageload.npy") in capsys.readouterr().err

    def test_store_without_format_version_asks_for_ingest(self, store_dir, tmp_path, capsys):
        # The layout written before the columns: a manifest with counts but no format_version.
        store = tmp_path / "store"
        shutil.copytree(store_dir, store)
        manifest = store / "manifest.json"
        old = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps({"counts": old["counts"]}), encoding="utf-8")
        code = run(["compare", "--store", str(store), "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "re-run `srltrace ingest`" in err

    def test_overlapping_attempts_are_data_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"student_id":"s1","object_id":"p1","ts_ms":70000,"scroll_y":0}\n')
        attempts = tmp_path / "attempts.csv"
        attempts.write_text(
            "student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score\n"
            "s1,q1,1,2000,100000,3,10\n"
            "s1,q1,2,50000,160000,8,10\n"
        )
        code = run(["ingest", "--events", str(events), "--attempts", str(attempts),
                    "--out", str(tmp_path / "store")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(attempts) in err and "attempt 2" in err
        assert not (tmp_path / "store").exists()

    def test_split_with_no_training_student_is_data_error(self, tmp_path, capsys):
        cohort, store = tmp_path / "cohort", tmp_path / "store"
        assert run(["synth", "--out", str(cohort), "--students", "2", "--seed", "3"]) == 0
        assert run(["ingest", "--events", str(cohort / "events.jsonl"),
                    "--attempts", str(cohort / "attempts.csv"), "--out", str(store)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test_fraction": 0.6}))
        code = run(["--config", str(cfg), "compare", "--store", str(store), "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "test_fraction 0.6" in err and "2 students" in err

    def test_evaluate_rejects_reordered_feature_columns(self, trained, tmp_path, capsys):
        feats, model = trained
        rows = [line.split(",") for line in feats.read_text().splitlines()]
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_text(
            "".join(",".join(r[:3] + r[3:-1][::-1] + r[-1:]) + "\n" for r in rows)
        )
        code = run(["evaluate", "--model", str(model), "--features", str(reversed_csv),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(reversed_csv) in err and "differ" in err
        assert not (tmp_path / "r.json").exists()

    def test_train_seed_flag_is_usage_error(self, trained, tmp_path, capsys):
        code = run(["train", "--features", str(trained[0]), "--model", str(tmp_path / "m.json"), "--seed", "3"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_train_rejects_repeated_feature_column(self, trained, tmp_path, capsys):
        feats, _ = trained
        header, rest = feats.read_text().split("\n", 1)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(header.replace("num_backscrolls", "reading_sessions") + "\n" + rest)
        code = run(["train", "--features", str(renamed), "--model", str(tmp_path / "m.json"), "--rounds", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(renamed) in err and "line 1" in err and "'reading_sessions'" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("fault", ["no_feature_column", "no_label", "keys_swapped"])
    def test_bad_features_header_is_data_error(self, trained, tmp_path, capsys, fault):
        feats, _ = trained
        rows = [line.split(",") for line in feats.read_text().splitlines()]
        if fault == "no_feature_column":
            rows = [r[:3] + r[-1:] for r in rows]
        elif fault == "no_label":
            rows = [r[:-1] for r in rows]
        else:
            rows[0][:2] = ["quiz_id", "student_id"]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in rows))
        code = run(["train", "--features", str(bad), "--model", str(tmp_path / "m.json"), "--rounds", "2"])
        assert code == 2
        message = "line 1: header must be student_id,quiz_id,attempt_index,<features...>,label"
        assert f"error: {bad}: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_repeated_attempt_row_is_data_error(self, trained, tmp_path, capsys, stage):
        feats, model = trained
        lines = feats.read_text().splitlines(keepends=True)
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(lines + lines[1:2]))
        key = tuple(lines[1].split(",")[:3])
        out = tmp_path / "out.json"
        argv = {
            "train": ["train", "--features", str(repeated), "--model", str(out), "--rounds", "2"],
            "evaluate": ["evaluate", "--model", str(model), "--features", str(repeated), "--report", str(out)],
        }[stage]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(repeated) in err and f"line {len(lines) + 1}" in err
        assert f"({key[0]!r}, {key[1]!r}, {key[2]})" in err
        assert not out.exists()

    @pytest.mark.parametrize("nested", ["events", "model", "config"])
    def test_deeply_nested_json_is_data_error(self, trained, tmp_path, capsys, nested):
        feats, model = trained
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "\n")
        attempts = tmp_path / "attempts.csv"
        attempts.write_text("student_id,quiz_id,attempt_index,start_ts_ms,end_ts_ms,score,max_score\n")
        argv = {
            "events": ["ingest", "--events", str(deep), "--attempts", str(attempts), "--out", str(tmp_path / "s")],
            "model": ["evaluate", "--model", str(deep), "--features", str(feats), "--report", str(tmp_path / "r")],
            "config": ["--config", str(deep), "train", "--features", str(feats), "--model", str(tmp_path / "m")],
        }[nested]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(deep) in err and "nested too deeply" in err
        assert ("line 1" in err) == (nested == "events")

    @pytest.mark.parametrize("corrupt, message", [
        ("feature_index_99", "out of range"),
        ("unknown_param", "params"),
        ("node_without_r", "tree node"),
        ("format_1_with_seed", "format_version 3; re-run `srltrace train`"),
        ("format_2_without_gains", "format_version 3; re-run `srltrace train`"),
        ("two_of_five_trees", "2 trees where params.n_rounds is 5"),
        ("no_trees", "0 trees where params.n_rounds is 5"),
        ("max_depth_1", "splits deep, beyond params.max_depth 1"),
    ], ids=["feature_index_99", "unknown_param", "node_without_r", "format_1_with_seed", "format_2_without_gains",
            "two_of_five_trees", "no_trees", "max_depth_1"])
    def test_corrupt_model_is_data_error(self, trained, tmp_path, capsys, corrupt, message):
        feats, model = trained
        obj = json.loads(model.read_text())
        split = next(t for t in obj["trees"] if "f" in t)
        if corrupt == "feature_index_99":
            split["f"] = 99
        elif corrupt == "unknown_param":
            obj["params"]["bogus"] = 1
        elif corrupt == "format_1_with_seed":  # as `train` wrote it before the seed left the model
            obj["format_version"] = 1
            obj["params"]["seed"] = 7
        elif corrupt == "format_2_without_gains":  # as `train` wrote it before the gains were saved
            obj["format_version"] = 2
            obj["trees"] = json.loads(re.sub(r', "g": [^,]+', "", json.dumps(obj["trees"])))
        elif corrupt == "two_of_five_trees":
            obj["trees"] = obj["trees"][:2]
        elif corrupt == "no_trees":
            obj["trees"] = []
        elif corrupt == "max_depth_1":  # the fit grew trees 3 deep
            obj["params"]["max_depth"] = 1
        else:
            del split["r"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        code = run(["evaluate", "--model", str(bad), "--features", str(feats),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err


class TestConfigFile:
    def test_config_file_overrides_defaults(self, store_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"decision_threshold": 0.7, "n_rounds": 5}))
        report = tmp_path / "cmp.json"
        code = run(["--config", str(cfg), "compare", "--store", str(store_dir),
                    "--report", str(report)])
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["config"]["decision_threshold"] == 0.7
        assert obj["config"]["gbdt"]["n_rounds"] == 5

    @pytest.mark.parametrize("key, value", [("not_a_key", 1), ("feature_set", "srl"), ("seed", 3), ("srl_only", False)],
                             ids=["not_a_key", "feature_set", "seed", "srl_only"])
    def test_unknown_config_key_is_usage_error(self, store_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(["--config", str(cfg), "compare", "--store", str(store_dir),
                    "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"unknown config keys [{key!r}]" in err and str(cfg) in err

    def test_split_seed_seeds_evaluate_permutation_importance(self, trained, tmp_path):
        feats, model = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split_seed": 3}))
        report = tmp_path / "r.json"
        assert run(["--config", str(cfg), "evaluate", "--model", str(model), "--features", str(feats),
                    "--report", str(report)]) == 0
        obj = json.loads(report.read_text())
        ds, fitted = load_dataset_csv(feats), learner.load_model(model)
        assert obj["feature_importance"]["permutation"] == learner.permutation_importance(fitted, ds, seed=3)
        assert obj["feature_importance"]["permutation"] != learner.permutation_importance(fitted, ds, seed=7)
        assert obj["config"]["split_seed"] == 3


    def test_zero_hessian_leaf_without_l2_is_data_error(self, tmp_path, capsys):
        feats = tmp_path / "ones.csv"
        feats.write_text("student_id,quiz_id,attempt_index,x,label\n"
                         + "".join(f"s{i},q1,1,{i},1\n" for i in range(6)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_rounds": 50, "learning_rate": 1.0, "lambda_l2": 0, "min_child_weight": 0}))
        code = run(["--config", str(cfg), "train", "--features", str(feats), "--model", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert ": round 24: " in err and "lambda_l2 = 0," in err
        assert not (tmp_path / "m.json").exists()

    def test_zero_hessian_leaf_without_l2_in_compare_is_data_error(self, store_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"  # every attempt passes, so the labels are all 1
        cfg.write_text(json.dumps({"n_rounds": 50, "learning_rate": 1.0, "lambda_l2": 0, "min_child_weight": 0,
                                   "pass_fraction": 0.0001}))
        code = run(["--config", str(cfg), "compare", "--store", str(store_dir), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "lambda_l2 = 0," in capsys.readouterr().err

    # A full Newton step without L2 overshoots on the 30-student seed-3 store.
    OVERSHOOT = {"lambda_l2": 0, "min_child_weight": 0, "learning_rate": 1.0}

    def test_rising_training_loss_is_data_error(self, trained, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.OVERSHOOT))
        code = run(["--config", str(cfg), "train", "--features", str(trained[0]), "--model", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{trained[0]}: round 5: training loss rose from 0.14495109448447813 to 0.1500966653822125" in err
        assert "with learning_rate = 1.0, lambda_l2 = 0, min_child_weight = 0;" in err
        assert not (tmp_path / "m.json").exists()

    def test_rising_training_loss_in_compare_is_data_error(self, store_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.OVERSHOOT))
        code = run(["--config", str(cfg), "compare", "--store", str(store_dir), "--report", str(tmp_path / "r.json"),
                    "--seed", "6"])
        assert code == 2
        assert ": round 5: training loss rose from 0.10663900619399307 to 0.11463702446975678" in capsys.readouterr().err

    def test_compare_with_undefined_gains_warns_nothing(self, store_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.OVERSHOOT))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would end the run with exit 3
            code = run(["--config", str(cfg), "compare", "--store", str(store_dir), "--report", str(tmp_path / "r.json")])
        assert code == 0

    # The baseline branch of compare runs in a forked child; each case reports what the
    # branches reported when they ran in turn, the baseline's error first.
    LOSS_ROSE = "training loss rose from {} with learning_rate = 1.0, lambda_l2 = 0, min_child_weight = 0;" \
                " the step overshot, so lower learning_rate or raise lambda_l2"

    @pytest.mark.parametrize("extra, seed, message", [
        ({}, 6, "round 5: " + LOSS_ROSE.format("0.10663900619399307 to 0.11463702446975678")),
        ({}, 21, "round 16: " + LOSS_ROSE.format("0.16598404034145947 to 0.17312259803301924")),
        ({"max_depth": 2}, 46, "round 7: " + LOSS_ROSE.format("0.3887685086595005 to 0.39094416194257353")),
    ], ids=["srl-fails", "baseline-fails", "both-fail"])
    @pytest.mark.parametrize("mode", ["forked", "in turn"])
    @pytest.mark.usefixtures("time_limit")
    def test_failing_branch_error_in_compare(self, store_dir, tmp_path, capsys, monkeypatch, extra, seed, message,
                                             mode):
        if mode == "in turn":
            monkeypatch.delattr(os, "fork", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.OVERSHOOT, **extra}))
        code = run(["--config", str(cfg), "compare", "--store", str(store_dir), "--report", str(tmp_path / "r.json"),
                    "--seed", str(seed)])
        assert (code, capsys.readouterr().err) == (2, f"error: {store_dir}: {message}\n")
        assert not (tmp_path / "r.json").exists()
        assert no_child_left()

    @pytest.mark.parametrize("key, value", [
        ("n_rounds", "abc"),
        ("n_rounds", 2.5),
        ("importance_repeats", 0),
        ("split_seed", -1),
    ])
    def test_bad_config_value_is_usage_error(self, trained, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(["--config", str(cfg), "evaluate", "--model", str(trained[1]),
                    "--features", str(trained[0]), "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert key in capsys.readouterr().err


def _patch_baseline_fit(monkeypatch, action):
    """Run `action()` at the start of every fit of the baseline feature set, which compare forks off."""
    real = learner.fit

    def fit(dataset, params):
        if tuple(dataset.feature_names) == tuple(BASELINE_FEATURES):
            action()
        return real(dataset, params)

    monkeypatch.setattr(learner, "fit", fit)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.usefixtures("time_limit")
class TestForkedCompare:
    def _compare(self, store_dir, out_dir):
        return run(["compare", "--store", str(store_dir), "--report", str(out_dir / "r.json")])

    def test_success_leaves_no_child(self, store_dir, tmp_path):
        assert self._compare(store_dir, tmp_path) == 0
        assert no_child_left()

    def test_child_that_dies_ends_compare_naming_its_status(self, store_dir, tmp_path, capsys, monkeypatch):
        test_pid = os.getpid()

        def die():
            if os.getpid() == test_pid:
                raise AssertionError("the baseline fit ran in the test's own process")
            os._exit(7)

        _patch_baseline_fit(monkeypatch, die)
        assert self._compare(store_dir, tmp_path) == 2
        assert capsys.readouterr().err == "error: the forked child ended with exit status 7 before it sent its result\n"
        assert not (tmp_path / "r.json").exists()
        assert no_child_left()

    def test_parse_error_in_the_child_ends_compare_as_a_data_error(self, store_dir, tmp_path, capsys, monkeypatch):
        test_pid = os.getpid()

        def parse():
            if os.getpid() == test_pid:
                raise AssertionError("the baseline fit ran in the test's own process")
            parse_events(['{"student_id": "s1", "ts_ms": 0, "scroll_y": 0}\n'])

        _patch_baseline_fit(monkeypatch, parse)
        assert self._compare(store_dir, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {store_dir}: line 1: field 'object_id' missing or not a string\n"
        assert not (tmp_path / "r.json").exists()
        assert no_child_left()

    def test_warning_in_the_child_is_raised_in_the_parent(self, store_dir, tmp_path, capsys, monkeypatch):
        def warn():
            warnings.warn(f"raised in process {os.getpid()}", RuntimeWarning)

        _patch_baseline_fit(monkeypatch, warn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the child inherits it, as it does in the test of undefined gains
            code = self._compare(store_dir, tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "in the forked child:" in err
        last = err.rstrip().splitlines()[-1]
        assert last.startswith("RuntimeWarning: raised in process ")
        assert last != f"RuntimeWarning: raised in process {os.getpid()}"
        assert no_child_left()

    def test_fork_warning_leaves_no_orphan(self, store_dir, tmp_path, monkeypatch):
        # Python 3.12 warns in the parent, after the fork, when the process has more than one thread.
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        plain = tmp_path / "plain"
        plain.mkdir()
        assert self._compare(store_dir, plain) == 0
        monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._compare(store_dir, tmp_path) == 0
        assert no_child_left()
        assert (tmp_path / "r.json").read_bytes() == (plain / "r.json").read_bytes()


class TestArtifactDeterminism:
    def test_identical_command_lines_identical_outputs(self, tmp_path):
        for d in ("a", "b"):
            base = tmp_path / d
            assert run(["synth", "--out", str(base / "cohort"), "--students", "25", "--seed", "5"]) == 0
            assert run(["ingest", "--events", str(base / "cohort" / "events.jsonl"),
                        "--attempts", str(base / "cohort" / "attempts.csv"),
                        "--out", str(base / "store")]) == 0
            assert run(["compare", "--store", str(base / "store"),
                        "--report", str(base / "report.json"), "--seed", "5"]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        assert (tmp_path / "a" / "cohort" / "events.jsonl").read_bytes() == (
            tmp_path / "b" / "cohort" / "events.jsonl"
        ).read_bytes()


# sha256 of the seed-7 headline chain's outputs (`synth --students 142 --seed 7`
# through `compare --seed 7`); a speedup or refactor keeps every byte.
HEADLINE_SHA256 = {
    "cohort/truth.json": "46cf9fd9ac5cabd1452ee14db015958fce57412e5f1bb4cb4dd92810162a0846",
    "cohort/events.jsonl": "13b14c1f90ef9eee06cfd5341ff97914e1a6a9155d68ee8855fd787f44eb20d9",
    "cohort/attempts.csv": "f4e6ff5b6ccd44d73986f1692071f62cb61e8c226f30998e867d0408cc8596be",
    "sessions.csv": "e8a5527daca54f4101c219ab432ea84a661e391555969e82e69bd17b2eee0a06",
    "srl.csv": "4bde3a539d601cc4370f18314f7adb6f34851ce325762d60913f921b30867b53",
    "baseline.csv": "aa5f2182467330b4ad10349d261b1b0bca78cb8ed7753327f364024dbd8bb5e6",
    "model.json": "0a2651d230f7a139c19155298a11b93d903e60a67e2af63d42df83dc61aeb8c8",
    "eval.json": "e5af0896ae663b039b4f3f8f8706035788ff68bbbd6f461f5c9e789f76ba6a1e",
    "compare.json": "cdaf5b4176daccdae432f54c3f58cd6c428f02711ad6fe780f48af59614ffd6b",
    "store/events.jsonl": "13b14c1f90ef9eee06cfd5341ff97914e1a6a9155d68ee8855fd787f44eb20d9",
    "store/attempts.csv": "f4e6ff5b6ccd44d73986f1692071f62cb61e8c226f30998e867d0408cc8596be",
}


@pytest.fixture(scope="module")
def headline_chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("headline")
    store = str(d / "store")
    for argv in (
        ["synth", "--out", str(d / "cohort"), "--students", "142", "--seed", "7"],
        ["ingest", "--events", str(d / "cohort" / "events.jsonl"),
         "--attempts", str(d / "cohort" / "attempts.csv"), "--out", store],
        ["sessionize", "--store", store, "--out", str(d / "sessions.csv")],
        ["features", "--store", store, "--set", "srl", "--out", str(d / "srl.csv")],
        ["features", "--store", store, "--set", "baseline", "--out", str(d / "baseline.csv")],
        ["train", "--features", str(d / "srl.csv"), "--model", str(d / "model.json")],
        ["evaluate", "--model", str(d / "model.json"), "--features", str(d / "srl.csv"),
         "--report", str(d / "eval.json")],
        ["compare", "--store", store, "--report", str(d / "compare.json"), "--seed", "7"],
    ):
        assert run(argv) == 0, argv[0]
    return d


def test_seed7_headline_chain_is_a_fixed_point(headline_chain):
    assert {name: _digest(headline_chain / name) for name in HEADLINE_SHA256} == HEADLINE_SHA256


def test_seed7_compare_report_is_the_earlier_report_less_srl_only(headline_chain):
    # Put back the config key `srl_only` (false), after decision_threshold, and the bytes are
    # those of the report written while it was a key (sha256 ead2ec58...1219).
    obj = json.loads((headline_chain / "compare.json").read_text())
    items = list(obj["config"].items())
    assert [k for k, _ in items[3:5]] == ["decision_threshold", "test_fraction"]
    obj["config"] = dict(items[:4] + [("srl_only", False)] + items[4:])
    earlier = (json.dumps(obj, indent=2) + "\n").encode()
    assert hashlib.sha256(earlier).hexdigest() == "ead2ec5813087eb0707f6d6595086f34f1dda4fe5d48767fb8a3e05705081219"
