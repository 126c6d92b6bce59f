"""Each benchmark check passes on the program's output and fails on an altered copy."""

import csv
import json
import shutil
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small cohort run through every CLI stage once."""
    from srltrace.cli import run

    d = tmp_path_factory.mktemp("chain")
    steps = [
        ["synth", "--out", str(d / "in"), "--students", "8", "--seed", "3"],
        ["ingest", "--events", str(d / "in" / "events.jsonl"),
         "--attempts", str(d / "in" / "attempts.csv"), "--out", str(d / "store")],
        ["sessionize", "--store", str(d / "store"), "--out", str(d / "sessions.csv")],
        ["features", "--store", str(d / "store"), "--set", "srl", "--out", str(d / "features.csv")],
        ["train", "--features", str(d / "features.csv"), "--model", str(d / "model.json"),
         "--rounds", "20"],
        ["evaluate", "--model", str(d / "model.json"), "--features", str(d / "features.csv"),
         "--report", str(d / "eval.json")],
        ["compare", "--store", str(d / "store"), "--report", str(d / "report.json"), "--seed", "7"],
    ]
    with redirect_stdout(StringIO()):
        for argv in steps:
            assert run(argv) == 0, argv
    return d, oracle.recompute(d / "in" / "events.jsonl", d / "in" / "attempts.csv")


@pytest.fixture
def copy(outputs, tmp_path):
    d, exp = outputs
    shutil.copytree(d, tmp_path / "out")
    return tmp_path / "out", exp


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_every_check_passes_on_program_output(outputs):
    d, exp = outputs
    oracle.check_store(d / "store", exp)
    oracle.check_sessions(d / "sessions.csv", exp)
    oracle.check_features(d / "features.csv", exp)
    logits = oracle.check_model(d / "model.json", d / "features.csv")
    oracle.check_evaluate(d / "eval.json", d / "features.csv", logits)
    rep = oracle.check_compare(d / "report.json", exp)
    assert rep["split"]["test_students"]


def test_store_check_catches_a_lost_event(copy):
    d, exp = copy
    events = d / "store" / "events.jsonl"
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    events.write_text("".join(lines[1:]), encoding="utf-8")
    with pytest.raises(CheckFailed):
        oracle.check_store(d / "store", exp)


def test_store_check_catches_an_uncollapsed_duplicate(copy):
    d, exp = copy
    events = d / "store" / "events.jsonl"
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    events.write_text("".join(lines + lines[:1]), encoding="utf-8")
    _edit_json(d / "store" / "manifest.json",
               lambda m: m["counts"].__setitem__("events", m["counts"]["events"] + 1))
    with pytest.raises(CheckFailed):
        oracle.check_store(d / "store", exp)


def test_sessions_check_catches_a_changed_count(copy):
    d, exp = copy
    _rewrite_csv(d / "sessions.csv", lambda rows: rows[3].__setitem__(4, str(int(rows[3][4]) + 1)))
    with pytest.raises(CheckFailed):
        oracle.check_sessions(d / "sessions.csv", exp)


def test_features_check_catches_a_perturbed_value(copy):
    d, exp = copy

    def nudge(rows):
        col = rows[0].index("reading_speed")
        row = next(r for r in rows[1:] if float(r[col]) > 0)
        row[col] = repr(float(row[col]) * (1 + 1e-9))

    _rewrite_csv(d / "features.csv", nudge)
    with pytest.raises(CheckFailed):
        oracle.check_features(d / "features.csv", exp)


def test_features_check_catches_a_flipped_label(copy):
    d, exp = copy
    _rewrite_csv(d / "features.csv", lambda rows: rows[5].__setitem__(-1, str(1 - int(rows[5][-1]))))
    with pytest.raises(CheckFailed):
        oracle.check_features(d / "features.csv", exp)


def _leaves(node):
    return [node] if "v" in node else _leaves(node["l"]) + _leaves(node["r"])


def test_model_check_catches_a_rising_loss(copy):
    d, _ = copy

    def spoil(model):
        # Pushing every leaf of the last tree far out raises the training loss.
        for leaf in _leaves(model["trees"][-1]):
            leaf["v"] = 5.0

    _edit_json(d / "model.json", spoil)
    with pytest.raises(CheckFailed, match="loss rises"):
        oracle.check_model(d / "model.json", d / "features.csv")


def test_evaluate_check_catches_changed_counts(copy):
    d, _ = copy
    logits = oracle.check_model(d / "model.json", d / "features.csv")

    def shift(rep):
        rep["confusion"]["tp"] += 1
        rep["confusion"]["fn"] -= 1

    _edit_json(d / "eval.json", shift)
    with pytest.raises(CheckFailed):
        oracle.check_evaluate(d / "eval.json", d / "features.csv", logits)


def test_evaluate_check_catches_a_wrong_accuracy(copy):
    d, _ = copy
    logits = oracle.check_model(d / "model.json", d / "features.csv")
    _edit_json(d / "eval.json", lambda rep: rep.__setitem__("accuracy", rep["accuracy"] - 0.01))
    with pytest.raises(CheckFailed):
        oracle.check_evaluate(d / "eval.json", d / "features.csv", logits)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda r: r["split"]["train_students"].append(r["split"]["test_students"][0]),
        lambda r: r["split"]["test_students"].pop(),
        lambda r: r.__setitem__("accuracy_delta", r["accuracy_delta"] + 1e-9),
        lambda r: r["srl"].__setitem__("accuracy", r["srl"]["accuracy"] + 1e-9),
        lambda r: r["baseline"].__setitem__("n_rows", r["baseline"]["n_rows"] + 1),
    ],
    ids=["overlap", "missing-student", "delta", "accuracy", "n-rows"],
)
def test_compare_check_catches_a_broken_property(copy, spoil):
    d, exp = copy
    _edit_json(d / "report.json", spoil)
    with pytest.raises(CheckFailed):
        oracle.check_compare(d / "report.json", exp)


def _report(baseline, srl, top, fn=1, tp=30):
    perm = {name: 0.0 for name in oracle.FEATURE_NAMES}
    for rank, name in enumerate(top):
        perm[name] = 0.1 - 0.01 * rank
    return {
        "baseline": {"accuracy": baseline},
        "srl": {"accuracy": srl, "confusion": {"fn": fn, "tp": tp},
                "feature_importance": {"permutation": perm}},
        "accuracy_delta": srl - baseline,
    }


def test_headline_bands():
    top = ["prev_fail", "score_diff", "quiz_fails", "reading_speed"]
    oracle.check_headline_bands(_report(0.669, 0.892, top))
    for bad in (
        _report(0.80, 0.95, top),
        _report(0.669, 0.84, top),
        _report(0.669, 0.892, ["prev_fail", "quiz_fails", "reading_speed", "quiz_attempts"]),
        _report(0.669, 0.892, top, fn=5, tp=30),
    ):
        with pytest.raises(CheckFailed):
            oracle.check_headline_bands(bad)


def test_srl_gain():
    oracle.check_srl_gain(_report(0.70, 0.90, []))
    with pytest.raises(CheckFailed):
        oracle.check_srl_gain(_report(0.80, 0.80, []))
