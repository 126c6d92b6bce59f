"""Byte-level fuzzing of every CLI input file: a stage may refuse a file (exit 1
or 2) but never fail with an internal error (exit 3)."""

import contextlib
import io
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from srltrace.cli import run
from srltrace.synthgen import GenConfig, generate_cohort, write_cohort

# Byte strings that turn valid fields into edge cases: non-finite and huge
# numbers, wrong JSON types, structure characters and invalid UTF-8.
TOKENS = [b"NaN", b"1e400", b"-1", b"99", b"0", b".5", b"true", b"null", b'"x"',
          b",", b"\n", b"{", b"}", b"[", b'"', b"\xff"]

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(min_value=0),  # position, taken modulo the file size
        st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3)),
    ),
    min_size=1,
    max_size=3,
)

CONFIG = (b'{"break_gap_ms": 300000, "top_band_px": 50.0, "n_rounds": 3, "learning_rate": 0.1, '
          b'"decision_threshold": 0.5, "split_seed": 7}\n')

INPUTS = {"events": "events.jsonl", "attempts": "attempts.csv", "features": "features.csv",
          "model": "model.json", "config": "config.json",
          "store_events": "store/events.jsonl", "store_attempts": "store/attempts.csv",
          "store_manifest": "store/manifest.json", "store_ts_ms": "store/events.ts_ms.npy"}


def mutate(data: bytes, edits) -> bytes:
    for op, pos, chunk in edits:
        i = pos % (len(data) + 1)
        if op == "insert":
            data = data[:i] + chunk + data[i:]
        elif op == "replace":
            data = data[:i] + chunk + data[i + len(chunk):]
        else:
            data = data[:i] + data[i + len(chunk):]
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs for every stage, from a two-student cohort."""
    d = tmp_path_factory.mktemp("fuzz")
    write_cohort(generate_cohort(GenConfig(n_students=2, n_quizzes=2, seed=3)), d)
    (d / "config.json").write_bytes(CONFIG)
    assert run(["ingest", "--events", str(d / "events.jsonl"), "--attempts", str(d / "attempts.csv"),
                "--out", str(d / "store")]) == 0
    assert run(["features", "--store", str(d / "store"), "--set", "srl", "--out", str(d / "features.csv")]) == 0
    assert run(["train", "--features", str(d / "features.csv"), "--model", str(d / "model.json"),
                "--rounds", "2"]) == 0
    return d


def stage_commands(d, name, bad):
    """The CLI stages that read the input `name`, directly or through an earlier
    stage's output, with the file `bad` in its place."""
    path = {n: d / f for n, f in INPUTS.items()}
    path[name] = bad
    if name in ("events", "attempts"):
        return [["ingest", "--events", str(path["events"]), "--attempts", str(path["attempts"]),
                 "--out", str(d / "out-store")],
                ["features", "--store", str(d / "out-store"), "--set", "srl", "--out", str(d / "f.csv")]]
    if name.startswith("store_"):
        return [["sessionize", "--store", str(bad.parent), "--out", str(d / "s.csv")],
                ["features", "--store", str(bad.parent), "--set", "srl", "--out", str(d / "f.csv")]]
    if name == "config":
        return [["--config", str(bad), "sessionize", "--store", str(d / "store"), "--out", str(d / "s.csv")]]
    evaluate = ["evaluate", "--model", str(path["model"]), "--features", str(path["features"]),
                "--report", str(d / "eval.json")]
    if name == "model":
        return [evaluate]
    return [["train", "--features", str(bad), "--model", str(d / "out-model.json"), "--rounds", "2"], evaluate]


@settings(max_examples=1800, deadline=None, derandomize=True)
@given(name=st.sampled_from(list(INPUTS)), edits=EDITS)
def test_mutated_input_never_exits_3(files, name, edits):
    bad = files / "mutated" / INPUTS[name]
    if name.startswith("store_"):  # the rest of the store stays valid
        shutil.copytree(files / "store", bad.parent, dirs_exist_ok=True)
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(mutate((files / INPUTS[name]).read_bytes(), edits))
    for argv in stage_commands(files, name, bad):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), f"{argv[0]} exited {code}: {err.getvalue()}"
        if code:
            break  # a later stage would read what this one did not write
