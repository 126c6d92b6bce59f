"""Benchmark of the srltrace CLI chain, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload headline-142 --seed 1 --seconds 60 --trace 0

The run writes the workload's input files (timed as ``setup_s``), then runs
whole rounds of the six CLI stages ``ingest -> sessionize -> features ->
train -> evaluate -> compare``, each as its own process, until ``--seconds``
are used. Every round's outputs are checked against ``oracle.py``, which
recomputes them apart from the program. Stage times are medians over rounds.

With ``--trace 1`` the run makes one untraced round, then traced rounds in
this process: each stage goes through ``srltrace.cli.run`` while spans are
recorded around the calls into the program's layers. It prints a self-time
table per layer and the traced stage totals beside the untraced stage times,
writes the spans to ``perfbench/out/<workload>-trace/spans.json`` and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import oracle
from spans import Tracer
from workloads import HEADLINE, WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
STAGES = ("ingest", "sessionize", "features", "train", "evaluate", "compare")
SETUP_REPS = 7
STARTUP_REPS = 3
STAGE_TIMEOUT_S = 150.0
CHECKS = ("store", "sessions", "features", "model", "evaluate", "compare", "outcome")

# Every metric's unit, as BENCHMARK.json declares it.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def stage_argv(stage: str, inputs: Path, d: Path) -> list[str]:
    return {
        "ingest": ["ingest", "--events", str(inputs / "events.jsonl"),
                   "--attempts", str(inputs / "attempts.csv"), "--out", str(d / "store")],
        "sessionize": ["sessionize", "--store", str(d / "store"), "--out", str(d / "sessions.csv")],
        "features": ["features", "--store", str(d / "store"), "--set", "srl",
                     "--out", str(d / "features.csv")],
        "train": ["train", "--features", str(d / "features.csv"), "--model", str(d / "model.json")],
        "evaluate": ["evaluate", "--model", str(d / "model.json"),
                     "--features", str(d / "features.csv"), "--report", str(d / "eval.json")],
        "compare": ["compare", "--store", str(d / "store"), "--report", str(d / "report.json"),
                    "--seed", "7"],
    }[stage]


# A stage runs as `python3 -m srltrace.cli` does, then writes its own peak
# RSS (VmHWM) to the file named by PERFBENCH_HWM. The ru_maxrss that wait4
# returns cannot be used: on Linux a child's count starts from the RSS of the
# parent that forked it, so it would report the benchmark's own memory.
STAGE_RUNNER = """
import os, runpy
try:
    runpy.run_module("srltrace.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as src, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line for line in src if line.startswith("VmHWM:")))
"""


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, **extra)
    env.pop("SRL_TRACE_CONFIG", None)
    # Stages load cached bytecode, as an installed package does, whatever the
    # caller's environment says; the untimed first start writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log: Path, env: dict[str, str]) -> tuple[float, int]:
    """Run one process to its end; return (wall s, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        # A blocking wait returns as soon as the process ends; wait(timeout=)
        # polls with sleeps of up to 50 ms, which would show in the times.
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        return time.perf_counter() - start, code


def run_stage(stage: str, inputs: Path, d: Path) -> tuple[float, float, int]:
    """One CLI stage as its own process; return (wall s, peak RSS MB, exit code)."""
    hwm = d / f"{stage}.hwm"
    argv = [sys.executable, "-c", STAGE_RUNNER, *stage_argv(stage, inputs, d)]
    wall, code = spawn(argv, d / f"{stage}.log", child_env(PERFBENCH_HWM=str(hwm)))
    peak_kb = int(hwm.read_text(encoding="utf-8").split()[1]) if code == 0 else 0
    return wall, peak_kb * 1024 / 1e6, code


def startup_s(log: Path) -> float:
    wall, code = spawn([sys.executable, "-c", "import srltrace.cli"], log, child_env())
    if code != 0:
        raise RuntimeError(f"cannot import srltrace.cli; see {log}")
    return wall


class Tally:
    """Operations attempted and failed; an operation is a stage or a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except (oracle.CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failed += 1
            print(f"FAILED {name}: {exc}", file=sys.stderr)
            return False, None

    def skip(self, n: int) -> None:
        """Count operations a failed round could not reach, so rounds stay whole."""
        self.attempted += n
        self.failed += n


def run_checks(tally: Tally, workload: str, exp: oracle.Expected, d: Path) -> None:
    tally.op("check store", oracle.check_store, d / "store", exp)
    tally.op("check sessions", oracle.check_sessions, d / "sessions.csv", exp)
    tally.op("check features", oracle.check_features, d / "features.csv", exp)
    ok_model, logits = tally.op("check model", oracle.check_model, d / "model.json", d / "features.csv")
    if ok_model:
        tally.op("check evaluate", oracle.check_evaluate, d / "eval.json", d / "features.csv", logits)
    else:
        tally.skip(1)
    ok_cmp, rep = tally.op("check compare", oracle.check_compare, d / "report.json", exp)
    outcome = oracle.check_headline_bands if workload == HEADLINE else oracle.check_srl_gain
    if ok_cmp:
        tally.op("check outcome", outcome, rep)
    else:
        tally.skip(1)


def fresh(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def plain_round(tally: Tally, workload: str, exp: oracle.Expected, inputs: Path, d: Path) -> dict:
    """One untraced chain: each stage a fresh process, then the checks."""
    d.mkdir()
    times, rss = {}, []
    start = time.perf_counter()
    for i, stage in enumerate(STAGES):
        wall, peak, code = run_stage(stage, inputs, d)
        tally.attempted += 1
        if code != 0:
            tally.failed += 1
            print(f"FAILED stage {stage}: exit {code}; see {d / f'{stage}.log'}", file=sys.stderr)
            tally.skip(len(STAGES) - i - 1 + len(CHECKS))
            return {}
        times[stage] = wall
        rss.append(peak)
    times["wall"] = time.perf_counter() - start
    times["peak_rss_mb"] = max(rss)
    print("  round: " + " ".join(f"{k} {v:.3f}" for k, v in times.items()), flush=True)
    run_checks(tally, workload, exp, d)
    return times


def rounds_until(seconds: float, body) -> list:
    """Run whole rounds; start another only if it should end within the budget."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(body(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


# Per-layer metrics of the traced run: (metric, stage, span name, how).
# "sum" adds the durations of the matching spans of a round; "count:<key>"
# adds a count recorded on them.
LAYER_SPANS = [
    ("ingest.parse_events_s", "ingest", "ingest.parse_events", "sum"),
    ("ingest.build_store_s", "ingest", "ingest.build_store", "sum"),
    ("ingest.save_store_s", "ingest", "ingest.save_store", "sum"),
    ("trace_model.normalize_events_s", "ingest", "trace_model.normalize_events", "sum"),
    ("ingest.raw_events", "ingest", "ingest.parse_events", "count:events"),
    ("sessionize.segment_stream_s", "sessionize", "sessionize.segment_sessions", "sum"),
    ("sessionize.sessions", "sessionize", "sessionize.segment_sessions", "count:sessions"),
    ("features.assemble_srl_s", "features", "features.assemble_dataset[srl]", "sum"),
    ("features.save_csv_s", "features", "features.save_dataset_csv", "sum"),
    ("features.rows", "features", "features.assemble_dataset[srl]", "count:rows"),
    ("features.load_csv_s", "train", "features.load_dataset_csv", "sum"),
    ("learner.fit_s", "train", "learner.fit", "sum"),
    ("learner.tree_nodes", "train", "learner.fit", "count:nodes"),
    ("learner.permutation_importance_s", "evaluate", "learner.permutation_importance", "sum"),
    ("features.assemble_baseline_s", "compare", "features.assemble_dataset[baseline]", "sum"),
    ("learner.run_comparison_s", "compare", "learner.run_comparison", "sum"),
]


def _nodes(tree) -> int:
    return 1 if tree.is_leaf else 1 + _nodes(tree.left) + _nodes(tree.right)


def trace_targets(store_box: dict):
    from srltrace import cli, ingest, learner

    def keep_store(args, store):
        store_box["store"] = store
        return {"events": store.n_events}

    return [
        (cli, "parse_events", "ingest.parse_events", lambda a, r: {"events": len(r)}),
        (cli, "parse_attempts", "ingest.parse_attempts", None),
        (cli, "build_store", "ingest.build_store", lambda a, r: {"events": r.n_events}),
        (cli, "save_store", "ingest.save_store", None),
        (cli, "load_store", "ingest.load_store", keep_store),
        (ingest, "parse_events", "ingest.parse_events", None),
        (ingest, "parse_attempts", "ingest.parse_attempts", None),
        (ingest, "build_store", "ingest.build_store", None),
        (ingest, "normalize_events", "trace_model.normalize_events", None),
        (cli, "segment_sessions", "sessionize.segment_sessions", lambda a, r: {"sessions": len(r)}),
        (cli, "assemble_dataset", "features.assemble_dataset[{0}]", lambda a, r: {"rows": r.n_rows}),
        (learner, "assemble_dataset", "features.assemble_dataset[{0}]", lambda a, r: {"rows": r.n_rows}),
        (cli, "save_dataset_csv", "features.save_dataset_csv", None),
        (cli, "load_dataset_csv", "features.load_dataset_csv", None),
        (learner, "fit", "learner.fit", lambda a, r: {"nodes": sum(_nodes(t) for t in r.trees)}),
        (learner, "evaluate", "learner.evaluate", None),
        (learner, "permutation_importance", "learner.permutation_importance", None),
        (learner, "predict_logits", "learner.predict_logits", None),
        (learner, "save_model", "learner.save_model", None),
        (learner, "load_model", "learner.load_model", None),
        (learner, "run_comparison", "learner.run_comparison", None),
    ]


def sessionize_probe(tracer: Tracer, store) -> None:
    """Sessionizer passes the features need, timed apart from the features code."""
    from srltrace.sessionize import count_backscrolls, reading_window, segment_sessions
    from srltrace.trace_model import SessionizerConfig

    cfg = SessionizerConfig()
    attempts = store.all_attempts()
    with tracer.span("sessionize.reading_window_pass"):
        for att in attempts:
            reading_window(store, att)
    with tracer.span("sessionize.window_pass"):
        for att in attempts:
            events = reading_window(store, att).events
            segment_sessions(events, cfg)
            count_backscrolls(events, cfg)


def tracer_timed(tracer: Tracer, name: str, fn, *args) -> float:
    with tracer.span(name) as rec:
        fn(*args)
    return rec["end"] - rec["start"]


def traced_round(tracer: Tracer, tally: Tally, workload: str, exp, inputs: Path, d: Path, log: Path) -> dict:
    from srltrace import cli

    d.mkdir()
    store_box: dict = {}
    metrics: dict[str, float] = {}
    with tracer.span("bench.startup"):
        metrics["cli.startup_s"] = median(
            [tracer_timed(tracer, "cli.startup", startup_s, log) for _ in range(STARTUP_REPS)]
        )
    with tracer.patched(trace_targets(store_box)):
        for i, stage in enumerate(STAGES):
            with tracer.span(f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(stage_argv(stage, inputs, d))
            tally.attempted += 1
            if code != 0:
                tally.failed += 1
                print(f"FAILED traced stage {stage}: exit {code}", file=sys.stderr)
                tally.skip(len(STAGES) - i - 1 + len(CHECKS))
                return {}
            if stage == "ingest":
                metrics["ingest.store_mb"] = sum(
                    f.stat().st_size for f in (d / "store").iterdir()
                ) / 1e6
    with tracer.span("bench.probe"):
        sessionize_probe(tracer, store_box["store"])
    run_checks(tally, workload, exp, d)
    metrics.update(layer_metrics(tracer, tracer.trace))
    return metrics


def layer_metrics(tracer: Tracer, trace: int) -> dict[str, float]:
    spans = [s for s in tracer.spans if s["trace"] == trace]
    stage_of = {}
    for s in spans:
        top = tracer.ancestor(s, "cli.")
        stage_of[s["id"]] = top["name"][4:] if top else None

    def pick(stage, name):
        return [s for s in spans if s["name"] == name and stage_of[s["id"]] == stage]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    out: dict[str, float] = {}
    for metric, stage, name, how in LAYER_SPANS:
        found = pick(stage, name)
        if how == "sum":
            out[metric] = dur(found)
        else:
            out[metric] = sum(s["counts"][how.split(":", 1)[1]] for s in found)
    out["ingest.duplicates_collapsed"] = out["ingest.raw_events"] - sum(
        s["counts"]["events"] for s in pick("ingest", "ingest.build_store")
    )
    out["ingest.load_store_s"] = median(
        [dur(pick(st, "ingest.load_store")) for st in ("sessionize", "features", "compare")]
    )
    evaluate = pick("evaluate", "learner.evaluate")
    perm = pick("evaluate", "learner.permutation_importance")
    predicts = pick("evaluate", "learner.predict_logits")
    out["learner.predict_s"] = dur([s for s in predicts if s["parent"] == evaluate[0]["id"]])
    out["learner.permutation_predicts"] = sum(
        1 for s in predicts if tracer.ancestor(s, "learner.permutation_importance") is perm[0]
    )
    out["sessionize.reading_window_s"] = dur(pick(None, "sessionize.reading_window_pass"))
    out["sessionize.window_pass_s"] = dur(pick(None, "sessionize.window_pass"))
    stages = {s["name"][4:]: s for s in spans if s["name"] in {f"cli.{x}" for x in STAGES}}
    kids = tracer.children()
    for stage, s in stages.items():
        out[f"_stage.{stage}"] = s["end"] - s["start"]
        out[f"_inside.{stage}"] = sum(c["end"] - c["start"] for c in kids.get(s["id"], ()))
    return out


def reported(values: dict[str, float]) -> dict[str, dict]:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def print_metrics(metrics: dict[str, dict]) -> None:
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


def run_plain(args, exp, inputs: Path, work: Path, setup: list[float]) -> tuple[Tally, dict]:
    tally = Tally()
    rounds = rounds_until(
        args.seconds, lambda i: plain_round(tally, args.workload, exp, inputs, work / f"round-{i}")
    )
    done = [r for r in rounds if r]
    values = {"setup_s": median(setup)}
    if done:
        values["wall_s"] = median(r["wall"] for r in done)
        for stage in STAGES:
            values[f"{stage}_s"] = median(r[stage] for r in done)
        values["peak_rss_mb"] = median(r["peak_rss_mb"] for r in done)
    metrics = reported(values)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, medians:")
    print_metrics(metrics)
    return tally, metrics


def run_traced(args, exp, inputs: Path, work: Path, setup_tracer: Tracer) -> tuple[Tally, dict]:
    tally = Tally()
    tracer = setup_tracer
    start = time.perf_counter()
    untraced = plain_round(tally, args.workload, exp, inputs, work / "round-0")
    log = work / "startup.log"

    def body(i: int) -> dict:
        tracer.trace = i + 1
        with tracer.span("bench.round"):
            return traced_round(tracer, tally, args.workload, exp, inputs, work / f"round-{i + 1}", log)

    rounds = [r for r in rounds_until(args.seconds - (time.perf_counter() - start), body) if r]
    setup_spans = [s for s in tracer.spans if s["trace"] == 0]
    metrics = {}
    for name in ("synthgen.generate_cohort", "synthgen.write_cohort"):
        metrics[f"{name}_s"] = median(s["end"] - s["start"] for s in setup_spans if s["name"] == name)
    if rounds:
        for key in rounds[0]:
            metrics[key] = median(r[key] for r in rounds)
    report = reported({k: v for k, v in sorted(metrics.items()) if not k.startswith("_")})

    print(f"{args.workload} seed {args.seed}: {len(rounds)} traced rounds, medians:")
    print_metrics(report)
    print("self time per layer over set-up and traced rounds (bench = the benchmark's own code):")
    for line in tracer.self_time_table():
        print("  " + line)
    if rounds and untraced:
        startup = metrics["cli.startup_s"]
        print(f"stage totals, traced in-process vs untraced processes (cli.startup_s {startup:.3f} s):")
        print(f"  {'stage':<11} {'untraced':>9} {'-startup':>9} {'traced':>9} {'in calls':>9} {'outside':>9} {'overhead':>9}")
        sums = [0.0] * 4
        for stage in STAGES:
            traced, inside = metrics[f"_stage.{stage}"], metrics[f"_inside.{stage}"]
            plain = untraced[stage] - startup
            for k, v in enumerate((plain, traced, inside, traced - inside)):
                sums[k] += v
            print(f"  {stage:<11} {untraced[stage]:9.3f} {plain:9.3f} {traced:9.3f} {inside:9.3f} {traced - inside:9.3f} {traced - plain:+9.3f}")
        print(
            f"  {'chain':<11} {sum(untraced[s] for s in STAGES):9.3f} {sums[0]:9.3f} {sums[1]:9.3f} "
            f"{sums[2]:9.3f} {sums[3]:9.3f} {sums[1] - sums[0]:+9.3f}"
        )
        print(
            f"tracing overhead (traced minus untraced less startup, in-process effects included): "
            f"{sums[1] - sums[0]:+.3f} s on a {sums[0]:.3f} s chain ({(sums[1] - sums[0]) / sums[0]:+.1%}); "
            f"time outside layer calls {sums[3]:.3f} s"
        )
    tracer.write(work / "spans.json")
    print(f"spans written to {(work / 'spans.json').relative_to(ROOT)}")
    return tally, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "srltrace" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'srltrace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SRL_TRACE_CONFIG", None)

    work = fresh(OUT / f"{args.workload}-{'trace' if args.trace else 'plain'}")
    startup_s(work / "startup.log")  # compiles bytecode once, before any timing

    # Nothing is deleted while the run is timed: each set-up and each round
    # writes to its own directory, and the next run clears them.
    tracer = Tracer()
    setup = []
    for rep in range(SETUP_REPS):
        inputs = fresh(work / f"inputs-{rep}")
        start = time.perf_counter()
        make_inputs(args.workload, args.seed, inputs, tracer.span if args.trace else None)
        setup.append(time.perf_counter() - start)
    exp = oracle.recompute(inputs / "events.jsonl", inputs / "attempts.csv")

    if args.trace:
        tally, metrics = run_traced(args, exp, inputs, work, tracer)
    else:
        tally, metrics = run_plain(args, exp, inputs, work, setup)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
