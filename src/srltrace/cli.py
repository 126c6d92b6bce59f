"""Command-line entry point: file-in/file-out pipeline stages.

Exit codes: 0 success, 1 usage error, 2 data error (offending file/line is
printed), 3 internal error. All randomness is seeded and echoed into the
emitted reports, so identical command lines reproduce identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import asdict, fields

from . import learner, synthgen
from .features import FEATURE_SETS, assemble_dataset, load_dataset_csv, save_dataset_csv
from .ingest import build_store, load_store, parse_attempts, parse_events, save_store
from .sessionize import Session, segment_sessions
from .trace_model import DataError, GbdtParams, InvalidConfig, PipelineConfig, SessionizerConfig, in_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_SESSIONIZER_KEYS = {f.name for f in fields(SessionizerConfig)}
_GBDT_KEYS = {f.name for f in fields(GbdtParams)}
_PIPELINE_KEYS = {f.name for f in fields(PipelineConfig)} - {"sessionizer", "gbdt"}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with in_file(path), open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
        if not isinstance(obj, dict):
            raise DataError("config file must hold a JSON object")
    # Outside in_file, which would turn this usage error into a data error.
    unknown = set(obj) - _SESSIONIZER_KEYS - _GBDT_KEYS - _PIPELINE_KEYS
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys {sorted(unknown)}")
    return obj


def _resolve_config(file_cfg: dict, overrides: dict) -> PipelineConfig:
    merged = dict(file_cfg)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    sess = SessionizerConfig(**{k: v for k, v in merged.items() if k in _SESSIONIZER_KEYS})
    gbdt = GbdtParams(**{k: v for k, v in merged.items() if k in _GBDT_KEYS})
    pipeline_kwargs = {k: v for k, v in merged.items() if k in _PIPELINE_KEYS}
    return PipelineConfig(sessionizer=sess, gbdt=gbdt, **pipeline_kwargs)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _cmd_synth(args, file_cfg: dict) -> int:
    cfg = synthgen.GenConfig(
        n_students=args.students,
        seed=args.seed,
        signal_strength=args.signal,
    )
    cohort = synthgen.generate_cohort(cfg)
    synthgen.write_cohort(cohort, args.out)
    print(f"wrote {len(cohort.events)} events, {len(cohort.attempts)} attempts to {args.out}")
    return EXIT_OK


def _cmd_ingest(args, file_cfg: dict) -> int:
    with in_file(args.events), open(args.events, "r", encoding="utf-8") as fh:
        events = parse_events(fh)
    with in_file(args.attempts), open(args.attempts, "r", encoding="utf-8", newline="") as fh:
        attempts = parse_attempts(fh)
    with in_file(args.attempts):
        store = build_store(events, attempts)
    save_store(store, args.out)
    print(f"wrote store with {store.n_events} events, {store.n_attempts} attempts to {args.out}")
    return EXIT_OK


def _cmd_sessionize(args, file_cfg: dict) -> int:
    cfg = _resolve_config(file_cfg, {})
    store = load_store(args.store)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        columns = Session._fields[:6]
        writer.writerow(["student_id", "session_index", *columns])
        for sid in store.events.students:
            sessions = segment_sessions(store.events_for(sid), cfg.sessionizer)
            writer.writerows([sid, i, *s[:len(columns)]] for i, s in enumerate(sessions, start=1))
    print(f"wrote session summary to {args.out}")
    return EXIT_OK


def _cmd_features(args, file_cfg: dict) -> int:
    cfg = _resolve_config(file_cfg, {})
    store = load_store(args.store)
    with in_file(args.store):
        dataset = assemble_dataset(store, args.set, cfg)
    save_dataset_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows x {len(dataset.feature_names)} features to {args.out}")
    return EXIT_OK


def _cmd_train(args, file_cfg: dict) -> int:
    cfg = _resolve_config(file_cfg, {"n_rounds": args.rounds, "max_depth": args.depth, "learning_rate": args.lr})
    with in_file(args.features):
        dataset = load_dataset_csv(args.features)
        model = learner.fit(dataset, cfg.gbdt)
    learner.save_model(model, args.model)
    print(f"trained {len(model.trees)} trees on {dataset.n_rows} rows; saved to {args.model}")
    return EXIT_OK


def _cmd_evaluate(args, file_cfg: dict) -> int:
    cfg = _resolve_config(file_cfg, {"decision_threshold": args.threshold})
    with in_file(args.model):
        model = learner.load_model(args.model)
    with in_file(args.features):
        dataset = load_dataset_csv(args.features)
        report = learner.evaluate(
            model,
            dataset,
            decision_threshold=cfg.decision_threshold,
            importance_repeats=cfg.importance_repeats,
            importance_seed=cfg.split_seed,
        )
    read = {"decision_threshold": cfg.decision_threshold, "split_seed": cfg.split_seed,
            "importance_repeats": cfg.importance_repeats}
    _write_json(args.report, {**asdict(report), "config": read})
    print(f"accuracy {report.accuracy:.4f} on {report.n_rows} rows; report at {args.report}")
    return EXIT_OK


def _cmd_compare(args, file_cfg: dict) -> int:
    cfg = _resolve_config(file_cfg, {"split_seed": args.seed})
    store = load_store(args.store)
    with in_file(args.store):
        report = learner.run_comparison(store, cfg)
    _write_json(args.report, asdict(report))
    print(
        f"baseline {report.baseline.accuracy:.4f}, srl {report.srl.accuracy:.4f}, "
        f"delta {report.accuracy_delta:+.4f}; report at {args.report}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srltrace",
        description="SRL trace-data feature pipeline and boosted-tree comparison runs.",
    )
    parser.add_argument("--config", help="JSON config file (keys mirror config field names)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--students", type=int, default=142)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--signal", type=float, default=1.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse raw files into a store directory")
    p.add_argument("--events", required=True)
    p.add_argument("--attempts", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("sessionize", help="emit per-student session summary CSV")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sessionize)

    p = sub.add_parser("features", help="emit the labeled feature matrix CSV")
    p.add_argument("--store", required=True)
    p.add_argument("--set", required=True, choices=FEATURE_SETS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="fit the boosted-tree model")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--rounds", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="baseline-vs-SRL comparison on one store")
    p.add_argument("--store", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_compare)
    return parser


def run(argv: list[str]) -> int:
    """Run one stage; the only place where an exception becomes an exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, _load_config_file(args.config))
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:  # a bug, not a bad input: show where it happened
        traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
