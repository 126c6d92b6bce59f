"""In-process reference figures at 1,420 students.

    python3 perfbench/reference.py

Times, in one process and once each, the calls the SRL half of ``compare``
makes: cohort generation, store building, SRL feature assembly, fitting on
the training students (75 %) and evaluation (predict plus permutation
importance) on the test students, split as ``compare --seed 7`` splits.
These are the figures the README records beside the benchmark's own.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from srltrace.features import assemble_dataset  # noqa: E402
from srltrace.ingest import build_store  # noqa: E402
from srltrace.learner import evaluate, fit, split_students  # noqa: E402
from srltrace.synthgen import GenConfig, generate_cohort  # noqa: E402
from srltrace.trace_model import PipelineConfig  # noqa: E402

STUDENTS = 1420


def main() -> None:
    cfg = PipelineConfig()

    def timed(label, fn, *a, **kw):
        start = time.perf_counter()
        out = fn(*a, **kw)
        print(f"{label:<18} {time.perf_counter() - start:8.2f} s", flush=True)
        return out

    cohort = timed("generate_cohort", generate_cohort, GenConfig(n_students=STUDENTS, seed=7))
    print(f"{'cohort':<18} {len(cohort.attempts)} attempts, {len(cohort.events)} events")
    store = timed("build_store", build_store, cohort.events, cohort.attempts)
    dataset = timed("assemble srl", assemble_dataset, store, "srl", cfg)
    train, test = split_students(dataset.student_ids, cfg.test_fraction, cfg.split_seed)
    train_ds, test_ds = dataset.subset_by_students(set(train)), dataset.subset_by_students(set(test))
    print(f"{'split':<18} {train_ds.n_rows} train rows, {test_ds.n_rows} test rows")
    model = timed("fit", fit, train_ds, cfg.gbdt)
    timed("evaluate", evaluate, model, test_ds, importance_seed=cfg.split_seed)


if __name__ == "__main__":
    main()
