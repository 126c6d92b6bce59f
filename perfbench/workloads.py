"""The benchmark's two workloads: how their input files are made.

``headline-142`` is the paper's cohort exactly as ``srltrace synth
--students 142 --seed 7`` writes it. Its acceptance bands were calibrated on
that cohort, so it stays fixed whatever seed the benchmark is given.

``long-history`` is 10 students with 48 quizzes each, where the default is
6. Its events file is shuffled and about 5 % of its lines are written twice,
as logs merged from several servers are; the benchmark seed picks the order
and the repeated lines. The cohort itself is fixed (generator seed 7): the
number of attempts a generator seed yields ranges from 1,511 to 1,838 over
seeds 1-20 at 16 students, and that would show as run-to-run spread in every
stage time. Feature assembly is about a third of this workload's chain (a
tenth on ``headline-142``) and the learner about 44 % (53 %); the README
gives the figures.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from pathlib import Path

HEADLINE = "headline-142"
LONG_HISTORY = "long-history"
WORKLOADS = (HEADLINE, LONG_HISTORY)

LONG_STUDENTS = 10
LONG_QUIZZES = 48
DUPLICATE_SHARE = 0.05


def merge_servers(events_path: Path, seed: int) -> None:
    """Shuffle the lines of an events file and repeat about 5 % of them."""
    rng = random.Random(seed)
    lines = events_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines += rng.sample(lines, round(DUPLICATE_SHARE * len(lines)))
    rng.shuffle(lines)
    events_path.write_text("".join(lines), encoding="utf-8")


def make_inputs(workload: str, seed: int, out_dir: Path, span=None) -> None:
    """Generate the workload's cohort and write its input files to out_dir.

    ``span(name)`` is a context manager factory used by the traced run to
    time the synthgen calls; the plain run passes none.
    """
    from srltrace.synthgen import GenConfig, generate_cohort, write_cohort

    if workload == HEADLINE:
        cfg = GenConfig(n_students=142, seed=7)
    else:
        cfg = GenConfig(n_students=LONG_STUDENTS, n_quizzes=LONG_QUIZZES, seed=7)
    span = span or (lambda name: nullcontext())
    with span("synthgen.generate_cohort"):
        cohort = generate_cohort(cfg)
    with span("synthgen.write_cohort"):
        write_cohort(cohort, out_dir)
    if workload == LONG_HISTORY:
        with span("bench.merge_servers"):
            merge_servers(out_dir / "events.jsonl", seed)
