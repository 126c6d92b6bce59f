"""Synthetic cohort generator acting out the plan/perform/reflect cycle.

Students carry persistent traits (reflectiveness, reading care, volume,
pacing). First attempts depend weakly on reading volume; after a failure a
reflective student re-reads with more backscrolls, takes longer over the
next quiz, and passes more often, with the behavior-outcome coupling scaled
by `signal_strength`. The generator emits raw scroll events and attempt
rows only - never feature values - so the sessionizer and feature code are
exercised end to end. Latent truth goes to a separate file read only by
tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .ingest import EventColumns, events_to_columns, write_trace_files
from .trace_model import InvalidConfig, QuizAttempt

TRUTH_FILENAME = "truth.json"

# Every tunable constant of the generative model lives here. Values were
# calibrated once so the default seed lands baseline accuracy in the mid-60s
# and SRL accuracy near 90 on the end-to-end pipeline.
CALIBRATION = {
    # traits
    "care_dt_coef": 0.9,            # careful readers scroll slower (log scale)
    "care_mode_mean": 1.1,          # diligence is bimodal across the cohort
    "care_mode_sd": 0.55,
    "care_dt_noise": 0.05,
    "backscroll_base_mean": 3.0,    # per-episode backscroll actions, noisy trait
    "backscroll_base_sd": 2.0,
    "time_factor_sd": 0.55,          # log-sd of per-student quiz pacing
    "quiz_minutes_base": 8.0,
    # first attempts
    "attempt1_logit_base": 0.6,
    "attempt1_volume_coef": 0.15,   # weak, baseline-visible reading volume term
    "attempt1_care_coef": 5.5,      # careful reading lifts attempt 1, SRL-visible
    # retries after a failure
    "retry_after_fail_prob": 0.97,
    "retry_fail_logit_base": -0.2,
    "adjust_logit": 2.4,            # reflective adjustment lift
    "no_adjust_logit": -2.6,
    "adjust_backscroll_mult": 2.2,
    "adjust_backscroll_add": 3.5,
    "adjust_time_mult_lo": 1.35,
    "adjust_time_mult_hi": 1.8,
    "no_adjust_time_mult_lo": 0.7,
    "no_adjust_time_mult_hi": 1.1,
    # retries after a pass (score improvers)
    "retry_after_pass_prob": 0.45,
    "retry_pass_logit": 3.4,
    "retry_pass_time_mult_lo": 0.6,
    "retry_pass_time_mult_hi": 1.0,
    # third attempts: outcome rides on the score trajectory alone
    "score_diff_logit_coef": 26.0,
    "score_diff_logit_base": -2.6,
    # scores consistent with outcomes
    "fail_score_lo": 0.10,
    "fail_score_hi": 0.40,
    "adjusted_fail_score_lo": 0.36,
    "adjusted_fail_score_hi": 0.48,
    "unadjusted_fail_score_lo": 0.05,
    "unadjusted_fail_score_hi": 0.20,
    "pass_score_lo": 0.55,
    "pass_score_hi": 0.95,
    # trace texture
    "page_height": 2000.0,
    "objects_per_quiz": 3,
    "episode_sessions_base": 2.4,
    "break_prob": 0.25,
    "noise_logit_scale": 2.0,       # label noise: logit sd = noise * this
}


@dataclass(frozen=True)
class GenConfig:
    n_students: int = 142
    n_quizzes: int = 6
    max_attempts: int = 3
    signal_strength: float = 1.0
    noise: float = 0.15
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_students < 1 or self.n_quizzes < 1 or self.max_attempts < 1:
            raise InvalidConfig("n_students, n_quizzes, max_attempts must be >= 1")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise InvalidConfig("signal_strength must be in [0, 1]")
        if self.noise < 0:
            raise InvalidConfig("noise must be >= 0")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


@dataclass
class Cohort:
    events: EventColumns  # student by student, each student's in time order
    attempts: list[QuizAttempt]
    truth: dict = field(default_factory=dict)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return float(e / (1.0 + e))


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """`float(rng.uniform(low, high))`, draw for draw: NumPy computes
    `low + (high - low) * next_double`, the double `rng.random()` returns,
    without the argument handling that makes `uniform` about 3x as costly."""
    return low + (high - low) * rng.random()


def _emit_episode(
    rng: np.random.Generator,
    student_id: str,
    t_ms: int,
    objects: list[str],
    n_sessions: int,
    n_backscrolls: int,
    dt_scale: float,
    break_prob: float,
) -> tuple[list[tuple], int]:
    """One reading episode: sessions with downs scrolls, backscroll runs,
    occasional breaks, and restart-from-top / pageload boundaries."""
    cal = CALIBRATION
    page_height = cal["page_height"]
    events: list[tuple] = []
    # backscroll actions spread over sessions
    per_session = [0] * n_sessions
    for _ in range(n_backscrolls):
        per_session[int(rng.integers(n_sessions))] += 1

    t = t_ms
    obj = objects[int(rng.integers(len(objects)))]
    for s in range(n_sessions):
        if s == 0 or rng.random() < 0.5:
            # page (re)load starts the session; usually on a new object
            obj = objects[int(rng.integers(len(objects)))]
            events.append((student_id, obj, t, 0.0, page_height, "pageload"))
        else:
            # restart-from-top on the same object
            events.append((student_id, obj, t, _uniform(rng, 0, 40), page_height, "scroll"))
        t += int(_uniform(rng, 2000, 9000) * dt_scale)

        y = _uniform(rng, 60, 150)
        breaks_left = 1 if rng.random() < break_prob else 0
        remaining_backscrolls = per_session[s]
        # scroll to the bottom, interleaving backscroll runs
        while y < page_height - 100:
            events.append((student_id, obj, t, y, page_height, "scroll"))
            t += int(_uniform(rng, 2000, 9000) * dt_scale)
            if breaks_left and rng.random() < 0.2:
                t += int(_uniform(rng, 360_000, 900_000))
                breaks_left -= 1
            if remaining_backscrolls and y > 600 and rng.random() < 0.4:
                run_len = int(rng.integers(1, 4))
                for _ in range(run_len):
                    y = max(100.0, y - _uniform(rng, 100, 400))
                    events.append((student_id, obj, t, y, page_height, "scroll"))
                    t += int(_uniform(rng, 1500, 5000) * dt_scale)
                remaining_backscrolls -= 1
            y += _uniform(rng, 150, 350)
        events.append((student_id, obj, t, min(y, page_height), page_height, "scroll"))
        t += int(_uniform(rng, 3000, 12000) * dt_scale)
        # any backscrolls not spent mid-page happen near the bottom
        while remaining_backscrolls:
            yy = min(y, page_height)
            for _ in range(int(rng.integers(1, 3))):
                yy = max(100.0, yy - _uniform(rng, 100, 400))
                events.append((student_id, obj, t, yy, page_height, "scroll"))
                t += int(_uniform(rng, 1500, 5000) * dt_scale)
            events.append((student_id, obj, t, min(yy + _uniform(rng, 120, 300), page_height), page_height, "scroll"))
            t += int(_uniform(rng, 2000, 6000) * dt_scale)
            remaining_backscrolls -= 1
    return events, t


def _score_for(rng: np.random.Generator, passed: bool, adjusted: bool | None) -> float:
    cal = CALIBRATION
    if passed:
        lo, hi = cal["pass_score_lo"], cal["pass_score_hi"]
    elif adjusted is True:
        lo, hi = cal["adjusted_fail_score_lo"], cal["adjusted_fail_score_hi"]
    elif adjusted is False:
        lo, hi = cal["unadjusted_fail_score_lo"], cal["unadjusted_fail_score_hi"]
    else:
        lo, hi = cal["fail_score_lo"], cal["fail_score_hi"]
    return _uniform(rng, lo, hi)


def _generate_student(
    cfg: GenConfig, student_index: int
) -> tuple[list[tuple], list[QuizAttempt], dict, list[dict]]:
    cal = CALIBRATION
    rng = np.random.default_rng([cfg.seed, student_index])
    student_id = f"s{student_index + 1:03d}"
    signal = cfg.signal_strength
    noise_sd = cfg.noise * cal["noise_logit_scale"]

    reflectiveness = _uniform(rng, 0, 1)
    care_mode = 1.0 if rng.random() < 0.5 else -1.0
    care = float(rng.normal(care_mode * cal["care_mode_mean"], cal["care_mode_sd"]))
    volume = float(rng.normal(0, 1))
    time_factor = float(np.exp(rng.normal(0, cal["time_factor_sd"])))
    backscroll_base = max(0.0, float(rng.normal(cal["backscroll_base_mean"], cal["backscroll_base_sd"])))
    dt_scale = float(np.exp(cal["care_dt_coef"] * care + rng.normal(0, cal["care_dt_noise"])))

    events: list[tuple] = []
    attempts: list[QuizAttempt] = []
    truth_rows: list[dict] = []
    t = int(_uniform(rng, 0, 48 * 3600 * 1000))

    for q in range(1, cfg.n_quizzes + 1):
        quiz_id = f"q{q:02d}"
        objects = [f"{quiz_id}_p{j}" for j in range(1, cal["objects_per_quiz"] + 1)]
        attempt_index = 0
        prev_scores: list[float] = []
        prev_passed: bool | None = None
        prev_duration_ms: int | None = None
        while True:
            attempt_index += 1
            first = attempt_index == 1
            if first:
                adjusted = None
                n_sessions = max(1, int(round(cal["episode_sessions_base"] + 0.8 * volume + rng.normal(0, 0.7))))
                n_back = max(0, int(round(backscroll_base + 2.0 * care + rng.normal(0, 1.5))))
                ep_dt = dt_scale
                duration_ms = int(cal["quiz_minutes_base"] * time_factor * np.exp(rng.normal(0, 0.25)) * 60_000)
                logit = (
                    cal["attempt1_logit_base"]
                    + cal["attempt1_volume_coef"] * volume
                    + signal * cal["attempt1_care_coef"] * care
                )
            elif prev_passed:
                adjusted = None
                n_sessions = 1
                n_back = max(0, int(round(0.5 * backscroll_base + rng.normal(0, 1.0))))
                ep_dt = dt_scale
                duration_ms = int(prev_duration_ms * _uniform(rng, cal["retry_pass_time_mult_lo"], cal["retry_pass_time_mult_hi"]))
                logit = cal["retry_pass_logit"] * signal + cal["retry_fail_logit_base"]
            else:
                adjusted = bool(rng.random() < reflectiveness)
                if adjusted:
                    n_sessions = max(1, int(round(1.2 + rng.normal(0, 0.5))))
                    n_back = max(1, int(round(backscroll_base * cal["adjust_backscroll_mult"] + cal["adjust_backscroll_add"] + rng.normal(0, 1.5))))
                    ep_dt = dt_scale * 1.4
                    duration_ms = int(prev_duration_ms * _uniform(rng, cal["adjust_time_mult_lo"], cal["adjust_time_mult_hi"]))
                    logit = cal["retry_fail_logit_base"] + signal * cal["adjust_logit"]
                else:
                    n_sessions = max(1, int(round(1.2 + rng.normal(0, 0.5))))
                    n_back = max(0, int(round(backscroll_base * 0.8 + rng.normal(0, 1.2))))
                    ep_dt = dt_scale
                    duration_ms = int(prev_duration_ms * _uniform(rng, cal["no_adjust_time_mult_lo"], cal["no_adjust_time_mult_hi"]))
                    logit = cal["retry_fail_logit_base"] + signal * cal["no_adjust_logit"]
                if len(prev_scores) >= 2:
                    # third attempt and later: trajectory of the two known scores
                    score_diff = prev_scores[-1] - prev_scores[-2]
                    logit = cal["score_diff_logit_base"] + signal * cal["score_diff_logit_coef"] * score_diff

            ep_events, t = _emit_episode(
                rng, student_id, t, objects, n_sessions, n_back, ep_dt, cal["break_prob"]
            )
            events.extend(ep_events)
            t += int(_uniform(rng, 60_000, 600_000))  # gap before opening the quiz

            logit += float(rng.normal(0, noise_sd)) if noise_sd > 0 else 0.0
            pass_prob = min(max(_sigmoid(logit), 0.02), 0.98)
            passed = bool(rng.random() < pass_prob)
            frac = _score_for(rng, passed, adjusted)
            start = t
            end = start + max(duration_ms, 60_000)
            attempts.append(
                QuizAttempt(
                    student_id=student_id,
                    quiz_id=quiz_id,
                    attempt_index=attempt_index,
                    start_ts_ms=start,
                    end_ts_ms=end,
                    score=round(frac * 100.0, 1),
                    max_score=100.0,
                )
            )
            truth_rows.append(
                {
                    "student_id": student_id,
                    "quiz_id": quiz_id,
                    "attempt_index": attempt_index,
                    "reflectiveness": reflectiveness,
                    "reread_intensity": float(n_back),
                    "adjusted": adjusted,
                    "time_multiplier": duration_ms / 60_000.0,
                    "pass_prob": pass_prob,
                    "passed": passed,
                }
            )
            t = end + int(_uniform(rng, 300_000, 1_800_000))

            prev_scores.append(frac)
            prev_passed = passed
            prev_duration_ms = duration_ms
            if attempt_index >= cfg.max_attempts:
                break
            if passed:
                if rng.random() >= cal["retry_after_pass_prob"]:
                    break
            else:
                if rng.random() >= cal["retry_after_fail_prob"]:
                    break

    student_truth = {
        "reflectiveness": reflectiveness,
        "care": care,
        "volume": volume,
        "time_factor": time_factor,
        "backscroll_base": backscroll_base,
    }
    return events, attempts, student_truth, truth_rows


def generate_cohort(cfg: GenConfig) -> Cohort:
    """Generate all students; deterministic per seed (per-student substreams)."""
    events: list[tuple] = []
    attempts: list[QuizAttempt] = []
    students: dict[str, dict] = {}
    rows: list[dict] = []
    for i in range(cfg.n_students):
        ev, at, st, tr = _generate_student(cfg, i)
        events.extend(ev)
        attempts.extend(at)
        students[f"s{i + 1:03d}"] = st
        rows.extend(tr)
    truth = {
        "config": asdict(cfg),
        "students": students,
        "attempts": rows,
    }
    return Cohort(events=events_to_columns(events), attempts=attempts, truth=truth)


def write_cohort(cohort: Cohort, out_dir: str | Path) -> None:
    """Write events.jsonl, attempts.csv and truth.json (truth is test-only)."""
    out = Path(out_dir)
    write_trace_files(out, cohort.events, cohort.attempts)
    with open(out / TRUTH_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(cohort.truth, fh, indent=1)
        fh.write("\n")
