"""Trace-data SRL feature pipeline: ingest, sessionize, featurize, boost, compare."""

from .trace_model import (
    DataError,
    GbdtParams,
    PipelineConfig,
    QuizAttempt,
    ReadingSession,
    SessionizerConfig,
)
from .ingest import (
    EventColumns,
    TraceStore,
    build_store,
    load_store,
    normalize_events,
    parse_attempts,
    parse_events,
    save_store,
)
from .sessionize import (
    ReadingWindow,
    count_backscrolls,
    reading_window,
    segment_sessions,
)
from .features import (
    BASELINE_FEATURES,
    SRL_FEATURES,
    Dataset,
    assemble_dataset,
    baseline_features,
    label_attempt,
    load_dataset_csv,
    save_dataset_csv,
    srl_features,
)
from .learner import (
    ComparisonReport,
    EvalReport,
    GbdtModel,
    evaluate,
    fit,
    gain_importance,
    grouped_split,
    load_model,
    permutation_importance,
    run_comparison,
    save_model,
)
from .synthgen import Cohort, GenConfig, InvalidConfig, generate_cohort, write_cohort

__all__ = [name for name in dir() if not name.startswith("_")]
