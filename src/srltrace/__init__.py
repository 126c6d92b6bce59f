"""Trace-data SRL feature pipeline: ingest, sessionize, featurize, boost, compare."""

from .trace_model import DataError, InvalidConfig

__all__ = ["DataError", "InvalidConfig"]
