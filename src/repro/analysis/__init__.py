"""Analytic models and measurement helpers."""

from repro.analysis.conflicts import (
    expected_conflicts_uniform,
    simulate_conflicts,
)
from repro.analysis.stats import LatencySummary, summarize
from repro.analysis.wear import WearReport, wear_report

__all__ = [
    "expected_conflicts_uniform",
    "simulate_conflicts",
    "LatencySummary",
    "summarize",
    "WearReport",
    "wear_report",
]
