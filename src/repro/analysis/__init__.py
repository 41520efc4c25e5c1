"""Analysis utilities: divergence charts, bandwidth model, reports."""

from repro.analysis.bandwidth import BandwidthModel, bandwidth_table
from repro.analysis.divergence import render_breakdown
from repro.analysis.report import format_table

__all__ = [
    "BandwidthModel",
    "bandwidth_table",
    "format_table",
    "render_breakdown",
]
