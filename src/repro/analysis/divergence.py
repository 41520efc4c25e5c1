"""Warp-occupancy (divergence) charts — paper Figures 3, 7 and 9.

The AerialVision plots classify every issued warp instruction by its count
of active threads into categories W1:4 ... W29:32 and show the mix over
time. A run's :class:`~repro.simt.stats.DivergenceSampler`
(``stats.divergence``) holds that series; :func:`render_breakdown` draws
it as a terminal-friendly stacked chart, with the same routine that draws
a trace session's interval plot (:func:`repro.obs.render_interval_plot`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.simt.stats import NUM_W_BUCKETS, DivergenceSampler, row_fractions

_SHADES = " .:-=+*#%@"


def _stacked_rows(counts: np.ndarray, labels: Sequence[str],
                  max_columns: int) -> list[str]:
    """Glyph rows for a windows x categories count table, top row first.

    Each window's counts become fractions of its total; more than
    ``max_columns`` windows are averaged down in ``np.array_split``
    chunks. One row per label, for the first ``len(labels)`` categories;
    darker glyphs mean a larger share.
    """
    fractions = row_fractions(counts)
    if fractions.shape[0] > max_columns:
        chunks = np.array_split(fractions, max_columns, axis=0)
        fractions = np.stack([chunk.mean(axis=0) for chunk in chunks])
    top = len(_SHADES) - 1
    lines = []
    for category in range(len(labels) - 1, -1, -1):
        glyphs = "".join(_SHADES[min(top, int(value * top + 0.5))]
                         for value in fractions[:, category])
        lines.append(f"{labels[category]:>7} |{glyphs}|")
    return lines


def render_breakdown(sampler: DivergenceSampler, *,
                     max_windows: int = 40, include_idle: bool = False
                     ) -> str:
    """ASCII rendering: one row per W category, one column per window.

    Darker glyphs mean that category held a larger share of that window's
    cycles — the terminal analogue of the stacked AerialVision plot.
    """
    labels = sampler.labels()
    if not include_idle:
        labels = labels[:NUM_W_BUCKETS]
    lines = _stacked_rows(sampler.array(), labels, max_windows)
    lines.append(f"{'':>7}  window = {sampler.window} cycles, "
                 f"mean active lanes = {sampler.mean_active_lanes():.1f}"
                 f"/{sampler.warp_size}")
    return "\n".join(lines)
