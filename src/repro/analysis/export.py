"""CSV/plot-data export for experiment results.

The benchmarks print ASCII renderings; for publication-quality plots the
same data can be exported as CSV and re-plotted with any tool. Every
writer returns the path it wrote.
"""

from __future__ import annotations

import csv
import pathlib
from collections.abc import Sequence

from repro.simt.stats import DivergenceSampler


def write_rows_csv(path: str | pathlib.Path, rows: Sequence[dict],
                   columns: Sequence[str] | None = None) -> pathlib.Path:
    """Write dict rows (e.g. a table/figure's ``rows``) as CSV."""
    path = pathlib.Path(path)
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns),
                                restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})
    return path


def write_breakdown_csv(path: str | pathlib.Path,
                        sampler: DivergenceSampler) -> pathlib.Path:
    """Export a divergence time series (Figures 3/7/9 data).

    One row per time window: window start cycle followed by the fraction
    of that window spent in each W category, idle, and stall.
    """
    labels = sampler.labels()
    rows = [{"window_start_cycle": index * sampler.window,
             **{label: f"{value:.6f}" for label, value in zip(labels, row)}}
            for index, row in enumerate(sampler.fractions_over_time())]
    return write_rows_csv(path, rows, ["window_start_cycle", *labels])
