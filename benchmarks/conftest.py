"""Bench fixtures: preset selection, the figure set, cached workloads.

Set ``REPRO_PRESET`` to ``tiny``/``fast``/``paper`` (default ``fast``) to
pick the simulation scale. Each bench prints its table or figure (run
pytest with ``-s`` to see it live) and appends it to
``benchmarks/_output/report.txt``.

The paper's tables and figures and the DWF and persistent-threads
ablations come from :mod:`repro.harness.experiments`, the code behind
``repro experiments``: their benches assert the paper's shapes on that
output (the ``figures`` fixture) and simulate nothing themselves.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api import prepare_workload
from repro.harness.experiments import run_selected
from repro.harness.presets import get_preset

OUTPUT_DIR = pathlib.Path(__file__).parent / "_output"

#: The experiments the shape benches read from ``figures``.
FIGURE_NAMES = ("table1", "table2", "table3", "table4", "fig3", "fig7",
                "fig8", "fig9", "fig10", "ablation_dwf",
                "ablation_persistent")


@pytest.fixture(scope="session")
def preset():
    return get_preset(os.environ.get("REPRO_PRESET", "fast"))


@pytest.fixture(scope="session")
def figures(preset):
    """``{name: data}`` for :data:`FIGURE_NAMES`, as ``repro experiments``
    computes them: one serial sweep per session, shared by their benches."""
    return dict(run_selected(FIGURE_NAMES, preset, jobs=1))


@pytest.fixture(scope="session")
def workloads(preset):
    """Prepared workloads per scene, shared across the bench-only
    ablations.

    Backed by the persistent workload cache (:mod:`repro.harness.cache`):
    the in-process LRU makes repeated requests within a bench session
    cheap, and a second bench run loads kd-trees and reference traces
    from ``~/.cache/repro`` instead of rebuilding them.
    """

    def get(scene: str, ray_kind: str = "primary"):
        return prepare_workload(scene, preset, ray_kind=ray_kind)

    return get


@pytest.fixture(scope="session")
def report():
    """Append rendered experiment sections to the report file."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "report.txt"
    path.write_text("")

    def emit(section: str) -> None:
        print()
        print(section)
        with path.open("a") as handle:
            handle.write(section + "\n\n")

    return emit
