"""Ablation experiment functions and CSV export (tiny preset)."""

import csv
import dataclasses

import numpy as np
import pytest

from repro.harness import experiments
from repro.harness.presets import get_preset
from repro.harness.runner import prepare_workload


@pytest.fixture(scope="module")
def preset():
    return get_preset("tiny")


@pytest.fixture(scope="module")
def workload(preset):
    return prepare_workload("conference", preset)


class TestAblationDWF:
    def test_structure(self, preset, workload):
        data = experiments.ablation_dwf(preset, workload)
        assert data["verified"]
        mechanisms = [row["mechanism"] for row in data["rows"]]
        assert mechanisms == ["PDOM (stack)", "DWF (idealized)",
                              "dynamic µ-kernels"]
        assert "Ablation" in data["render"]

    def test_all_complete_at_tiny_scale(self, preset, workload):
        data = experiments.ablation_dwf(preset, workload)
        for row in data["rows"]:
            assert row["rays_done"] == workload.num_rays


class TestAblationPersistent:
    def test_structure(self, preset, workload):
        data = experiments.ablation_persistent(preset, workload)
        assert data["verified"]
        approaches = [row["approach"] for row in data["rows"]]
        assert "persistent threads" in approaches

    def test_spawn_efficiency_highest(self, preset, workload):
        data = experiments.ablation_persistent(preset, workload)
        rows = {row["approach"]: row for row in data["rows"]}
        assert (rows["dynamic µ-kernels"]["efficiency"]
                > rows["grid launch (PDOM)"]["efficiency"])


def with_moved_t(workload):
    """The workload with every reference ``t`` moved (misses included)
    and every reference triangle kept."""
    reference = workload.reference
    t = np.where(np.isinf(reference.t), 1.0, reference.t + 1.0)
    return dataclasses.replace(
        workload, reference=dataclasses.replace(reference, t=t))


@pytest.mark.parametrize("name,row", (
    ("ablation_dwf", "DWF (idealized)"),
    ("ablation_persistent", "persistent threads")))
def test_ablation_checks_t_as_well_as_triangle(preset, workload, name, row):
    """The ablations verify with run_mode's check, so a completed ray
    whose ``t`` disagrees with the reference fails even when its triangle
    matches (the unchanged workload verifies: see the classes above)."""
    short = dataclasses.replace(preset, max_cycles=120_000)
    data = getattr(experiments, name)(short, with_moved_t(workload))
    rows = {entry.get("mechanism", entry.get("approach")): entry
            for entry in data["rows"]}
    assert rows[row]["rays_done"] > 0
    assert not data["verified"]


class TestCSVExport:
    def test_export_all(self, preset, tmp_path):
        paths = experiments.export_all_csv(preset, str(tmp_path))
        assert len(paths) == 8
        names = {p.rsplit("/", 1)[-1] for p in paths}
        assert names == {"table2.csv", "table3.csv", "table4.csv",
                         "fig8.csv", "fig3.csv", "fig7.csv", "fig9.csv",
                         "fig10.csv"}
        for path in paths:
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 2  # header + data
