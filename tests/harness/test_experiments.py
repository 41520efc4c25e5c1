"""Experiment entry points: structure checks at tiny scale."""

import pytest

from repro.harness import experiments
from repro.harness.presets import get_preset
from repro.harness.runner import config_for_mode


@pytest.fixture(scope="module")
def preset():
    return get_preset("tiny")


@pytest.fixture(scope="module")
def fig10(preset):
    return experiments.fig10(preset)


class TestTables:
    def test_table1(self):
        data = experiments.table1()
        params = {row["parameter"] for row in data["rows"]}
        assert "Processor Cores" in params
        assert "Spawn LUT Size / Processor Core" in params
        assert "Table I" in data["render"]

    def test_table2(self):
        data = experiments.table2()
        assert len(data["rows"]) == 5
        occupancy = data["occupancy"]
        assert occupancy["microkernel_threads_per_sm"] == 800
        assert occupancy["traditional_block_threads_per_sm"] == 512

    def test_table3(self, preset):
        data = experiments.table3(preset)
        scenes = [row["scene"] for row in data["rows"]]
        assert scenes == ["fairyforest", "atrium", "conference"]
        for row in data["rows"]:
            assert row["triangles"] > 0
            assert row["tree_nodes"] >= row["tree_leaves"]

    def test_table4(self, preset):
        data = experiments.table4(preset)
        assert len(data["rows"]) == 6
        summary = data["summary"]
        assert summary["mean_read_ratio"] > 1.0
        assert summary["mean_total_ratio"] > summary["mean_read_ratio"]
        assert summary["paper_read_ratio"] == 4.4


class TestFigures:
    def test_fig3(self, preset):
        data = experiments.fig3(preset)
        assert data["mode"] == "pdom_block"
        assert 0 < data["simt_efficiency"] <= 1.0
        assert "Figure 3" in data["render"]

    def test_fig7_includes_ratio(self, preset):
        data = experiments.fig7(preset)
        assert data["mode"] == "spawn"
        assert data["ipc_ratio"] > 0
        assert data["paper_ipc_ratio"] == 1.9
        # The core claim holds even at tiny scale: lanes stay fuller.
        baseline = experiments.fig3(preset)
        assert data["mean_active_lanes"] > baseline["mean_active_lanes"]

    def test_fig8_rows(self, preset):
        data = experiments.fig8(preset, modes=("pdom_block", "spawn"))
        assert len(data["rows"]) == 6
        assert all(row["verified"] for row in data["rows"])
        assert "mean_speedup_vs_pdom_block" in data["summary"]

    def test_fig9(self, preset):
        data = experiments.fig9(preset)
        assert data["mode"] == "spawn_conflicts"
        assert data["paper_ipc_ratio"] == 1.3

    def test_fig10(self, fig10):
        fractions = fig10["fractions"]
        assert fractions["mimd_theoretical"] == pytest.approx(1.0)
        for mode in ("pdom_warp", "pdom_ideal", "spawn", "spawn_ideal"):
            assert 0 < fractions[mode] < 1.0

    def test_fig10_ideal_bar_changes_only_the_memory(self, fig10, preset):
        """Each (real, ideal) pair of bars differs in ``memory_ideal``
        alone, so the pair isolates the memory system's effect."""
        modes = list(fig10["results"])
        for real, ideal in zip(modes[0::2], modes[1::2]):
            assert (config_for_mode(real, preset).replace(memory_ideal=True)
                    == config_for_mode(ideal, preset)), (real, ideal)
