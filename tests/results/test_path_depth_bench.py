"""The path-depth ablation bench: exact-compare gate, committed grid.

benchmarks/bench_ablation_path_depth.py records *simulation outputs*
(cycles, SIMT efficiency, completed rays), so its committed record is
compared for exact equality. These tests run the real bench module
(imported by path — benchmarks/ is not a package) against synthetic rows
and one genuinely simulated micro-grid, without touching the committed
JSON.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.harness.presets import get_preset

BENCH_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / \
    "bench_ablation_path_depth.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_ablation_path_depth_under_test", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(spec.name, None)


def rows(efficiency: float = 0.5):
    return [{"depth": 1, "mode": "spawn", "cycles": 1000,
             "simt_efficiency": efficiency, "rays_completed": 42,
             "verified": True}]


class TestGridDocument:
    def test_rows_pivot_to_depth_then_mode(self, bench):
        grid = bench._grid_document(rows())
        assert grid == {"1": {"spawn": {
            "cycles": 1000, "simt_efficiency": 0.5, "rays_completed": 42}}}


class TestExactCompareGate:
    def committed(self, bench, grid):
        return {"presets": {"tiny": {
            "max_cycles": bench.MAX_CYCLES, "grid": grid}}}

    def test_identical_grid_passes(self, bench):
        committed = self.committed(bench, bench._grid_document(rows()))
        bench._check_committed(committed, "tiny", rows())

    def test_any_field_drift_fails(self, bench):
        committed = self.committed(bench, bench._grid_document(rows()))
        with pytest.raises(AssertionError, match="diverged"):
            bench._check_committed(committed, "tiny", rows(efficiency=0.51))

    def test_unknown_preset_is_not_compared(self, bench):
        bench._check_committed({}, "paper", rows())


class TestCommittedRecord:
    def test_committed_grid_covers_the_full_matrix(self, bench):
        assert bench.BENCH_PATH.exists(), (
            "BENCH_ablation_path_depth.json missing; generate with "
            "REPRO_UPDATE_BENCH=1")
        committed = json.loads(bench.BENCH_PATH.read_text())
        assert committed["schema"] == "repro-bench-ablation-path-depth/1"
        assert committed["scene"] == bench.SCENE
        for entry in committed["presets"].values():
            grid = entry["grid"]
            assert set(grid) == {str(d) for d in bench.DEPTHS}
            for cell in grid.values():
                assert set(cell) == set(bench.MODES)
                for record in cell.values():
                    assert record["cycles"] > 0
                    assert 0.0 < record["simt_efficiency"] <= 1.0


class TestRealGrid:
    def test_micro_grid_simulates_and_verifies(self, bench, monkeypatch,
                                               tmp_path):
        """One genuine cell through the bench's own grid runner."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(bench, "DEPTHS", (1,))
        monkeypatch.setattr(bench, "MODES", ("spawn",))
        monkeypatch.setattr(bench, "MAX_CYCLES", 60_000)
        preset = dataclasses.replace(get_preset("path-tiny"),
                                     image_width=8, image_height=8)
        [row] = bench._run_grid(preset)
        assert row["depth"] == 1 and row["mode"] == "spawn"
        assert row["verified"]
        assert 0.0 < row["simt_efficiency"] <= 1.0
        assert 0 < row["cycles"] <= 60_000
