"""Harness runner tests (tiny scale)."""

import numpy as np
import pytest

from repro.config import SchedulingModel
from repro.errors import ConfigError
from repro.harness.presets import PRESETS, SimPreset, get_preset
from repro.harness.runner import (
    MODES,
    config_for_mode,
    launch_for_mode,
    mimd_for_workload,
    mimd_rays_per_second,
    prepare_workload,
    run_mode,
)


@pytest.fixture(scope="module")
def tiny_preset():
    return get_preset("tiny")


@pytest.fixture(scope="module")
def tiny_workload(tiny_preset):
    return prepare_workload("conference", tiny_preset)


class TestPresets:
    def test_known_presets(self):
        assert {"tiny", "fast", "paper"} <= set(PRESETS)

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            get_preset("huge")

    def test_num_rays(self):
        preset = get_preset("tiny")
        assert preset.num_rays == preset.image_width * preset.image_height


class TestWorkloadPreparation:
    def test_primary(self, tiny_workload, tiny_preset):
        assert tiny_workload.num_rays == tiny_preset.num_rays
        assert tiny_workload.reference.num_rays == tiny_workload.num_rays
        assert np.all(np.isinf(tiny_workload.t_max))

    @pytest.mark.parametrize("kind", ["shadow", "reflection", "gi"])
    def test_secondary_kinds(self, tiny_preset, kind):
        workload = prepare_workload("conference", tiny_preset, ray_kind=kind)
        assert workload.ray_kind == kind
        assert workload.num_rays >= tiny_preset.num_rays

    def test_unknown_kind_raises(self, tiny_preset):
        with pytest.raises(ConfigError):
            prepare_workload("conference", tiny_preset, ray_kind="photon")


class TestConfigForMode:
    def test_all_modes_valid(self, tiny_preset):
        for mode in MODES:
            config = config_for_mode(mode, tiny_preset)
            config.validate()

    def test_unknown_mode_raises(self, tiny_preset):
        with pytest.raises(ConfigError):
            config_for_mode("warp_voodoo", tiny_preset)

    def test_block_mode(self, tiny_preset):
        config = config_for_mode("pdom_block", tiny_preset)
        assert config.scheduling == SchedulingModel.BLOCK
        assert not config.spawn.enabled

    def test_spawn_modes(self, tiny_preset):
        spawn = config_for_mode("spawn", tiny_preset)
        assert spawn.spawn.enabled and not spawn.spawn.bank_conflicts
        conflicts = config_for_mode("spawn_conflicts", tiny_preset)
        assert conflicts.spawn.bank_conflicts

    def test_ideal_modes(self, tiny_preset):
        assert config_for_mode("pdom_ideal", tiny_preset).memory.ideal
        assert config_for_mode("spawn_ideal", tiny_preset).memory.ideal
        assert not config_for_mode("spawn", tiny_preset).memory.ideal

    def test_launch_selection(self):
        assert "uk_primary" in launch_for_mode("spawn", 16).program.kernels
        assert "trace" in launch_for_mode("pdom_warp", 16).program.kernels


class TestRunMode:
    @pytest.mark.parametrize("mode", ["pdom_block", "pdom_warp", "spawn"])
    def test_run_and_verify(self, tiny_workload, mode):
        result = run_mode(mode, tiny_workload)
        assert result.completed_fraction == pytest.approx(1.0)
        assert result.verify()
        assert result.ipc > 0
        assert 0 < result.simt_efficiency <= 1.0
        assert result.rays_per_second > 0

    def test_max_cycles_override(self, tiny_workload):
        result = run_mode("pdom_warp", tiny_workload, max_cycles=200)
        assert result.stats.cycles <= 200
        assert result.verify()  # partial results still match

    def test_zero_ray_workload_completed_fraction(self, tiny_workload):
        import dataclasses

        result = run_mode("pdom_warp", tiny_workload, max_cycles=200)
        empty = dataclasses.replace(result, num_rays=0)
        assert empty.completed_fraction == 0.0


class TestMIMD:
    def test_mimd_result(self, tiny_workload):
        result = mimd_for_workload(tiny_workload)
        assert result.num_threads == tiny_workload.num_rays
        assert result.cycles > 0

    def test_mimd_bounds_simulation(self, tiny_workload):
        """MIMD theoretical must beat every simulated mode."""
        mimd = mimd_rays_per_second(tiny_workload)
        simulated = run_mode("spawn_ideal", tiny_workload)
        assert mimd > simulated.rays_per_second
