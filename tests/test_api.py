"""The ``repro.api`` façade, config validation, and stats serialization."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro
from repro import api
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.harness.presets import get_preset
from repro.harness.runner import RunResult
from repro.kernels.microkernels import microkernel_launch_spec
from repro.obs import TraceSession
from repro.simt.gpu import STATS_VERSION, RunStats

MAX_CYCLES = 20_000


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR",
                 str(tmp_path_factory.mktemp("api-cache")))
    patch.delenv("REPRO_CACHE", raising=False)
    patch.delenv("REPRO_JOBS", raising=False)
    yield
    patch.undo()


@pytest.fixture(scope="module")
def workload():
    return api.build_workload("conference", get_preset("tiny"))


class TestSimulate:
    def test_by_scene_name(self):
        result = api.simulate("conference", "pdom_warp", preset="tiny",
                              max_cycles=MAX_CYCLES)
        assert isinstance(result, RunResult)
        assert result.job.mode == "pdom_warp"
        assert result.stats.cycles <= MAX_CYCLES
        assert result.trace is None

    def test_workload_passthrough(self, workload, monkeypatch):
        """A prepared workload is simulated as-is, never prepared again."""
        def no_prepare(*args, **kwargs):
            raise AssertionError("simulate prepared a workload it was given")

        monkeypatch.setattr(api, "prepare_workload", no_prepare)
        result = api.simulate(workload, "spawn", max_cycles=MAX_CYCLES)
        assert result.job == api.SweepJob(
            scene=workload.scene_name, mode="spawn",
            preset=workload.preset.name, ray_kind=workload.ray_kind,
            seed=workload.seed, max_cycles=MAX_CYCLES)
        assert result.num_rays == workload.num_rays

    def test_unregistered_preset(self, tmp_path, monkeypatch):
        """A preset outside PRESETS is used as given: the recorded job
        carries its name, and nothing looks the name up again."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ws"))
        preset = dataclasses.replace(get_preset("tiny"), name="tiny-custom")
        result = api.simulate("conference", "pdom_warp", preset=preset,
                              max_cycles=MAX_CYCLES)
        assert result.job.preset == "tiny-custom"
        [record] = api.ResultsStore(tmp_path / "ws").load()
        assert record["job"]["preset"] == "tiny-custom"

    def test_probes_true_attaches_default_session(self, workload):
        result = api.simulate(workload, "spawn", max_cycles=MAX_CYCLES,
                              probes=True)
        assert isinstance(result.trace, TraceSession)
        assert result.trace.interval == 512
        assert result.trace.cycles == result.stats.cycles

    def test_probes_int_sets_interval(self, workload):
        result = api.simulate(workload, "spawn", max_cycles=MAX_CYCLES,
                              probes=256)
        assert result.trace.interval == 256

    def test_probes_session_used_as_is(self, workload):
        session = TraceSession(interval=1024, events=False)
        result = api.simulate(workload, "spawn", max_cycles=MAX_CYCLES,
                              probes=session)
        assert result.trace is session

    def test_probes_false_means_off(self, workload):
        result = api.simulate(workload, "spawn", max_cycles=MAX_CYCLES,
                              probes=False)
        assert result.trace is None

    def test_probes_bad_type(self, workload):
        with pytest.raises(ConfigError, match="probes"):
            api.simulate(workload, "spawn", probes="yes")

    def test_unknown_mode(self, workload):
        with pytest.raises(ConfigError, match="unknown mode"):
            api.simulate(workload, "warp_pdom")

    def test_matches_runner_bit_for_bit(self, workload):
        via_api = api.simulate(workload, "pdom_warp", max_cycles=MAX_CYCLES)
        from repro.harness.runner import run_mode
        direct = run_mode("pdom_warp", workload, max_cycles=MAX_CYCLES)
        assert via_api.stats.to_dict() == direct.stats.to_dict()


class TestSweep:
    def test_accepts_mixed_job_specs(self):
        results = api.sweep(
            [("conference", "pdom_warp", "tiny"),
             {"scene": "conference", "mode": "spawn", "preset": "tiny",
              "max_cycles": MAX_CYCLES},
             api.SweepJob("conference", "pdom_block", "tiny",
                          max_cycles=MAX_CYCLES)],
            jobs_n=1)
        assert [result.job.mode for result in results] == \
            ["pdom_warp", "spawn", "pdom_block"]
        assert len(results) == 3
        assert results.get("conference", "spawn").job.max_cycles == MAX_CYCLES


class TestLazyExports:
    def test_package_level_names(self):
        assert repro.simulate is api.simulate
        assert repro.sweep is api.sweep
        assert repro.TraceSession is TraceSession
        assert repro.MODES is api.MODES

    def test_dir_lists_facade(self):
        names = dir(repro)
        assert "simulate" in names and "sweep" in names

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_name


class TestConfigValidation:
    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigError, match="Did you mean 'num_sms'"):
            GPUConfig().replace(num_sm=2)

    def test_unknown_nested_key_suggests(self):
        with pytest.raises(ConfigError, match="Did you mean"):
            GPUConfig().replace(spawn_enable=True)

    def test_shorthand_reaches_nested_config(self):
        config = GPUConfig().replace(spawn_enabled=True, memory_ideal=True)
        assert config.spawn.enabled and config.memory.ideal

    def test_whole_and_shorthand_conflict(self):
        config = GPUConfig()
        with pytest.raises(ConfigError, match="not both"):
            config.replace(memory=config.memory, memory_ideal=True)

    def test_launch_spec_unknown_field(self):
        spec = microkernel_launch_spec(64)
        with pytest.raises(ConfigError, match="unknown LaunchSpec field"):
            spec.replace(blocksize=16)

    def test_launch_spec_replace_revalidates(self):
        spec = microkernel_launch_spec(64)
        with pytest.raises(ConfigError, match="state_words"):
            spec.replace(state_words=-1)
        assert spec.replace(block_size=16).block_size == 16


class TestStatsSerialization:
    @pytest.fixture(scope="class")
    def stats(self, workload):
        return api.simulate(workload, "spawn", max_cycles=MAX_CYCLES).stats

    def test_round_trip(self, stats):
        document = stats.to_dict()
        assert document["version"] == STATS_VERSION
        rebuilt = RunStats.from_dict(document)
        assert rebuilt.to_dict() == document
        assert rebuilt.ipc == stats.ipc

    def test_pickle_goes_through_versioned_schema(self, stats):
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.to_dict() == stats.to_dict()

    def test_version_mismatch_rejected(self, stats):
        document = stats.to_dict()
        document["version"] = 999
        with pytest.raises(ConfigError, match="version"):
            RunStats.from_dict(document)

    @pytest.mark.parametrize("key,value", (("scheduler", "scan"),
                                           ("executor", "reference"),
                                           ("divergence_sample_interval", 1)))
    def test_removed_config_key_is_a_config_error(self, stats, key, value):
        """Documents written while ``GPUConfig`` still had the executor,
        scheduler and divergence-sampling knobs carry those keys; they
        fail with the same did-you-mean error as ``replace``, not a bare
        TypeError."""
        document = stats.to_dict()
        document["config"][key] = value
        with pytest.raises(ConfigError,
                           match=f"unknown GPUConfig option '{key}'"):
            RunStats.from_dict(document)

    def test_config_round_trips_through_from_dict(self):
        config = GPUConfig().replace(num_sms=4, memory_ideal=True,
                                     spawn_enabled=True)
        assert GPUConfig.from_dict(config.to_dict()) == config

    def test_digest_stable_under_round_trip(self, stats):
        rebuilt = RunStats.from_dict(stats.to_dict())
        assert (api.run_stats_digest(rebuilt)
                == api.run_stats_digest(stats))
