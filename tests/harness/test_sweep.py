"""Sweep engine determinism: ``--jobs N`` == ``--jobs 1`` == direct.

Two scenes x three machine modes are swept serially, on four ``repro
worker`` processes, and via direct :func:`run_mode` calls; all three
paths must produce bit-identical :func:`run_stats_digest` fingerprints,
pinned against a golden JSON snapshot (regenerate with ``pytest
--update-golden``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.harness.cache import default_cache
from repro.harness.presets import get_preset
from repro.harness.runner import RunResult, prepare_workload, run_mode
from repro.harness import sweep as sweep_module
from repro.harness.sweep import (
    RetryPolicy,
    SweepJob,
    SweepResults,
    default_checkpoint_path,
    resolve_jobs,
    run_stats_digest,
    run_sweep,
    warm_workloads,
)
from repro.results.store import default_store
from repro.serve.manifest import ShardManifest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sweep_digests.json"

SCENES = ("conference", "fairyforest")
MODES = ("pdom_block", "pdom_warp", "spawn")
#: Bounded so the suite stays fast; every mode still crosses DRAM waits,
#: divergence, and (for spawn) warp formation at this budget.
MAX_CYCLES = 30_000


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    """Hermetic workload cache for the whole module (shared across tests)."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR",
                 str(tmp_path_factory.mktemp("sweep-cache")))
    patch.delenv("REPRO_CACHE", raising=False)
    patch.delenv("REPRO_JOBS", raising=False)
    yield
    patch.undo()


def sweep_jobs():
    return [SweepJob(scene=scene, mode=mode, preset="tiny",
                     max_cycles=MAX_CYCLES)
            for scene in SCENES for mode in MODES]


def digest_map(results):
    return {f"{result.job.scene}:{result.job.mode}":
            run_stats_digest(result.stats) for result in results}


@pytest.fixture(scope="module")
def serial_results(isolated_cache):
    return run_sweep(sweep_jobs(), jobs_n=1)


class TestDeterminism:
    def test_all_jobs_verify(self, serial_results):
        assert len(serial_results) == len(SCENES) * len(MODES)
        assert all(result.verified for result in serial_results)

    def test_pool_matches_serial(self, serial_results):
        warm_workloads(SCENES, "tiny", jobs_n=4)
        parallel = run_sweep(sweep_jobs(), jobs_n=4)
        assert digest_map(parallel) == digest_map(serial_results)

    def test_direct_run_matches_sweep(self, serial_results):
        preset = get_preset("tiny")
        for scene in SCENES:
            workload = prepare_workload(scene, preset)
            direct = run_mode("spawn", workload, max_cycles=MAX_CYCLES)
            via_sweep = serial_results.get(scene, "spawn")
            assert (run_stats_digest(direct.stats)
                    == run_stats_digest(via_sweep.stats))

    def test_golden_digests(self, serial_results, update_golden):
        snapshot = digest_map(serial_results)
        if update_golden:
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
            return
        assert GOLDEN.exists(), (
            "missing golden sweep digests; generate with "
            "pytest --update-golden")
        assert snapshot == json.loads(GOLDEN.read_text())

    def test_second_sweep_skips_all_builds(self, serial_results):
        """Warm cache: rerunning the sweep must do zero kd-tree builds."""
        cache = default_cache()
        builds_before = cache.stats.builds
        hits_before = cache.stats.memory_hits + cache.stats.disk_hits
        rerun = run_sweep(sweep_jobs(), jobs_n=1)
        assert cache.stats.builds == builds_before
        assert (cache.stats.memory_hits + cache.stats.disk_hits
                > hits_before)
        assert digest_map(rerun) == digest_map(serial_results)


class TestSweepResults:
    def test_lookup_by_key(self, serial_results):
        result = serial_results.get("conference", "pdom_warp")
        assert result.job.scene == "conference"
        assert result.num_rays == get_preset("tiny").num_rays
        assert 0.0 < result.simt_efficiency <= 1.0
        assert result.wall_seconds > 0

    def test_missing_key_raises(self, serial_results):
        with pytest.raises(KeyError, match="no sweep result"):
            serial_results.get("conference", "spawn_ideal")

    def test_progress_lines(self):
        lines = []
        run_sweep([SweepJob(scene="conference", mode="pdom_block",
                            preset="tiny", max_cycles=5_000)],
                  jobs_n=1, progress=lines.append)
        assert len(lines) == 1
        assert lines[0].startswith("[1/1] conference:pdom_block")

    def test_duplicate_keys_rejected(self, serial_results):
        first = serial_results.results[0]
        with pytest.raises(SchedulingError, match="duplicate"):
            SweepResults([first, first])

    def test_duplicate_jobs_rejected_before_execution(self):
        job = SweepJob(scene="conference", mode="pdom_block", preset="tiny")
        with pytest.raises(SchedulingError, match="conference"):
            run_sweep([job, job], jobs_n=1)

    def test_zero_ray_completed_fraction(self, serial_results):
        sample = serial_results.results[0]
        empty = RunResult(job=sample.job, stats=sample.stats, num_rays=0,
                          verified=True, wall_seconds=0.0)
        assert empty.completed_fraction == 0.0

    def test_result_job_is_the_swept_job(self, serial_results):
        """run_mode derives each result's job from the workload; it must
        be the job the sweep ran, or manifests could not match it."""
        assert [result.job for result in serial_results] == sweep_jobs()
        seeded = [SweepJob(scene="conference", mode="pdom_block",
                           preset="tiny", ray_kind=ray_kind, seed=3,
                           max_cycles=2_000)
                  for ray_kind in ("primary", "gi")]
        assert [result.job for result in run_sweep(seeded, jobs_n=1)] \
            == seeded

    def test_wall_seconds_exclude_workload_preparation(self, monkeypatch):
        """The sweep times run_mode's body only, as api.simulate does: a
        slow workload load does not show up in the result's wall time."""
        delay = 0.5
        real_prepare = sweep_module.prepare_workload

        def slow_prepare(*args, **kwargs):
            time.sleep(delay)
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "prepare_workload", slow_prepare)
        job = SweepJob(scene="conference", mode="pdom_block", preset="tiny",
                       max_cycles=2_000)
        started = time.perf_counter()
        (result,) = run_sweep([job], jobs_n=1)
        assert time.perf_counter() - started >= delay
        assert 0.0 < result.wall_seconds < delay


class TestSweepJob:
    def test_digest_is_pinned(self):
        """Manifests and warehouse records on disk key on this digest."""
        job = SweepJob("conference", "pdom_block", "tiny")
        assert job.config_digest() == "1123ed5680fdc80c"

    def test_explicit_fast_clock_is_the_default_job(self):
        """The fast clock is the default, so ``fast_forward=True`` and an
        unset clock name one configuration: equal, one key, one digest."""
        default = SweepJob("conference", "pdom_block", "tiny")
        explicit = SweepJob("conference", "pdom_block", "tiny",
                            fast_forward=True)
        assert explicit == default
        assert hash(explicit) == hash(default)
        assert explicit.key == default.key
        assert explicit.config_digest() == default.config_digest()
        assert explicit.fast_forward is None

    def test_exact_clock_is_its_own_job(self):
        default = SweepJob("conference", "pdom_block", "tiny")
        exact = SweepJob("conference", "pdom_block", "tiny",
                         fast_forward=False)
        assert exact != default
        assert exact.config_digest() != default.config_digest()


class TestCheckpointResume:
    def test_resume_serves_without_reexecution(self, serial_results,
                                               tmp_path, monkeypatch):
        manifest = tmp_path / "sweep.jsonl"
        run_sweep(sweep_jobs(), jobs_n=1, checkpoint=manifest)
        assert manifest.exists()

        def explode(job, injector=None):
            raise AssertionError(f"{job.describe()} was re-executed")

        monkeypatch.setattr(sweep_module, "execute_job", explode)
        resumed = run_sweep(sweep_jobs(), jobs_n=1, checkpoint=manifest,
                            resume=True)
        assert digest_map(resumed) == digest_map(serial_results)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            run_sweep(sweep_jobs(), jobs_n=1, resume=True)

    def test_stale_config_digest_reruns(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        job = SweepJob(scene="conference", mode="pdom_block", preset="tiny",
                       max_cycles=5_000)
        run_sweep([job], jobs_n=1, checkpoint=manifest)
        state = ShardManifest(manifest).load()
        assert len(state.history) == 1
        assert state.cached_result(job) is not None
        changed = SweepJob(scene="conference", mode="pdom_block",
                           preset="tiny", max_cycles=6_000)
        assert state.cached_result(changed) is None

    def test_corrupt_lines_tolerated(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        job = SweepJob(scene="conference", mode="pdom_block", preset="tiny",
                       max_cycles=5_000)
        run_sweep([job], jobs_n=1, checkpoint=manifest)
        with manifest.open("a") as handle:
            handle.write("{\"torn\": \n")
            handle.write("not json at all\n")
            handle.write(json.dumps({"schema": "other/1"}) + "\n")
        state = ShardManifest(manifest).load()
        assert len(state.history) == 1
        assert state.cached_result(job) is not None

    def test_serial_checkpoint_appends_results_and_failures(
            self, tmp_path, monkeypatch):
        """One line per settled job, appended — never a rewrite — and a
        serial failure does not stop a later resume from running it."""
        manifest = tmp_path / "sweep.jsonl"
        jobs = [SweepJob(scene="conference", mode=mode, preset="tiny",
                         max_cycles=5_000) for mode in ("pdom_block", "spawn")]
        monkeypatch.setenv("REPRO_FAULT_SPEC", "exception@conference:spawn*2")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
        partial = run_sweep(jobs, jobs_n=1, strict=False, checkpoint=manifest,
                            retry=RetryPolicy(max_attempts=2,
                                              backoff_seconds=0.0))
        kinds = [json.loads(line)["kind"]
                 for line in manifest.read_text().splitlines()]
        assert kinds == ["result", "failure"]
        assert len(partial.failures) == 1
        before = manifest.read_text()
        resumed = run_sweep(jobs, jobs_n=1, checkpoint=manifest, resume=True)
        assert resumed.ok
        assert manifest.read_text().startswith(before)
        assert len(manifest.read_text().splitlines()) == 3

    def test_crash_then_resume_matches_golden(self, serial_results,
                                              tmp_path, monkeypatch):
        """The acceptance path: a sweep loses one job to a crashing
        worker, returns partial results, and ``resume`` completes the rest
        bit-identically to the uninterrupted serial run."""
        manifest = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_FAULT_SPEC", "crash@fairyforest:spawn*3")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
        partial = run_sweep(
            sweep_jobs(), jobs_n=2, strict=False, checkpoint=manifest,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0))
        assert len(partial) == len(SCENES) * len(MODES) - 1
        assert len(partial.failures) == 1
        assert partial.failures[0].job.describe() == "fairyforest:spawn"
        assert not partial.ok

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        lines = []
        resumed = run_sweep(sweep_jobs(), jobs_n=1, checkpoint=manifest,
                            resume=True, progress=lines.append)
        assert resumed.ok
        assert digest_map(resumed) == digest_map(serial_results)
        assert sum("resumed from checkpoint" in line for line in lines) \
            == len(SCENES) * len(MODES) - 1


#: The directory env vars a run appends to, each with the call that
#: resolves it; a bad value must fail there, naming the variable.
APPEND_DIRS = (
    ("REPRO_CHECKPOINT_DIR", lambda: default_checkpoint_path("campaign")),
    ("REPRO_RESULTS_DIR", default_store),
)


class TestCheckpointDirOverride:
    def test_default_lives_under_the_cache_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        path = default_checkpoint_path("experiments-tiny")
        assert path.name == "experiments-tiny.jsonl"
        assert path.parent.name == "checkpoints"

    def test_env_override_redirects_and_creates(self, tmp_path,
                                                monkeypatch):
        target = tmp_path / "shared" / "ckpt"
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(target))
        path = default_checkpoint_path("campaign")
        assert path == target / "campaign.jsonl"
        assert target.is_dir()  # created eagerly, before any sweep runs

    def test_uncreatable_override_raises_config_error(self, tmp_path,
                                                      monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("a plain file, not a directory\n")
        for name, resolve in APPEND_DIRS:
            monkeypatch.setenv(name, str(blocker / "sub"))
            with pytest.raises(ConfigError,
                               match=f"{name}=.* cannot be created"):
                resolve()

    def test_relative_override_pinned_to_first_cwd(self, tmp_path,
                                                   monkeypatch):
        """A worker that chdirs later must not open a second manifest."""
        anchor = tmp_path / "anchor"
        elsewhere = tmp_path / "elsewhere"
        anchor.mkdir(), elsewhere.mkdir()
        monkeypatch.chdir(anchor)
        # A unique relative spelling: resolve_env_dir caches per value.
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                           f"rel-ckpt-{tmp_path.name}")
        first = default_checkpoint_path("campaign")
        monkeypatch.chdir(elsewhere)
        second = default_checkpoint_path("campaign")
        assert first == second
        assert first.parent == anchor / f"rel-ckpt-{tmp_path.name}"
        assert not (elsewhere / f"rel-ckpt-{tmp_path.name}").exists()

    def test_unwritable_override_raises_config_error(self, tmp_path,
                                                     monkeypatch):
        if os.geteuid() == 0:
            pytest.skip("running as root; every directory is writable")
        target = tmp_path / "readonly"
        target.mkdir()
        target.chmod(0o555)
        try:
            for name, resolve in APPEND_DIRS:
                monkeypatch.setenv(name, str(target))
                with pytest.raises(ConfigError,
                                   match=f"{name}=.* is not writable"):
                    resolve()
        finally:
            target.chmod(0o755)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_non_integer_env_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ConfigError, match="'auto'"):
            resolve_jobs()

    def test_empty_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_jobs() == (os.cpu_count() or 1)


def test_api_import_loads_no_process_pool():
    """Only ``warm_workloads``' parallel branch uses a process pool, so
    importing the API (every ``repro run`` and ``repro worker`` does)
    loads neither ``concurrent.futures`` nor ``multiprocessing``."""
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.api; "
            "print(sorted(name for name in sys.modules "
            "if name in ('concurrent.futures', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=src,
                          env={"PYTHONPATH": src, "PATH": ""})
    assert proc.stdout.strip() == "[]"
