"""Shared fixtures for the results-warehouse tests: hermetic env + one run."""

from __future__ import annotations

import pytest

from repro.harness.sweep import SweepJob, execute_job


@pytest.fixture(scope="package", autouse=True)
def isolated_cache(tmp_path_factory):
    """Hermetic workload cache and a recording-off baseline env."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR",
                 str(tmp_path_factory.mktemp("results-cache")))
    patch.delenv("REPRO_CACHE", raising=False)
    patch.delenv("REPRO_JOBS", raising=False)
    patch.delenv("REPRO_RESULTS_DIR", raising=False)
    yield
    patch.undo()


def tiny_job(mode: str = "spawn", seed: int = 0) -> SweepJob:
    return SweepJob(scene="conference", mode=mode, preset="tiny",
                    seed=seed, max_cycles=30_000)


@pytest.fixture(scope="package")
def job_result(isolated_cache):
    """One real executed RunResult, shared by the whole package."""
    return execute_job(tiny_job())
