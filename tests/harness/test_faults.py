"""Sweep fault tolerance: every recovery path, deterministically.

Faults are injected through :class:`~repro.harness.sweep.FaultInjector`
(``REPRO_FAULT_SPEC``), whose firing counts live in exclusive token files
so they hold across worker processes and their replacements — no flaky
sleeps or signal races. Each test asserts both the recovery behaviour
*and* that the recovered sweep is bit-identical to a clean serial run.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, FaultInjectionError, SweepError
from repro.harness.sweep import (
    FaultInjector,
    RetryPolicy,
    SweepJob,
    run_stats_digest,
    run_sweep,
)

#: Small cycle budget: recovery mechanics don't need converged statistics.
MAX_CYCLES = 5_000


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR",
                 str(tmp_path_factory.mktemp("faults-cache")))
    patch.delenv("REPRO_CACHE", raising=False)
    patch.delenv("REPRO_JOBS", raising=False)
    patch.delenv("REPRO_FAULT_SPEC", raising=False)
    patch.delenv("REPRO_FAULT_DIR", raising=False)
    yield
    patch.undo()


def fault_jobs():
    jobs = [SweepJob(scene="conference", mode=mode, preset="tiny",
                     max_cycles=MAX_CYCLES)
            for mode in ("pdom_block", "pdom_warp", "spawn")]
    jobs.append(SweepJob(scene="fairyforest", mode="pdom_block",
                         preset="tiny", max_cycles=MAX_CYCLES))
    return jobs


def digests(results):
    return [run_stats_digest(result.stats) for result in results]


@pytest.fixture(scope="module")
def reference(isolated_cache):
    """Clean serial run — the bit-identity baseline for every recovery."""
    return digests(run_sweep(fault_jobs(), jobs_n=1))


@pytest.fixture
def inject(monkeypatch, tmp_path):
    """Arm ``REPRO_FAULT_SPEC`` with a fresh cross-process state dir."""

    def arm(spec: str) -> None:
        monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "fault-state"))

    return arm


class TestFaultSpec:
    def test_parse_clauses(self):
        injector = FaultInjector.parse(
            "crash@conference:spawn, hang@fairyforest:pdom_block*2")
        kinds = [(c.kind, c.scene, c.mode, c.count) for c in injector.clauses]
        assert kinds == [("crash", "conference", "spawn", 1),
                        ("hang", "fairyforest", "pdom_block", 2)]

    @pytest.mark.parametrize("spec", [
        "segfault@conference:spawn",     # unknown kind
        "crash@conference",              # missing mode
        "crash conference:spawn",        # missing @
        "crash@conference:spawn*many",   # non-integer count
    ])
    def test_bad_spec_raises(self, spec):
        with pytest.raises(ConfigError):
            FaultInjector.parse(spec)

    def test_firing_count_is_exact(self, tmp_path):
        injector = FaultInjector.parse("exception@conference:spawn*2",
                                       state_dir=tmp_path / "state")
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        for _ in range(2):
            with pytest.raises(FaultInjectionError):
                injector.fire(job)
        injector.fire(job)  # third execution: the fault budget is spent

    def test_non_matching_job_untouched(self, tmp_path):
        injector = FaultInjector.parse("exception@conference:spawn",
                                       state_dir=tmp_path / "state")
        injector.fire(SweepJob(scene="conference", mode="pdom_warp",
                               preset="tiny"))


class TestPoolRecovery:
    """``jobs_n > 1``: ``repro worker`` processes on one manifest."""

    def test_crash_retries_to_identical_results(self, reference, inject):
        inject("crash@conference:spawn")
        swept = run_sweep(fault_jobs(), jobs_n=2,
                          retry=RetryPolicy(backoff_seconds=0.05))
        assert swept.ok
        assert digests(swept) == reference

    def test_persistent_crash_quarantines_only_culprit(self, reference,
                                                       inject):
        inject("crash@conference:spawn*5")
        lines = []
        swept = run_sweep(fault_jobs(), jobs_n=2, strict=False,
                          progress=lines.append,
                          retry=RetryPolicy(max_attempts=3,
                                            backoff_seconds=0.05))
        assert len(swept) == 3
        assert len(swept.failures) == 1
        failure = swept.failures[0]
        assert failure.kind == "crash"
        assert failure.attempts == 3
        assert failure.job.describe() == "conference:spawn"
        # Co-running innocents must never burn a retry attempt.
        assert not [line for line in lines
                    if "[retry]" in line and "spawn" not in line]

    def test_hang_recovers_via_timeout(self, reference, inject):
        inject("hang@conference:pdom_warp")
        swept = run_sweep(fault_jobs(), jobs_n=2,
                          retry=RetryPolicy(timeout_seconds=1.0,
                                            backoff_seconds=0.0))
        assert swept.ok
        assert digests(swept) == reference

    def test_strict_failure_raises_with_partial_results(self, reference,
                                                        inject):
        inject("exception@conference:spawn*5")
        with pytest.raises(SweepError, match="permanently failed") as info:
            run_sweep(fault_jobs(), jobs_n=2,
                      retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0))
        assert len(info.value.failures) == 1
        assert info.value.failures[0].kind == "exception"
        assert len(info.value.results) == 3

    def test_worker_failure_is_final(self, reference, inject):
        """A worker's failure record settles the job: the driver must not
        run it again (a fourth execution would find the fault spent)."""
        inject("exception@conference:spawn*3")
        swept = run_sweep(fault_jobs(), jobs_n=2, strict=False,
                          retry=RetryPolicy(max_attempts=3,
                                            backoff_seconds=0))
        assert len(swept.failures) == 1
        failure = swept.failures[0]
        assert failure.kind == "exception"
        assert failure.attempts == 3
        assert failure.job.describe() == "conference:spawn"
        assert len(swept) == 3


class TestSerialRecovery:
    def test_exception_retried_in_process(self, reference, inject):
        inject("exception@conference:spawn")
        swept = run_sweep(fault_jobs(), jobs_n=1,
                          retry=RetryPolicy(backoff_seconds=0.0))
        assert swept.ok
        assert digests(swept) == reference

    def test_exhausted_retries_quarantine(self, reference, inject):
        inject("exception@conference:spawn*5")
        swept = run_sweep(fault_jobs(), jobs_n=1, strict=False,
                          retry=RetryPolicy(max_attempts=2,
                                            backoff_seconds=0.0))
        assert len(swept) == 3
        assert len(swept.failures) == 1
        assert swept.failures[0].kind == "exception"
        assert "injected exception" in swept.failures[0].error
