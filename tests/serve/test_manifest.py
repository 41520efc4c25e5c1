"""Sweep-manifest contracts: claims, crash tolerance, bit-identity.

The claim-contention tests drive two workers over one manifest — in
threads for speed, and as real ``repro worker`` subprocesses through
``run_sweep(jobs_n=2)`` for the end-to-end acceptance path — and assert
the two invariants the protocol promises: no job executes twice, and no
job is dropped. The merge tests pin the parallel digests against a serial
``run_sweep(jobs_n=1)``; the driver tests replace the worker command to
reach the crash and hard-hang paths.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading

import pytest

from repro.errors import ConfigError, SweepError
from repro.harness import sweep as sweep_module
from repro.harness.sweep import (
    RetryPolicy,
    SweepJob,
    run_stats_digest,
    run_sweep,
)
from repro.serve import manifest as manifest_module
from repro.serve.manifest import ManifestState, ShardManifest
from repro.serve.worker import run_worker, worker_ident

MAX_CYCLES = 20_000


def sweep_jobs():
    return [SweepJob(scene="conference", mode=mode, preset="tiny",
                     max_cycles=MAX_CYCLES)
            for mode in ("pdom_block", "pdom_warp", "spawn")]


def digest_map(results):
    return {result.job.describe(): run_stats_digest(result.stats)
            for result in results}


@pytest.fixture(scope="module")
def serial_results(isolated_cache):
    return run_sweep(sweep_jobs(), jobs_n=1)


def explode(job, injector=None):
    raise AssertionError(f"{job.describe()} was re-executed")


class TestClaimProtocol:
    def test_first_claim_wins(self, tmp_path):
        jobs = sweep_jobs()
        manifest = ShardManifest.create(tmp_path / "m.jsonl", jobs)
        assert manifest.claim(jobs[0], "alice") is True
        assert manifest.claim(jobs[0], "bob") is False
        assert manifest.claim(jobs[1], "bob") is True
        state = manifest.load()
        assert state.claims[ManifestState.ident(jobs[0])] == "alice"
        assert state.claims[ManifestState.ident(jobs[1])] == "bob"

    def test_create_rejects_empty_and_duplicates(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            ShardManifest.create(tmp_path / "e.jsonl", [])
        job = sweep_jobs()[0]
        with pytest.raises(Exception, match="duplicate"):
            ShardManifest.create(tmp_path / "d.jsonl", [job, job])

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        jobs = sweep_jobs()
        manifest = ShardManifest.create(tmp_path / "m.jsonl", jobs)
        with manifest.path.open("a") as handle:
            handle.write('{"torn": \n')
            handle.write("noise\n")
            handle.write(json.dumps({"schema": "other/1"}) + "\n")
        state = manifest.load()
        assert [job.key for job in state.jobs] == [job.key for job in jobs]
        assert manifest.claim(jobs[0], "carol") is True

    def test_resume_publishes_only_jobs_without_a_result(
            self, tmp_path, serial_results, monkeypatch):
        jobs = sweep_jobs()
        path = tmp_path / "m.jsonl"
        run_sweep(jobs[:1], jobs_n=1, checkpoint=path)
        resumed = run_sweep(jobs, jobs_n=2, checkpoint=path, resume=True)
        assert digest_map(resumed) == digest_map(serial_results)
        state = ShardManifest(path).load()
        assert [job.key for job in state.jobs] == [job.key for job in jobs[1:]]
        # everything has a result now: a second resume executes nothing
        monkeypatch.setattr(sweep_module, "execute_job", explode)
        before = path.read_text()
        again = run_sweep(jobs, jobs_n=2, checkpoint=path, resume=True)
        assert digest_map(again) == digest_map(serial_results)
        assert path.read_text() == before

    def test_worker_ident_is_unique_without_rng(self):
        assert worker_ident("shard3") == "shard3"
        idents = {worker_ident() for _ in range(16)}
        assert len(idents) == 16

    def test_worker_rejects_missing_manifest(self, tmp_path):
        """A typo'd --manifest must fail loudly, not exit 0 having
        'drained' a campaign that never existed."""
        with pytest.raises(ConfigError, match="not found"):
            run_worker(tmp_path / "no-such-campaign.jsonl", once=True)

    def test_worker_follows_the_manifest_retry_policy(self, tmp_path,
                                                      monkeypatch):
        jobs = sweep_jobs()[:1]
        manifest = ShardManifest.create(
            tmp_path / "m.jsonl", jobs,
            RetryPolicy(max_attempts=2, backoff_seconds=0.0))
        monkeypatch.setattr(sweep_module, "execute_job", explode)
        assert run_worker(manifest.path, worker="w", once=True) == 1
        state = manifest.load()
        record = state.failures[ManifestState.ident(jobs[0])]
        assert record["attempts"] == 2
        assert state.attempts[ManifestState.ident(jobs[0])] == 2

    def test_requeue_reopens_and_counts_the_attempt(self, tmp_path):
        job = sweep_jobs()[0]
        manifest = ShardManifest.create(tmp_path / "m.jsonl", [job])
        assert manifest.claim(job, "dead") is True
        manifest.requeue(job, "dead", "crash", "exit 66")
        state = manifest.load()
        assert state.is_open(job)
        assert manifest.claim(job, "next") is True
        assert manifest.load().attempts[ManifestState.ident(job)] == 2

    def test_new_campaign_ignores_earlier_claims_and_failures(self,
                                                              tmp_path):
        job = sweep_jobs()[0]
        manifest = ShardManifest.create(tmp_path / "m.jsonl", [job])
        manifest.claim(job, "dead-worker")
        manifest.record_failure(job, "exception", "BoomError: no")
        ShardManifest.create(manifest.path, [job])
        state = manifest.load()
        assert state.is_open(job)
        assert state.attempts == {}


class TestClaimContention:
    def test_two_workers_never_double_execute_or_drop(self, tmp_path,
                                                      serial_results):
        """The satellite-4 acceptance test, in-process for determinism:
        two concurrent claim loops over one manifest must partition the
        jobs exactly — every job executed once, by exactly one worker."""
        jobs = sweep_jobs()
        manifest = ShardManifest.create(tmp_path / "m.jsonl", jobs)
        counts: dict[str, int] = {}

        def work(ident):
            counts[ident] = run_worker(manifest.path, worker=ident,
                                       once=True)

        threads = [threading.Thread(target=work, args=(f"w{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(counts.values()) == len(jobs)  # none dropped, none twice
        state = manifest.load()
        assert state.settled == len(jobs)
        # every job has exactly one result record and one winning claim
        for job in jobs:
            ident = ManifestState.ident(job)
            assert ident in state.results
            assert state.claims[ident] in counts

    def test_claim_losers_cost_no_execution(self, tmp_path, monkeypatch):
        """A worker that loses every claim race executes nothing."""
        jobs = sweep_jobs()[:1]
        manifest = ShardManifest.create(tmp_path / "m.jsonl", jobs)
        assert manifest.claim(jobs[0], "winner") is True

        monkeypatch.setattr(sweep_module, "execute_job", explode)
        assert run_worker(manifest.path, worker="loser", once=True) == 0


class TestShardedSweep:
    """``run_sweep(jobs_n > 1)``: worker processes on one manifest."""

    def test_subprocess_shards_match_serial_bit_for_bit(self, tmp_path,
                                                        serial_results):
        """The tentpole acceptance criterion: a 2-worker sweep (real
        ``repro worker`` subprocesses on a shared manifest) merges to
        per-job ``run_stats_digest`` values identical to serial."""
        merged = run_sweep(sweep_jobs(), jobs_n=2,
                           checkpoint=tmp_path / "m.jsonl")
        assert digest_map(merged) == digest_map(serial_results)
        assert merged.ok
        state = ShardManifest(tmp_path / "m.jsonl").load()
        assert state.settled == len(sweep_jobs())
        assert len(set(state.claims.values())) <= 2

    def test_temporary_manifest_is_removed(self, tmp_path, serial_results,
                                           monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        merged = run_sweep(sweep_jobs(), jobs_n=2)
        assert digest_map(merged) == digest_map(serial_results)
        assert list(tmp_path.iterdir()) == []

    def test_driver_completes_jobs_dead_workers_abandoned(self, tmp_path,
                                                          serial_results):
        """A claim with no result (its worker died in an earlier run)
        does not block a resumed run: the job runs again."""
        jobs = sweep_jobs()
        manifest = ShardManifest.create(tmp_path / "m.jsonl", jobs)
        manifest.claim(jobs[0], "dead-worker")  # claims, never finishes
        merged = run_sweep(jobs, jobs_n=2, checkpoint=manifest.path,
                           resume=True)
        assert digest_map(merged) == digest_map(serial_results)

    def test_rerun_keeps_earlier_lines(self, tmp_path, serial_results):
        """``resume=False`` runs every job again and appends; the lines
        already in the file stay."""
        path = tmp_path / "m.jsonl"
        run_sweep(sweep_jobs(), jobs_n=1, checkpoint=path)
        before = path.read_text()
        lines = []
        rerun = run_sweep(sweep_jobs(), jobs_n=2, checkpoint=path,
                          progress=lines.append)
        assert digest_map(rerun) == digest_map(serial_results)
        assert path.read_text().startswith(before)
        assert not any("resumed" in line for line in lines)

    def test_resume_serves_recorded_results_without_reexecution(
            self, tmp_path, serial_results, monkeypatch):
        jobs = sweep_jobs()
        run_sweep(jobs, jobs_n=2, checkpoint=tmp_path / "m.jsonl")
        monkeypatch.setattr(sweep_module, "execute_job", explode)
        merged = run_sweep(jobs, jobs_n=2, checkpoint=tmp_path / "m.jsonl",
                           resume=True)
        assert digest_map(merged) == digest_map(serial_results)

    def test_strict_failure_raises_with_partial_results(self, tmp_path,
                                                        monkeypatch):
        jobs = sweep_jobs()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "exception@conference:spawn*9")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
        with pytest.raises(SweepError, match="conference:spawn") as info:
            run_sweep(jobs, jobs_n=2, checkpoint=tmp_path / "m.jsonl",
                      retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0))
        partial = info.value.results
        assert len(partial.failures) == 1
        assert partial.failures[0].attempts == 2
        assert len(partial.results) == len(jobs) - 1

    def test_worker_failure_records_reach_the_merge(self, tmp_path):
        jobs = sweep_jobs()[:1]
        manifest = ShardManifest.create(tmp_path / "m.jsonl", jobs)
        manifest.claim(jobs[0], "w0")
        manifest.record_failure(jobs[0], "exception", "BoomError: no",
                                attempts=3)
        state = manifest.load()
        ident = ManifestState.ident(jobs[0])
        assert state.failures[ident]["error"] == "BoomError: no"
        assert state.failures[ident]["failure_kind"] == "exception"
        assert state.is_settled(jobs[0])


def _recording_popen(monkeypatch) -> list:
    started = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        proc = real(*args, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(manifest_module.subprocess, "Popen", popen)
    return started


#: A worker that claims the first open job and then hangs where SIGALRM
#: cannot reach it: only the driver's watchdog can end the attempt.
HARD_HANG = """
import signal, sys, time
from repro.serve.manifest import ShardManifest
signal.signal(signal.SIGALRM, signal.SIG_IGN)
manifest = ShardManifest(sys.argv[1])
state = manifest.load()
open_jobs = [job for job in state.jobs if state.is_open(job)]
if open_jobs and manifest.claim(open_jobs[0], sys.argv[2]):
    while True:
        time.sleep(60)
"""


class TestDriver:
    """``drive_workers``' crash and hang paths, with stand-in workers."""

    def test_hard_hang_is_killed_and_costs_timeout_attempts(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            manifest_module, "worker_command",
            lambda path, ident: [sys.executable, "-c", HARD_HANG,
                                 str(path), ident])
        started = _recording_popen(monkeypatch)
        lines = []
        swept = run_sweep(sweep_jobs()[:2], jobs_n=2, strict=False,
                          progress=lines.append,
                          checkpoint=tmp_path / "m.jsonl",
                          retry=RetryPolicy(max_attempts=2,
                                            backoff_seconds=0.0,
                                            timeout_seconds=0.2))
        assert len(swept) == 0
        assert [(f.kind, f.attempts) for f in swept.failures] \
            == [("timeout", 2), ("timeout", 2)]
        assert sum("[retry]" in line for line in lines) == 2
        assert len(started) >= 4  # two replacements after the kills
        assert all(proc.poll() is not None for proc in started)

    def test_workers_that_die_before_claiming_raise(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(
            manifest_module, "worker_command",
            lambda path, ident: [sys.executable, "-c",
                                 "raise SystemExit(3)"])
        started = _recording_popen(monkeypatch)
        with pytest.raises(SweepError, match="before claiming"):
            run_sweep(sweep_jobs(), jobs_n=2, checkpoint=tmp_path / "m.jsonl")
        assert all(proc.poll() is not None for proc in started)

    def test_workers_are_stopped_when_the_driver_raises(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(
            manifest_module, "worker_command",
            lambda path, ident: [sys.executable, "-c", HARD_HANG,
                                 str(path), ident])
        started = _recording_popen(monkeypatch)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(manifest_module.time, "sleep", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(sweep_jobs(), jobs_n=2, checkpoint=tmp_path / "m.jsonl")
        assert len(started) == 2
        assert all(proc.poll() is not None for proc in started)
