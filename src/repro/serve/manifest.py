"""The sweep manifest: one append-only JSONL log of jobs, claims and results.

A manifest is a single file of ``repro-wire/1`` records (see
:mod:`repro.serve.wire`) on a filesystem every participant can reach. It
is both the sweep checkpoint and the work queue of a parallel run:

- a serial sweep with a checkpoint appends one ``result`` (or
  ``failure``) line per job;
- a parallel run (:func:`drive_workers`) appends a ``campaign`` header
  carrying its :class:`~repro.harness.sweep.RetryPolicy`, then one
  ``job`` record per job to run. Everything after the last header
  belongs to that run;
- a worker bids for an open job by appending a ``claim`` record with
  ``O_APPEND`` (atomic for lines this short). Ties are resolved by file
  order: after appending, the worker re-reads the file, and **the first
  claim line of an open job owns it** — every racer sees the same order,
  so exactly one worker executes each attempt and the losers move on.
  The owner re-appends its claim before every retry, so the claim lines
  count the attempts;
- the owner appends a ``result`` record (the versioned ``RunStats``
  payload) on success, or a ``failure`` record when its retry budget is
  spent. Within a run a failure is final;
- when a worker dies or hangs holding a claim, the driver appends a
  ``requeue`` record: the job is open again and the lost attempt counts.

Every line is appended, never rewritten, so a crashing writer can at
worst tear its own last line, which :meth:`ShardManifest.load` skips.
The simulator is deterministic, so the merged
:class:`~repro.harness.sweep.SweepResults` is bit-identical to a serial
``jobs_n=1`` run (locked down by ``tests/serve/test_manifest.py`` and
the CI service-smoke job).
"""

from __future__ import annotations

import os
import pathlib
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ConfigError, SweepError
from repro.harness.runner import RunResult, SweepJob
from repro.harness.sweep import FailedJob, RetryPolicy, _check_duplicate_jobs
from repro.serve import wire

#: How often the driver re-reads the manifest while its workers run.
POLL_SECONDS = 0.1


@dataclass
class ManifestState:
    """One parsed snapshot of a manifest.

    ``jobs``/``claims``/``attempts``/``results``/``failures`` describe the
    current (last) campaign; ``history`` holds every ``result`` in the
    file, which is what a resumed sweep serves from.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    jobs: list[SweepJob] = field(default_factory=list)
    claims: dict[tuple, str] = field(default_factory=dict)
    attempts: dict[tuple, int] = field(default_factory=dict)
    claim_lines: dict[tuple, int] = field(default_factory=dict)
    results: dict[tuple, dict] = field(default_factory=dict)
    failures: dict[tuple, dict] = field(default_factory=dict)
    history: dict[tuple, dict] = field(default_factory=dict)

    @staticmethod
    def ident(job: SweepJob) -> tuple:
        return (job.key, job.config_digest())

    def is_open(self, job: SweepJob) -> bool:
        """True when nobody holds or has finished ``job``."""
        ident = self.ident(job)
        return ident not in self.claims and not self.is_settled(job)

    def is_settled(self, job: SweepJob) -> bool:
        """True when ``job`` has a result or a recorded failure."""
        ident = self.ident(job)
        return ident in self.results or ident in self.failures

    @property
    def settled(self) -> int:
        return sum(1 for job in self.jobs if self.is_settled(job))

    def held_by(self, worker: str) -> SweepJob | None:
        """The unsettled job ``worker`` holds a claim on, if any."""
        for job in self.jobs:
            if self.claims.get(self.ident(job)) == worker \
                    and not self.is_settled(job):
                return job
        return None

    def outcome(self, job: SweepJob) -> RunResult | FailedJob | None:
        """The settled outcome of ``job`` in this campaign (result wins)."""
        ident = self.ident(job)
        if ident in self.results:
            return wire.result_from_wire(self.results[ident], job=job)
        record = self.failures.get(ident)
        if record is None:
            return None
        return FailedJob(job=job, attempts=int(record["attempts"]),
                         kind=record["failure_kind"], error=record["error"])

    def cached_result(self, job: SweepJob) -> RunResult | None:
        """A result for ``job`` anywhere in the file, or None if absent or
        unreadable (schema drift re-simulates rather than fails)."""
        record = self.history.get(self.ident(job))
        if record is None:
            return None
        try:
            return wire.result_from_wire(record, job=job)
        except (ConfigError, KeyError, TypeError, ValueError):
            return None

    def _claim(self, ident: tuple, worker: str, line: int) -> None:
        owner = self.claims.setdefault(ident, worker)
        if owner == worker:  # a new owner, or the owner's retry
            self.attempts[ident] = self.attempts.get(ident, 0) + 1
            self.claim_lines[ident] = line


class ShardManifest:
    """Append-only job/claim/result manifest shared by sweep workers.

    All mutation is line-append (``open(..., "a")`` → ``O_APPEND``);
    :meth:`load` tolerates torn tail lines and foreign records, so a
    crashing writer can never corrupt the campaign — at worst its last
    line is ignored and the job is executed again.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self._state = ManifestState()
        self._offset = 0   # bytes of complete lines parsed into _state
        self._lines = 0

    @classmethod
    def create(cls, path: str | pathlib.Path, jobs: Iterable[SweepJob],
               retry: RetryPolicy | None = None) -> "ShardManifest":
        """Open a campaign: a header carrying ``retry``, then one ``job``
        record per job, appended in one write.

        Lines already in the file stay; earlier claims, failures and
        results no longer count for the new campaign's jobs.
        """
        job_list = list(jobs)
        _check_duplicate_jobs(job_list)
        if not job_list:
            raise ConfigError("refusing to create an empty shard manifest")
        manifest = cls(path)
        retry = RetryPolicy() if retry is None else retry
        manifest._append(wire.campaign_to_wire(retry),
                         *(wire.job_to_wire(job) for job in job_list))
        return manifest

    def _append(self, *records: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write("".join(wire.dump_line(record) + "\n"
                                 for record in records))

    def load(self) -> ManifestState:
        """The last campaign, plus every result in the file.

        The file only grows, so each call parses just the complete lines
        appended since the previous call on this object (a torn tail line
        waits until its writer finishes it) and returns the updated state.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return ManifestState()
        end = data.rfind(b"\n") + 1
        self._offset += end
        for line in data[:end].decode(errors="replace").splitlines():
            self._lines += 1
            record = wire.parse_line(line)
            if record is not None:
                try:
                    self._apply(record)
                except (ConfigError, KeyError, TypeError, ValueError):
                    pass  # damaged record: skip, never fail the campaign
        return self._state

    def _apply(self, record: dict) -> None:
        state = self._state
        kind = record.get("kind")
        if kind == "campaign":
            self._state = ManifestState(retry=wire.retry_from_wire(record),
                                        history=state.history)
        elif kind == "job":
            job = wire.job_from_wire(record)
            if job not in state.jobs:
                state.jobs.append(job)
        elif kind == "claim":
            state._claim(wire.record_key(record), str(record["worker"]),
                         self._lines)
        elif kind == "requeue":
            ident = wire.record_key(record)
            if state.claims.get(ident) == str(record["worker"]):
                del state.claims[ident]
        elif kind == "result":
            ident = wire.record_key(record)
            state.results[ident] = record
            state.history[ident] = record
        elif kind == "failure":
            state.failures[wire.record_key(record)] = record

    def claim(self, job: SweepJob, worker: str) -> bool:
        """Bid for ``job``; True iff this worker owns it afterwards.

        Appending is the bid, the re-read is the adjudication: every
        worker that appended sees the same file order, so they all agree
        on the single winner without any locking.
        """
        self._append(wire.claim_to_wire(job, worker))
        state = self.load()
        return state.claims.get(ManifestState.ident(job)) == str(worker)

    def record_result(self, result: RunResult) -> None:
        self._append(wire.result_to_wire(result))

    def record_failure(self, job: SweepJob, kind: str, error: str,
                       attempts: int = 1) -> None:
        self._append(wire.failure_to_wire(job, kind, error,
                                          attempts=attempts))

    def requeue(self, job: SweepJob, worker: str, kind: str,
                error: str) -> None:
        self._append(wire.requeue_to_wire(job, worker, kind, error))


def worker_command(manifest_path: str | pathlib.Path,
                   ident: str) -> list[str]:
    """The ``repro worker`` argv that joins this campaign (any host)."""
    return [sys.executable, "-m", "repro.cli", "worker",
            "--manifest", str(manifest_path), "--once", "--id", str(ident)]


def drive_workers(manifest: ShardManifest, jobs: list[SweepJob],
                  workers: int, retry: RetryPolicy,
                  emit: Callable[[str], None],
                  settle: Callable[[SweepJob, RunResult | FailedJob], None]
                  ) -> None:
    """Run ``jobs`` on ``workers`` local ``repro worker`` processes.

    Publishes a campaign on ``manifest``, starts the workers, and calls
    ``settle(job, outcome)`` once per job as its result or failure lands.
    Workers on other hosts may join the same campaign. A worker that exits
    while holding a claim costs that job one ``crash`` attempt; a claim
    attempt older than ``2 × timeout + 1`` s gets its worker killed and
    costs a ``timeout`` attempt. Either way the job reopens on a
    replacement worker, or fails once its attempts are spent. Whatever
    way this returns or raises, every worker it started is stopped.
    """
    ShardManifest.create(manifest.path, jobs, retry)
    budget = None if retry.timeout_seconds is None \
        else 2.0 * retry.timeout_seconds + 1.0
    prefix = f"{socket.gethostname()}-{os.getpid()}-w"
    procs: dict[str, subprocess.Popen] = {}
    started = 0
    deaths_without_claim = 0
    watched: dict[tuple, tuple] = {}   # job ident -> (owner, line, since)
    pending = {ManifestState.ident(job) for job in jobs}

    def start_worker() -> None:
        nonlocal started
        ident = f"{prefix}{started}"
        started += 1
        procs[ident] = subprocess.Popen(worker_command(manifest.path, ident),
                                        stdout=subprocess.DEVNULL)

    def lose_attempt(state: ManifestState, job: SweepJob, worker: str,
                     kind: str, error: str) -> None:
        used = state.attempts.get(ManifestState.ident(job), 1)
        if used >= state.retry.max_attempts:
            manifest.record_failure(job, kind, error, attempts=used)
            return
        emit(f"[retry] {job.describe()}  attempt {used + 1}/"
             f"{state.retry.max_attempts} after {kind}: {error}")
        manifest.requeue(job, worker, kind, error)

    try:
        for _ in range(workers):
            start_worker()
        while True:
            # Poll exits before reading: a worker's last append precedes
            # its exit, so a claim still held now was really abandoned.
            exited = {ident: proc.returncode for ident, proc in procs.items()
                      if proc.poll() is not None}
            state = manifest.load()
            for job in state.jobs:
                ident = ManifestState.ident(job)
                if ident in pending and state.is_settled(job):
                    pending.discard(ident)
                    settle(job, state.outcome(job))
            if not pending:
                return
            for worker, code in exited.items():
                del procs[worker]
                job = state.held_by(worker)
                if job is not None:
                    lose_attempt(state, job, worker, "crash",
                                 f"worker process exited with code {code}")
                elif code != 0:
                    deaths_without_claim += 1
                    if deaths_without_claim > workers:
                        raise SweepError(
                            f"{deaths_without_claim} worker processes "
                            f"exited with code {code} before claiming a "
                            f"job; is `repro worker` runnable here?")
            now = time.monotonic()
            for job in state.jobs if budget is not None else ():
                ident = ManifestState.ident(job)
                owner = state.claims.get(ident)
                if owner is None or owner in exited or state.is_settled(job):
                    continue
                mark = (owner, state.claim_lines[ident])
                if watched.get(ident, (None, None))[:2] != mark:
                    watched[ident] = (*mark, now)
                elif now - watched[ident][2] > budget:
                    proc = procs.pop(owner, None)
                    if proc is not None:
                        proc.kill()
                        proc.wait()
                    lose_attempt(state, job, owner, "timeout",
                                 f"attempt exceeded the {budget:.1f}s "
                                 f"driver watchdog; worker killed")
            # Replace exited workers while open jobs remain (a reopened job
            # shows up as open on the next read).
            wanted = sum(1 for job in state.jobs if state.is_open(job)) \
                + sum(1 for worker in procs if state.held_by(worker))
            while len(procs) < min(workers, wanted):
                start_worker()
            time.sleep(POLL_SECONDS)
    finally:
        for proc in procs.values():
            proc.kill()
        for proc in procs.values():
            proc.wait()
