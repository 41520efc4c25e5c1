"""The ``repro worker`` claim loop: one worker of a manifest campaign.

A worker is deliberately dumb: point it at a manifest, and it repeatedly
(a) reloads the manifest, (b) picks the first open job of the current
campaign, (c) bids for it with an atomic ``O_APPEND`` claim record, and
(d) executes it and appends the result if — and only if — its claim
landed first in file order (see :mod:`repro.serve.manifest` for the
protocol). Losing a claim race costs one wasted append, nothing else.

Workers are stateless and interchangeable: the sweep driver starts one
per ``--jobs`` slot, and more can join from other hosts sharing the
file. Every worker follows the campaign's
:class:`~repro.harness.sweep.RetryPolicy`, read from the manifest. A
worker that crashes mid-job leaves its claim behind; the driver books
the lost attempt and reopens the job for a replacement worker.
"""

from __future__ import annotations

import os
import pathlib
import socket
import time
from typing import Callable

from repro.errors import ConfigError
from repro.harness.sweep import FailedJob, run_job
from repro.results.store import maybe_record
from repro.serve.manifest import ManifestState, ShardManifest


def worker_ident(name: str | None = None) -> str:
    """A claim ident unique across hosts and processes.

    Built from hostname, pid, and a nanosecond timestamp — no RNG (the
    repo-wide RNG discipline bans ambient randomness in ``src/repro``),
    and no coordination needed. An explicit ``name`` (the sweep driver
    names the workers it starts) is used verbatim so manifests stay
    readable.
    """
    if name:
        return str(name)
    return f"{socket.gethostname()}-{os.getpid()}-{time.time_ns():x}"


def run_worker(manifest_path, worker: str | None = None,
               poll_seconds: float = 0.5, once: bool = False,
               progress: Callable[[str], None] | None = None) -> int:
    """Claim and execute manifest jobs until none remain open.

    With ``once=True`` (how the sweep driver runs its workers) the worker
    exits as soon as a full pass over the manifest finds no open job.
    Without it the worker keeps polling every ``poll_seconds`` — the
    long-running "join this campaign from another terminal/host" mode;
    stop it with Ctrl-C once the driver has merged.

    Returns the number of jobs this worker executed (successes and
    permanent failures both count — each produced a manifest record).
    """
    if not pathlib.Path(manifest_path).exists():
        # A missing manifest must not look like a successfully drained
        # campaign (a typo'd --manifest would otherwise exit 0 having
        # done nothing). The driver creates the file before any worker
        # is started, so at claim time it always exists.
        raise ConfigError(f"shard manifest not found: {manifest_path} "
                          "(run_sweep with jobs_n > 1 creates it)")
    manifest = ShardManifest(manifest_path)
    ident = worker_ident(worker)
    emit = progress if progress is not None else (lambda line: None)
    executed = 0
    while True:
        state = manifest.load()
        candidates = [job for job in state.jobs if state.is_open(job)]
        if not candidates:
            # Nothing open: claimed-but-unfinished jobs belong to other
            # workers (the driver reopens them if those workers die);
            # this worker must not steal them.
            if once or state.settled == len(state.jobs):
                return executed
            time.sleep(poll_seconds)
            continue
        job = candidates[0]
        used = state.attempts.get(ManifestState.ident(job), 0)
        if not manifest.claim(job, ident):
            continue  # lost the race; re-scan for the next open job
        emit(f"[{ident}] claimed {job.describe()}")
        outcome = run_job(job, state.retry, emit, first_attempt=used + 1,
                          on_retry=lambda: manifest.claim(job, ident))
        if isinstance(outcome, FailedJob):
            manifest.record_failure(job, outcome.kind, outcome.error,
                                    attempts=outcome.attempts)
            emit(f"[{ident}] {outcome.describe()}")
        else:
            # Opt-in results warehouse first (no-op without
            # REPRO_RESULTS_DIR): once the result line lands the driver
            # may stop this worker.
            maybe_record(outcome, source="worker")
            manifest.record_result(outcome)
            emit(f"[{ident}] {job.describe()}  {outcome.stats.cycles} "
                 f"cycles  {outcome.wall_seconds:.2f}s")
        executed += 1


__all__ = ["run_worker", "worker_ident"]
