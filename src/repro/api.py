"""Stable public façade over the experiment harness.

Two calls cover the whole workflow:

- :func:`simulate` — one (scene, mode) simulation, optionally observed by
  a :class:`repro.obs.TraceSession`;
- :func:`sweep` — many independent simulations fanned over worker
  processes.

Everything else (workload building, per-mode configs and launch specs,
``run_mode``) is re-exported here under its stable public name; import
from ``repro.api`` (or ``repro`` directly)::

    from repro import api
    result = api.simulate("conference", "spawn", preset="fast")
    print(result.ipc, result.simt_efficiency)
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.errors import ConfigError
from repro.fuzz import (
    FuzzReport,
    load_case,
    run_case,
    run_fuzz,
    save_case,
    shrink_case,
)
from repro.harness.presets import PRESETS, SimPreset, get_preset
from repro.harness.runner import (
    MODES,
    PAPER_SMS,
    RunResult,
    Workload,
    build_workload,
    config_for_mode,
    launch_for_mode,
    prepare_workload,
    run_mode,
)
from repro.harness.sweep import (
    FailedJob,
    FaultInjector,
    JobResult,
    RetryPolicy,
    SweepCheckpoint,
    SweepJob,
    SweepResults,
    run_stats_digest,
    run_sweep,
)
from repro.obs.probe import TraceSession
from repro.results.store import ResultsStore, default_store, maybe_record


def _resolve_probes(probes) -> TraceSession | None:
    """Normalize the ``probes`` argument of :func:`simulate`.

    ``None``/``False`` → no instrumentation; ``True`` → a fresh session at
    the default interval; an ``int`` → a fresh session with that interval;
    a :class:`TraceSession` → used as-is (must be unused).
    """
    if probes is None or probes is False:
        return None
    if probes is True:
        return TraceSession()
    if isinstance(probes, TraceSession):
        return probes
    if isinstance(probes, int):
        return TraceSession(interval=probes)
    raise ConfigError(
        f"probes must be None, a bool, an interval in cycles, or a "
        f"TraceSession; got {type(probes).__name__}")


def _resolve_preset(preset) -> SimPreset:
    if isinstance(preset, SimPreset):
        return preset
    return get_preset(preset)


def simulate(scene, mode: str, *, preset="fast", ray_kind: str = "primary",
             seed: int = 0, max_cycles: int | None = None,
             fast_forward: bool | None = None, probes=None,
             cache=None) -> RunResult:
    """Simulate one machine mode on one workload; returns a ``RunResult``.

    ``scene`` is either a scene name (the workload is prepared through the
    persistent cache, honouring ``preset``/``ray_kind``/``seed``/``cache``)
    or an already-prepared :class:`~repro.harness.runner.Workload` (those
    arguments are then ignored — the workload is used as-is).

    ``probes`` attaches cycle-attribution instrumentation (see
    :func:`_resolve_probes`); the session comes back finalized as
    ``result.trace``. With ``probes`` unset the simulation runs with zero
    instrumentation overhead and bit-identical statistics.
    """
    if isinstance(scene, Workload):
        workload = scene
    else:
        workload = prepare_workload(scene, _resolve_preset(preset),
                                    ray_kind=ray_kind, seed=seed, cache=cache)
    started = time.perf_counter()
    result = run_mode(mode, workload, max_cycles=max_cycles,
                      fast_forward=fast_forward,
                      trace=_resolve_probes(probes))
    # Opt-in results warehouse (no-op without REPRO_RESULTS_DIR): the wall
    # clock covers the simulation only, not workload preparation, matching
    # what JobResult.wall_seconds measures on the sweep path. The explicit
    # job spec carries max_cycles/fast_forward so the recorded
    # config_digest matches an identically-configured sweep job.
    maybe_record(result, source="simulate",
                 wall_seconds=time.perf_counter() - started, seed=seed,
                 job=SweepJob(scene=workload.scene_name, mode=mode,
                              preset=workload.preset.name,
                              ray_kind=workload.ray_kind, seed=seed,
                              max_cycles=max_cycles,
                              fast_forward=fast_forward))
    return result


def sweep(jobs: Iterable, jobs_n: int | None = None,
          progress: Callable[[str], None] | None = None, *,
          strict: bool = True, retry: RetryPolicy | None = None,
          checkpoint=None, resume: bool = False) -> SweepResults:
    """Execute many independent simulations, optionally in parallel.

    ``jobs`` may mix :class:`SweepJob` specs, mappings of ``SweepJob``
    fields, and positional tuples ``(scene, mode, preset[, ray_kind,
    seed])``. ``jobs_n`` picks the worker count (default: ``REPRO_JOBS``
    or the CPU count); results keep the input order and are bit-identical
    across worker counts.

    Fault tolerance: failing jobs retry per ``retry`` (a
    :class:`RetryPolicy` — attempts, exponential backoff, per-job
    timeout); worker crashes respawn the pool and quarantine the culprit.
    ``strict=True`` (default) raises :class:`repro.errors.SweepError` if
    any job permanently failed; ``strict=False`` returns partial results
    with the ``failures`` records attached. ``checkpoint`` streams
    completed jobs into a JSONL manifest and ``resume=True`` serves
    already-checkpointed jobs bit-identically instead of re-running them.
    """
    job_list = []
    for job in jobs:
        if isinstance(job, SweepJob):
            job_list.append(job)
        elif isinstance(job, dict):
            job_list.append(SweepJob(**job))
        else:
            job_list.append(SweepJob(*job))
    return run_sweep(job_list, jobs_n=jobs_n, progress=progress,
                     strict=strict, retry=retry, checkpoint=checkpoint,
                     resume=resume)


__all__ = [
    "MODES",
    "PAPER_SMS",
    "PRESETS",
    "FailedJob",
    "FaultInjector",
    "FuzzReport",
    "JobResult",
    "ResultsStore",
    "RetryPolicy",
    "RunResult",
    "SimPreset",
    "SweepCheckpoint",
    "SweepJob",
    "SweepResults",
    "TraceSession",
    "Workload",
    "build_workload",
    "config_for_mode",
    "default_store",
    "get_preset",
    "launch_for_mode",
    "load_case",
    "maybe_record",
    "prepare_workload",
    "run_case",
    "run_fuzz",
    "run_mode",
    "run_stats_digest",
    "save_case",
    "shrink_case",
    "simulate",
    "sweep",
]
