"""The ``repro-results/1`` append-only JSONL results store.

One record per completed run, one JSON line per record, published with
``O_APPEND`` single-line appends (atomic for lines this short — the same
discipline the shard manifest and crash breadcrumbs rely on), so any
number of sweep workers, daemons, and CLI runs can share one store
without locking. Loading tolerates torn tail lines and foreign records,
exactly like :func:`repro.serve.wire.parse_line`.

Record shape (sorted keys on disk)::

    {
      "schema": "repro-results/1",
      "kind": "run",
      "key": [scene, mode, ray_kind, seed],
      "job": {... the full SweepJob spec ...},
      "config_digest": "<SweepJob.config_digest()>",
      "run_stats_digest": "<sha256 of the run_stats_digest document>",
      "metrics": {... deterministic counters and derived metrics ...},
      "timing": {"wall_seconds": ..., "cycles_per_second": ...},
      "provenance": {"git_rev": ..., "dirty": ..., "timestamp": ...,
                     "source": "simulate" | "sweep" | "worker"}
    }

``metrics`` is fully determined by the simulation — two identical runs
produce byte-identical ``key``/``job``/``config_digest``/
``run_stats_digest``/``metrics`` sections; only ``timing`` and
``provenance`` vary run to run. ``provenance.dirty`` comes from
``git status --porcelain`` so a point measured on an uncommitted tree can
never masquerade as the committed revision's honest number.

Opt-in hook: :func:`maybe_record` is a no-op unless ``REPRO_RESULTS_DIR``
is set. The directory value is resolved against the CWD once per process
(:func:`repro.harness.cache.resolve_env_dir`), so a worker that later
changes directory keeps appending to the same store instead of silently
opening a second one.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import pathlib
import subprocess
from dataclasses import asdict

from repro.errors import ConfigError
from repro.harness.cache import resolve_env_dir

#: Schema tag carried by every store record (versioned alongside
#: ``repro-wire/1`` — see docs/architecture.md, "Results warehouse").
RESULTS_SCHEMA = "repro-results/1"

#: File name of the store inside its directory.
STORE_FILENAME = "results.jsonl"

_PROVENANCE_CACHE: dict[str, tuple[str, bool]] = {}


def git_provenance(cwd: str | pathlib.Path | None = None) -> tuple[str, bool]:
    """``(short git rev, dirty working tree?)`` for ``cwd``, cached.

    ``("unknown", False)`` outside a git checkout — a store written from
    an exported tarball still works, it just cannot anchor a trajectory.
    Cached per directory for the life of the process: provenance is a
    per-invocation fact, and a sweep records hundreds of runs.
    """
    key = str(pathlib.Path(cwd) if cwd is not None else pathlib.Path.cwd())
    if key not in _PROVENANCE_CACHE:
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=key,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=key,
                capture_output=True, text=True, timeout=10,
                check=True).stdout
            _PROVENANCE_CACHE[key] = (rev, bool(status.strip()))
        except Exception:
            _PROVENANCE_CACHE[key] = ("unknown", False)
    return _PROVENANCE_CACHE[key]


def stats_fingerprint(stats) -> str:
    """Short content hash of a run's full ``run_stats_digest`` document.

    Two runs with equal fingerprints executed identically for every
    reported counter (the digest covers the complete divergence histogram
    and per-thread commits); the fingerprint is what store records carry
    so rev-over-rev identity checks stay one string compare.
    """
    from repro.harness.sweep import run_stats_digest

    document = run_stats_digest(stats)
    payload = json.dumps(document, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _job_for(result, seed: int = 0):
    """The :class:`~repro.harness.sweep.SweepJob` spec behind a result.

    ``JobResult`` carries its job; a ``RunResult`` (from ``api.simulate``)
    is reconstructed from its workload and mode so both record the same
    ``job``/``config_digest`` for the same configuration.
    """
    from repro.harness.sweep import SweepJob

    job = getattr(result, "job", None)
    if job is not None:
        return job
    workload = result.workload
    return SweepJob(scene=workload.scene_name, mode=result.mode,
                    preset=workload.preset.name,
                    ray_kind=workload.ray_kind, seed=seed)


def run_record(result, *, source: str, wall_seconds: float | None = None,
               seed: int = 0, cwd: str | pathlib.Path | None = None,
               job=None) -> dict:
    """Build one ``repro-results/1`` ``run`` record from a completed result.

    ``result`` is a :class:`~repro.harness.sweep.JobResult` or a
    :class:`~repro.harness.runner.RunResult`; ``wall_seconds`` overrides
    the wall clock for result types that do not carry one (``RunResult``).
    ``job`` supplies the :class:`~repro.harness.sweep.SweepJob` spec for
    result types that do not carry one either — a caller that knows the
    full run configuration (``api.simulate`` knows ``max_cycles``,
    ``fast_forward``) must pass it so the recorded ``config_digest``
    matches the sweep path's for the same configuration.
    """
    if job is None:
        job = _job_for(result, seed=seed)
    wall = getattr(result, "wall_seconds", None) if wall_seconds is None \
        else wall_seconds
    stats = result.stats
    num_rays = getattr(result, "num_rays", None)
    if num_rays is None:
        num_rays = result.workload.num_rays
    rev, dirty = git_provenance(cwd)
    timestamp = datetime.datetime.now(datetime.timezone.utc) \
        .isoformat(timespec="seconds")
    return {
        "schema": RESULTS_SCHEMA,
        "kind": "run",
        "key": list(job.key),
        "job": asdict(job),
        "config_digest": job.config_digest(),
        "run_stats_digest": stats_fingerprint(stats),
        "metrics": {
            "cycles": int(stats.cycles),
            "rays_completed": int(stats.rays_completed),
            "num_rays": int(num_rays),
            "ipc": round(float(result.ipc), 6),
            "simt_efficiency": round(float(result.simt_efficiency), 6),
            "rays_per_second": round(float(result.rays_per_second), 3),
            "verified": bool(result.verify()),
        },
        "timing": {
            "wall_seconds": None if wall is None else round(float(wall), 6),
            "cycles_per_second": (
                None if not wall else round(stats.cycles / float(wall), 3)),
        },
        "provenance": {
            "git_rev": rev,
            "dirty": dirty,
            "timestamp": timestamp,
            "source": str(source),
        },
    }


class ResultsStore:
    """Append-only JSONL store of completed-run records.

    ``directory`` holds one ``results.jsonl``; :meth:`append` publishes a
    record as a single ``O_APPEND`` line, :meth:`load` returns every
    usable record in file order (torn or foreign lines are skipped,
    never fatal).
    """

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.path = self.directory / STORE_FILENAME

    def __repr__(self) -> str:
        return f"ResultsStore({str(self.path)!r})"

    def append(self, record: dict) -> dict:
        """Append one record (a dict, or a result via :func:`run_record`)."""
        if record.get("schema") != RESULTS_SCHEMA:
            raise ConfigError(
                f"results store records must carry schema="
                f"{RESULTS_SCHEMA!r}, got {record.get('schema')!r}")
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
        return record

    def record(self, result, *, source: str,
               wall_seconds: float | None = None, seed: int = 0,
               cwd: str | pathlib.Path | None = None, job=None) -> dict:
        """Build and append the record for one completed result."""
        return self.append(run_record(result, source=source,
                                      wall_seconds=wall_seconds, seed=seed,
                                      cwd=cwd, job=job))

    def load(self) -> list[dict]:
        """Every usable ``run`` record in file (append) order."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line from an interrupted writer
            if not isinstance(record, dict) \
                    or record.get("schema") != RESULTS_SCHEMA \
                    or record.get("kind") != "run":
                continue
            records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.load())


def default_store() -> ResultsStore | None:
    """The ``REPRO_RESULTS_DIR`` store, or ``None`` when recording is off.

    The directory is created (and checked writable) eagerly — a sweep must
    not run for minutes and then fail on its first record append. The env
    value is resolved against the CWD once per process, so relative paths
    stay pinned even if a worker later changes directory.
    """
    raw = os.environ.get("REPRO_RESULTS_DIR")
    if not raw:
        return None
    directory = resolve_env_dir("REPRO_RESULTS_DIR", raw)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"REPRO_RESULTS_DIR={raw!r} cannot be created: {exc}") from None
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"REPRO_RESULTS_DIR={raw!r} is not writable")
    return ResultsStore(directory)


def maybe_record(result, *, source: str, wall_seconds: float | None = None,
                 seed: int = 0, job=None) -> dict | None:
    """Record ``result`` into the ``REPRO_RESULTS_DIR`` store, if opted in.

    The one hook every execution path calls: a no-op (returns ``None``)
    unless ``REPRO_RESULTS_DIR`` is set, so runs without the env variable
    stay byte-for-byte unaffected.
    """
    store = default_store()
    if store is None:
        return None
    return store.record(result, source=source, wall_seconds=wall_seconds,
                        seed=seed, job=job)


__all__ = [
    "RESULTS_SCHEMA",
    "STORE_FILENAME",
    "ResultsStore",
    "default_store",
    "git_provenance",
    "maybe_record",
    "run_record",
    "stats_fingerprint",
]
