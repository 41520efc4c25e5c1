"""The ``repro-results/1`` append-only JSONL results store.

One record per completed run, one JSON line per record, published with
``O_APPEND`` single-line appends (atomic for lines this short — the same
discipline the sweep manifest relies on), so any number of sweep
workers, daemons, and CLI runs can share one store without locking.
Loading goes through the manifest's line reader,
:func:`repro.serve.wire.parse_line`, with this store's schema: torn tail
lines and foreign records are skipped.

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
``provenance`` vary run to run. ``timing.wall_seconds`` is the result's
own: the simulation's host time, workload preparation excluded, on every
path that records. ``provenance.dirty`` comes from
``git status --porcelain`` so a point measured on an uncommitted tree can
never masquerade as the committed revision's honest number.

Opt-in hook: :func:`maybe_record` is a no-op unless ``REPRO_RESULTS_DIR``
is set. The directory value is resolved against the CWD once per process
(:func:`repro.harness.cache.writable_env_dir`), so a worker that later
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
from repro.harness.cache import writable_env_dir

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


def run_record(result, *, source: str,
               cwd: str | pathlib.Path | None = None) -> dict:
    """Build one ``repro-results/1`` ``run`` record from a completed
    :class:`~repro.harness.runner.RunResult`; every field but the
    provenance comes from the result itself."""
    job = result.job
    stats = result.stats
    wall = result.wall_seconds
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
            "num_rays": int(result.num_rays),
            "ipc": round(float(result.ipc), 6),
            "simt_efficiency": round(float(result.simt_efficiency), 6),
            "rays_per_second": round(float(result.rays_per_second), 3),
            "verified": bool(result.verified),
        },
        "timing": {
            "wall_seconds": round(float(wall), 6),
            "cycles_per_second": (
                round(stats.cycles / float(wall), 3) if wall else None),
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
               cwd: str | pathlib.Path | None = None) -> dict:
        """Build and append the record for one completed result."""
        return self.append(run_record(result, source=source, cwd=cwd))

    def load(self) -> list[dict]:
        """Every usable ``run`` record in file (append) order."""
        # Imported at call time: the serve package imports this module.
        from repro.serve.wire import parse_line

        if not self.path.exists():
            return []
        records = (parse_line(line, RESULTS_SCHEMA)
                   for line in self.path.read_text().splitlines())
        return [record for record in records
                if record is not None and record.get("kind") == "run"]

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
    return ResultsStore(writable_env_dir("REPRO_RESULTS_DIR", raw))


def maybe_record(result, *, source: str) -> dict | None:
    """Record ``result`` into the ``REPRO_RESULTS_DIR`` store, if opted in.

    The one hook every execution path calls: a no-op (returns ``None``)
    unless ``REPRO_RESULTS_DIR`` is set, so runs without the env variable
    stay byte-for-byte unaffected.
    """
    store = default_store()
    if store is None:
        return None
    return store.record(result, source=source)


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
