"""The ``repro serve`` job daemon: simulations over a versioned HTTP API.

A stdlib-only (``http.server``) daemon that accepts the job specs of
:func:`repro.api.sweep` (one simulation is a one-job sweep), runs each
submission on a worker thread, and answers with the versioned
``repro-wire/1`` payloads (:mod:`repro.serve.wire`):

===========================  ===============================================
endpoint                     behaviour
===========================  ===============================================
``GET  /v1/ping``            liveness + schema negotiation
``POST /v1/jobs``            submit a ``sweep-request`` wire record;
                             answers with the job status (``202``, or
                             ``200`` when the same request was already
                             submitted — dedup by content digest)
``GET  /v1/jobs``            list job statuses
``GET  /v1/jobs/<id>``       one job's status
``GET  /v1/jobs/<id>/events``  NDJSON progress stream; follows a running
                             job live until it finishes (``?start=N``
                             resumes after a dropped connection)
``GET  /v1/jobs/<id>/result``  the completed job's results (one wire
                             ``result`` record per sweep job, each with its
                             ``run_stats_digest``)
===========================  ===============================================

Caching: every request runs as ``run_sweep(..., checkpoint=path,
resume=True)`` on a sweep manifest (:mod:`repro.serve.manifest`) named
by the request's content digest, so resubmitting a finished request — to
the same daemon *or a freshly restarted one* — answers from the
manifest's results without re-simulating, bit-identically. The job
status reports ``cached_jobs`` vs ``executed_jobs`` so callers (and the
CI smoke test) can assert that no re-execution happened.
"""

from __future__ import annotations

import json
import pathlib
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigError, ReproError
from repro.harness.sweep import (
    RetryPolicy,
    default_checkpoint_path,
    run_stats_digest,
    run_sweep,
)
from repro.obs.progress import EventLog
from repro.serve import wire
from repro.serve.manifest import ShardManifest

#: Largest request body the daemon will read, in bytes. A sweep request
#: is a few hundred bytes per job; this bounds hostile/broken clients.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Progress events retained per job. One line per sweep job plus a
#: handful of lifecycle lines fits comfortably; a campaign that emits
#: more evicts the oldest lines (the stream carries an explicit dropped
#: marker) instead of growing the daemon's heap without bound.
MAX_JOB_EVENTS = 4096


def _job_event_log() -> EventLog:
    return EventLog(max_events=MAX_JOB_EVENTS)


@dataclass
class Job:
    """One submitted request and everything the API reports about it."""

    id: str
    digest: str
    request: wire.SweepRequest
    state: str = "queued"          # queued | running | done | failed
    error: str | None = None
    cached_jobs: int = 0
    executed_jobs: int = 0
    total_jobs: int = 0
    results: list = field(default_factory=list)   # wire result records
    events: EventLog = field(default_factory=_job_event_log)

    def status(self) -> dict:
        return {
            "schema": wire.WIRE_SCHEMA,
            "kind": "job-status",
            "id": self.id,
            "digest": self.digest,
            "state": self.state,
            "error": self.error,
            "total_jobs": self.total_jobs,
            "cached_jobs": self.cached_jobs,
            "executed_jobs": self.executed_jobs,
            "events": len(self.events),
            "dropped_events": self.events.dropped,
        }


class JobManager:
    """Owns the job table; executes each submission on a worker thread.

    ``checkpoint_dir`` overrides where per-request sweep manifests
    live (default: :func:`~repro.harness.sweep.default_checkpoint_path`,
    which itself honours ``REPRO_CHECKPOINT_DIR``). ``inline=True`` runs
    jobs synchronously inside :meth:`submit` — no threads, used by tests
    that want deterministic completion without polling.
    """

    def __init__(self, checkpoint_dir: str | pathlib.Path | None = None,
                 inline: bool = False):
        self.checkpoint_dir = pathlib.Path(checkpoint_dir) \
            if checkpoint_dir is not None else None
        self.inline = inline
        self._jobs: dict[str, Job] = {}
        self._by_digest: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0

    # -- submission ---------------------------------------------------------

    def submit(self, record: dict) -> tuple[Job, bool]:
        """Queue one wire request; returns ``(job, deduplicated)``.

        A record whose content digest matches an already-submitted
        request returns that existing job (running or finished) instead
        of spawning a duplicate — the HTTP layer answers 200 instead of
        202 so clients can tell.
        """
        request = wire.request_from_wire(record)
        digest = wire.request_digest(request)
        with self._lock:
            existing = self._by_digest.get(digest)
            if existing is not None:
                return existing, True
            self._counter += 1
            job = Job(id=f"job-{self._counter:04d}-{digest[:8]}",
                      digest=digest, request=request)
            job.total_jobs = len(request.jobs)
            self._jobs[job.id] = job
            self._by_digest[digest] = job
        if self.inline:
            self._run(job)
        else:
            thread = threading.Thread(target=self._run, args=(job,),
                                      daemon=True,
                                      name=f"repro-serve-{job.id}")
            thread.start()
        return job, False

    def _checkpoint_path(self, digest: str) -> pathlib.Path:
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            return self.checkpoint_dir / f"serve-{digest}.jsonl"
        return default_checkpoint_path(f"serve-{digest}")

    # -- execution ----------------------------------------------------------

    def _run(self, job: Job) -> None:
        job.state = "running"
        job.events.emit(f"{job.id} started", state="running")
        try:
            self._execute(job)
        except ReproError as exc:
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.events.emit(job.error, state="failed")
        except Exception as exc:  # an internal bug must not kill the daemon
            job.state = "failed"
            job.error = f"internal error: {type(exc).__name__}: {exc}"
            job.events.emit(job.error, state="failed")
        finally:
            job.events.close()

    def _execute(self, job: Job) -> None:
        request = job.request
        sweep_jobs = list(request.jobs)
        checkpoint = self._checkpoint_path(job.digest)
        state = ShardManifest(checkpoint).load()
        job.cached_jobs = sum(
            1 for spec in sweep_jobs if state.cached_result(spec) is not None)
        job.executed_jobs = len(sweep_jobs) - job.cached_jobs
        if job.cached_jobs:
            job.events.emit(
                f"{job.cached_jobs}/{len(sweep_jobs)} job(s) already "
                f"checkpointed; serving them without re-execution")

        retry = RetryPolicy(max_attempts=request.retries,
                            timeout_seconds=request.job_timeout)
        results = run_sweep(sweep_jobs, jobs_n=request.jobs_n,
                            progress=job.events.emit, strict=False,
                            retry=retry, checkpoint=checkpoint, resume=True)

        job.results = []
        for result in results:
            record = wire.result_to_wire(result)
            record["run_stats_digest"] = run_stats_digest(result.stats)
            job.results.append(record)
        if results.failures:
            job.state = "failed"
            job.error = "; ".join(f.describe() for f in results.failures)
            job.events.emit(job.error, state="failed")
        else:
            job.state = "done"
            job.events.emit(f"{job.id} done", state="done")

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(job_id)
            return self._jobs[job_id]

    def list_jobs(self) -> list[dict]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [job.status() for job in jobs]


class _Handler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` API onto the server's :class:`JobManager`."""

    protocol_version = "HTTP/1.1"
    server: "ReproServer"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int) -> None:
        self._send_json({"schema": wire.WIRE_SCHEMA, "kind": "error",
                         "error": message}, status=status)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise ConfigError("request body is empty; POST a wire record")
        if length > MAX_REQUEST_BYTES:
            raise ConfigError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit")
        try:
            record = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"request body is not JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ConfigError("request body must be a JSON object")
        return record

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "ping"]:
                self._send_json({"schema": wire.WIRE_SCHEMA, "kind": "pong",
                                 "ok": True})
            elif parts == ["v1", "jobs"]:
                self._send_json({"schema": wire.WIRE_SCHEMA,
                                 "kind": "job-list",
                                 "jobs": self.server.manager.list_jobs()})
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(self.server.manager.get(parts[2]).status())
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "events":
                self._stream_events(self.server.manager.get(parts[2]), url)
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "result":
                self._send_result(self.server.manager.get(parts[2]))
            else:
                self._send_error_json(f"no such endpoint: {url.path}", 404)
        except KeyError as exc:
            self._send_error_json(f"no such job: {exc.args[0]}", 404)
        except BrokenPipeError:
            pass  # client hung up mid-stream; nothing to answer

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts != ["v1", "jobs"]:
            self._send_error_json(f"no such endpoint: {url.path}", 404)
            return
        try:
            record = self._read_body()
            job, deduplicated = self.server.manager.submit(record)
        except ConfigError as exc:
            self._send_error_json(str(exc), 400)
            return
        status = job.status()
        status["deduplicated"] = deduplicated
        self._send_json(status, status=200 if deduplicated else 202)

    def _send_result(self, job: Job) -> None:
        if job.state in ("queued", "running"):
            self._send_error_json(
                f"{job.id} is still {job.state}; poll its status or follow "
                f"/v1/jobs/{job.id}/events", 409)
            return
        self._send_json({
            "schema": wire.WIRE_SCHEMA,
            "kind": "job-result",
            "id": job.id,
            "state": job.state,
            "error": job.error,
            "results": job.results,
        })

    def _stream_events(self, job: Job, url) -> None:
        query = parse_qs(url.query)
        try:
            start = int(query.get("start", ["0"])[0])
        except ValueError:
            self._send_error_json("start must be an integer", 400)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Stream until the job finishes; length is unknowable up front.
        self.send_header("Connection", "close")
        self.end_headers()
        for event in job.events.follow(start=start):
            self.wfile.write(
                (json.dumps(event, sort_keys=True) + "\n").encode())
            self.wfile.flush()
        self.close_connection = True


class ReproServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`JobManager`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 manager: JobManager | None = None, verbose: bool = False):
        self.manager = manager if manager is not None else JobManager()
        self.verbose = verbose
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_forever(host: str = "127.0.0.1", port: int = 8732,
                  checkpoint_dir: str | pathlib.Path | None = None,
                  verbose: bool = False,
                  ready=None) -> int:
    """Run the daemon until interrupted (the ``repro serve`` entry point).

    ``ready`` (a callable given the bound URL) fires after the socket is
    listening — tests and the CI smoke job use it instead of sleeping.
    """
    server = ReproServer((host, port), JobManager(checkpoint_dir),
                         verbose=verbose)
    if ready is not None:
        ready(server.url)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


__all__ = ["Job", "JobManager", "MAX_REQUEST_BYTES", "ReproServer",
           "serve_forever"]
