"""Simulation-as-a-service: job daemon, wire schema, sweep manifest.

The package turns the single-process harness into a campaign manager:

- :mod:`repro.serve.wire` — the versioned ``repro-wire/1`` JSON schema
  that job specs, manifest records, and results all travel through (one
  schema, one compat story);
- :mod:`repro.serve.manifest` — the one append-only JSONL sweep log: the
  checkpoint of every sweep, and the claim queue that ``run_sweep(...,
  jobs_n=N)`` publishes for its N worker processes (workers on other
  hosts may join); the driver merges results bit-identically to a serial
  run;
- :mod:`repro.serve.worker` — the ``repro worker --manifest PATH`` claim
  loop each worker process runs;
- :mod:`repro.serve.server` — the stdlib-only ``repro serve`` HTTP
  daemon (``POST /v1/jobs``, NDJSON event streams, instant answers on
  checkpoint hits);
- :mod:`repro.serve.client` — a stdlib ``urllib`` client for the wire
  API, used by ``repro submit``.
"""

from repro.serve.client import ServeClient
from repro.serve.manifest import ShardManifest
from repro.serve.server import JobManager, ReproServer, serve_forever
from repro.serve.wire import (
    WIRE_SCHEMA,
    SimulateRequest,
    SweepRequest,
    from_wire,
    request_digest,
    to_wire,
)
from repro.serve.worker import run_worker, worker_ident

__all__ = [
    "JobManager",
    "ReproServer",
    "ServeClient",
    "ShardManifest",
    "SimulateRequest",
    "SweepRequest",
    "WIRE_SCHEMA",
    "from_wire",
    "request_digest",
    "run_worker",
    "serve_forever",
    "to_wire",
    "worker_ident",
]
