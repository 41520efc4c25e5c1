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

import importlib

#: Package exports, resolved lazily (PEP 562) from the submodule that
#: defines each, so importing one submodule (a ``repro worker`` imports
#: ``wire`` and ``manifest``) does not load the HTTP daemon and client.
_EXPORTS = {
    "JobManager": "server",
    "ReproServer": "server",
    "ServeClient": "client",
    "ShardManifest": "manifest",
    "SweepRequest": "wire",
    "WIRE_SCHEMA": "wire",
    "request_digest": "wire",
    "run_worker": "worker",
    "serve_forever": "server",
    "worker_ident": "worker",
}


def __getattr__(name: str):
    # Any other name raises, so ``from repro.serve import wire`` falls
    # back to importing the submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(list(globals()) + list(_EXPORTS))


__all__ = [
    "JobManager",
    "ReproServer",
    "ServeClient",
    "ShardManifest",
    "SweepRequest",
    "WIRE_SCHEMA",
    "request_digest",
    "run_worker",
    "serve_forever",
    "worker_ident",
]
