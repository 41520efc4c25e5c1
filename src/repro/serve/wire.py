"""The versioned ``repro-wire/1`` JSON schema for everything that travels.

Manifest lines, the versioned ``RunStats.to_dict`` payload and the job
specs the CLI/api accept share one envelope, so the job server, the
sweep manifest (checkpoint and worker claims alike), and the HTTP API all
speak one language::

    {"schema": "repro-wire/1", "kind": <kind>, ...}

Kinds
=====

=================  =========================================================
kind               payload
=================  =========================================================
campaign           opens one parallel run on a manifest: its
                   :class:`~repro.harness.sweep.RetryPolicy`; the job,
                   claim, requeue and failure records after it belong to
                   that run
job                one :class:`~repro.harness.sweep.SweepJob` spec, plus its
                   ``key`` and ``config_digest`` for manifest matching
claim              a worker's bid to run one attempt of a job
                   (``key``/``digest`` + ``worker`` ident); the first claim
                   line of an open job wins, and the owner re-appends one
                   per retry
requeue            the driver reopened a job whose worker died or hung
                   (``failure_kind`` crash|timeout); the attempt counts
result             a completed :class:`~repro.harness.runner.RunResult`:
                   job key/digest + the versioned ``RunStats.to_dict``
                   payload (bit-identical round trip)
failure            a quarantined job; final within its run
sweep-request      one ``api.sweep`` call by value (a list of job specs
                   plus the worker count and retry policy); one simulation
                   is a one-job sweep request
=================  =========================================================

Torn or foreign lines parse to ``None``, never raise — append-only files
written by crashing workers must stay loadable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from repro.errors import ConfigError, did_you_mean
from repro.harness.runner import RunResult, SweepJob
from repro.harness.sweep import RetryPolicy
from repro.simt.gpu import RunStats

#: Schema tag carried by every wire record.
WIRE_SCHEMA = "repro-wire/1"

_JOB_FIELDS = tuple(f.name for f in fields(SweepJob))


@dataclass(frozen=True)
class SweepRequest:
    """One ``api.sweep`` call, by value; one simulation is a one-job request.

    ``jobs_n`` is the worker count (the ``--jobs`` knob: above 1 the sweep
    runs on that many ``repro worker`` processes). ``retries`` and
    ``job_timeout`` feed the sweep's :class:`~repro.harness.sweep.RetryPolicy`.
    """

    jobs: tuple[SweepJob, ...]
    jobs_n: int | None = None
    retries: int = 3
    job_timeout: float | None = None

    def __post_init__(self):
        if not self.jobs:
            raise ConfigError("a sweep request needs at least one job")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.retries < 1:
            raise ConfigError(f"retries must be >= 1, got {self.retries}")


# -- encoding ----------------------------------------------------------------


def job_to_wire(job: SweepJob) -> dict:
    record = {"schema": WIRE_SCHEMA, "kind": "job",
              "key": list(job.key), "digest": job.config_digest()}
    record.update(asdict(job))
    return record


def campaign_to_wire(retry: RetryPolicy) -> dict:
    """The header of one parallel run: the policy every worker follows."""
    return {"schema": WIRE_SCHEMA, "kind": "campaign",
            "retry": asdict(retry)}


def claim_to_wire(job: SweepJob, worker: str) -> dict:
    """A worker's bid for one job; ties resolve by file order (first wins)."""
    return {"schema": WIRE_SCHEMA, "kind": "claim", "key": list(job.key),
            "digest": job.config_digest(), "worker": str(worker)}


def requeue_to_wire(job: SweepJob, worker: str, kind: str,
                    error: str) -> dict:
    """The driver reopens ``job``: ``worker`` died or hung holding it."""
    return {"schema": WIRE_SCHEMA, "kind": "requeue", "key": list(job.key),
            "digest": job.config_digest(), "worker": str(worker),
            "failure_kind": str(kind), "error": str(error)}


def result_to_wire(result: RunResult) -> dict:
    """A completed job, embedding the versioned ``RunStats`` payload.

    Carries the full job spec too, so a result line can be rehydrated
    standalone (the shard driver merges results for jobs *it* enumerated,
    but a human or a cross-host tool only has the file).
    """
    return {
        "schema": WIRE_SCHEMA,
        "kind": "result",
        "key": list(result.job.key),
        "preset": result.job.preset,
        "digest": result.job.config_digest(),
        "job": asdict(result.job),
        "num_rays": result.num_rays,
        "verified": result.verified,
        "wall_seconds": result.wall_seconds,
        "stats": result.stats.to_dict(),
    }


def failure_to_wire(job: SweepJob, kind: str, error: str,
                    attempts: int = 1) -> dict:
    return {"schema": WIRE_SCHEMA, "kind": "failure", "key": list(job.key),
            "digest": job.config_digest(), "failure_kind": str(kind),
            "error": str(error), "attempts": int(attempts)}


def request_to_wire(request: SweepRequest) -> dict:
    if isinstance(request, SweepRequest):
        return {
            "schema": WIRE_SCHEMA,
            "kind": "sweep-request",
            "jobs": [asdict(job) for job in request.jobs],
            "jobs_n": request.jobs_n,
            "retries": request.retries,
            "job_timeout": request.job_timeout,
        }
    raise ConfigError(f"not a wire request: {type(request).__name__}")


def dump_line(record: dict) -> str:
    """One canonical JSONL line (sorted keys, no trailing newline)."""
    return json.dumps(record, sort_keys=True)


# -- decoding ----------------------------------------------------------------


def _dataclass_from(cls, data: dict, *, what: str):
    """Strictly build a dataclass from wire fields (typo'd keys raise)."""
    names = {f.name for f in fields(cls)}
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ConfigError(f"unknown {what} field {unknown[0]!r}."
                          f"{did_you_mean(unknown[0], names)}")
    return cls(**data)


def job_from_wire(record: dict) -> SweepJob:
    data = {name: record[name] for name in _JOB_FIELDS if name in record}
    missing = [name for name in ("scene", "mode", "preset")
               if name not in data]
    if missing:
        raise ConfigError(f"job record is missing {missing[0]!r}")
    job = _dataclass_from(SweepJob, data, what="job")
    digest = record.get("digest")
    if digest is not None and digest != job.config_digest():
        raise ConfigError(
            f"job record digest {digest!r} does not match the spec "
            f"({job.config_digest()!r}); the manifest was written by an "
            f"incompatible build")
    return job


def _result_field(record: dict, name: str, convert):
    """Extract + convert one result field, diagnosing instead of raising raw.

    A missing key gets the wire format's did-you-mean treatment (catching
    the ``wall_secondss`` class of hand-edited manifest typo); a present
    but unconvertible value names the field and the offending value. Both
    raise :class:`~repro.errors.ConfigError`, which every manifest loader
    already treats as "skip or recompute this record" — never a bare
    ``KeyError``/``ValueError`` escaping to the caller.
    """
    if name not in record:
        raise ConfigError(f"result record is missing {name!r}."
                          f"{did_you_mean(name, record.keys())}")
    try:
        return convert(record[name])
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(
            f"result record field {name!r} is malformed: "
            f"{record[name]!r} ({type(exc).__name__}: {exc})") from None


def result_from_wire(record: dict, job: SweepJob | None = None) -> RunResult:
    """Rehydrate a result record; ``RunStats`` round-trips bit-identically.

    ``job`` overrides the embedded spec (the resume path matches records
    by key+digest and wants *its* job object back, not a reparsed one).
    Malformed or legacy records raise :class:`~repro.errors.ConfigError`
    with a did-you-mean diagnostic, never a bare ``KeyError``.
    """
    if job is None:
        embedded = record.get("job")
        if embedded is None:
            raise ConfigError("result record embeds no job spec; pass job=")
        job = _dataclass_from(SweepJob, dict(embedded), what="job")
    return RunResult(job=job,
                     stats=_result_field(record, "stats", RunStats.from_dict),
                     num_rays=_result_field(record, "num_rays", int),
                     verified=_result_field(record, "verified", bool),
                     wall_seconds=_result_field(record, "wall_seconds",
                                                float))


def retry_from_wire(record: dict) -> RetryPolicy:
    """The :class:`~repro.harness.sweep.RetryPolicy` of a campaign record."""
    return _dataclass_from(RetryPolicy, dict(record["retry"]),
                           what="retry policy")


def request_from_wire(record: dict) -> SweepRequest:
    kind = record.get("kind")
    body = {key: value for key, value in record.items()
            if key not in ("schema", "kind")}
    if kind == "simulate-request":
        raise ConfigError(
            "simulate-request records are no longer accepted; send one "
            "simulation as a sweep-request with a one-job 'jobs' list")
    if kind == "sweep-request":
        jobs = body.pop("jobs", None)
        if not jobs:
            raise ConfigError("sweep request carries no jobs")
        body["jobs"] = tuple(
            _dataclass_from(SweepJob, dict(spec), what="job")
            for spec in jobs)
        return _dataclass_from(SweepRequest, body, what="sweep request")
    raise ConfigError(f"not a wire request record: kind={kind!r}")


def parse_line(line: str, schema: str = WIRE_SCHEMA) -> dict | None:
    """Parse one JSONL line into a ``schema`` record, or ``None``.

    The one line reader for the append-only logs (the manifest here, the
    :mod:`repro.results` store with its own schema). Tolerates torn tail
    lines from interrupted writers, non-JSON noise, and foreign schemas —
    all of those return ``None`` (callers skip them).
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    if record.get("schema") != schema:
        return None
    return record


def record_key(record: dict) -> tuple:
    """The ``(job key, config digest)`` identity of a job-scoped record."""
    return (tuple(record["key"]), record["digest"])


def request_digest(request: SweepRequest | dict) -> str:
    """Content hash identifying a service request.

    Two submissions with byte-identical canonical wire encodings get the
    same digest — the job server uses this to serve a resubmitted request
    from its existing job (and its checkpoint) instead of recomputing.
    """
    record = request if isinstance(request, dict) \
        else request_to_wire(request)
    return hashlib.sha256(dump_line(record).encode()).hexdigest()[:16]
