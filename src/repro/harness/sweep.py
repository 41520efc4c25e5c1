"""Sweep engine: run independent simulations serially or on worker processes.

Every paper artifact is a sweep of independent ``(scene, ray_kind, mode)``
simulations. This module enumerates them as declarative :class:`SweepJob`
specs and executes them one of two ways, chosen by the worker count:

- ``jobs_n=1`` (or one job left to run): serially in-process — the
  determinism reference path;
- ``jobs_n > 1``: the jobs are published on a claim manifest
  (:mod:`repro.serve.manifest`) and ``jobs_n`` ``repro worker``
  processes — the same command a worker on another host runs — claim and
  execute them; the driver merges their records in input order.

Only the job spec crosses the process boundary on the way in (the preset
travels by *name*), and only a ``result`` record — stats plus a handful
of scalars — on the way out. Workers hydrate workloads themselves through
the persistent cache (:mod:`repro.harness.cache`), so a sweep's second
run skips every scene build, kd-tree build, and reference trace.

The simulator is deterministic, so ``--jobs N``, ``--jobs 1``, and a
direct :func:`~repro.harness.runner.run_mode` call produce bit-identical
:class:`~repro.simt.gpu.RunStats` (locked down by
``tests/harness/test_sweep.py`` against golden digests).

Fault tolerance (see ``docs/architecture.md`` for the failure model):

- each job gets a retry budget with exponential backoff and an optional
  per-job wall-clock timeout (:class:`RetryPolicy`), applied by one
  helper (:func:`run_job`) on the serial path and in every worker;
- a worker that dies or hangs costs its one claimed job an attempt; the
  driver reopens the job on a replacement worker and quarantines it as a
  :class:`FailedJob` once its attempts are spent — the rest of the sweep
  keeps running;
- ``strict=True`` (the default) raises :class:`~repro.errors.SweepError`
  if anything permanently failed; ``strict=False`` returns partial
  :class:`SweepResults` carrying the failure records;
- with a ``checkpoint`` path, every result and failure is appended to
  that manifest; ``resume=True`` serves results matching job key + config
  digest bit-identically instead of re-simulating them;
- :class:`FaultInjector` (``REPRO_FAULT_SPEC``) deterministically injects
  crash/hang/exception faults into :func:`execute_job` so every recovery
  path is testable in CI without flakes.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import (
    ConfigError,
    FaultInjectionError,
    SchedulingError,
    SweepError,
)
from repro.harness.cache import resolve_cache_dir, resolve_env_dir
from repro.harness.presets import get_preset
from repro.harness.runner import StatsView, prepare_workload, run_mode
from repro.simt.gpu import RunStats


@dataclass(frozen=True)
class SweepJob:
    """One independent simulation: everything a worker needs, by value."""

    scene: str
    mode: str
    preset: str                      # preset *name*; workers re-resolve it
    ray_kind: str = "primary"
    seed: int = 0
    max_cycles: int | None = None
    fast_forward: bool | None = None

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.scene, self.mode, self.ray_kind, self.seed)

    def describe(self) -> str:
        tail = "" if self.ray_kind == "primary" else f"/{self.ray_kind}"
        return f"{self.scene}{tail}:{self.mode}"

    def config_digest(self) -> str:
        """Hash of every field that determines the job's result.

        Checkpoint records are keyed by :attr:`key` *and* this digest, so
        a resumed sweep never serves a result that was computed under a
        different preset, cycle budget, or clock.
        """
        parts = [
            "sweep-job-v1", self.scene, self.mode, self.preset,
            self.ray_kind, f"seed={self.seed}",
            f"max_cycles={self.max_cycles}",
            f"fast_forward={self.fast_forward}",
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass
class JobResult(StatsView):
    """What comes back from a worker: stats plus derived scalars.

    Exposes the same metric surface as
    :class:`~repro.harness.runner.RunResult` (both mix in
    :class:`~repro.harness.runner.StatsView`), so figure code can consume
    either interchangeably.
    """

    job: SweepJob
    stats: RunStats
    num_rays: int
    verified: bool
    wall_seconds: float

    @property
    def completed_fraction(self) -> float:
        # An empty/truncated workload completes nothing, not a div-zero.
        if self.num_rays == 0:
            return 0.0
        return self.stats.rays_completed / self.num_rays

    def verify(self) -> bool:
        return self.verified


@dataclass
class FailedJob:
    """A job the sweep gave up on after exhausting its retry budget."""

    job: SweepJob
    attempts: int
    kind: str        # "exception" | "crash" | "timeout"
    error: str

    def describe(self) -> str:
        return (f"{self.job.describe()}  FAILED ({self.kind}) after "
                f"{self.attempts} attempt(s): {self.error}")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job fault-tolerance policy for :func:`run_sweep`.

    ``max_attempts`` bounds how many times one job may execute (first try
    included) before it is quarantined as a :class:`FailedJob`.
    ``backoff_seconds`` is the base delay before a retry; it doubles on
    every further attempt. ``timeout_seconds`` is a per-attempt
    wall-clock budget: a ``SIGALRM`` timer turns hangs in Python code into
    retryable ``TimeoutError``s, and on worker processes the driver kills
    a worker whose attempt outlives ``2 × timeout + 1`` s — the backstop
    for hard hangs the signal cannot reach.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.25
    timeout_seconds: float | None = None

    def backoff_for(self, attempt: int) -> float:
        """Delay before retrying after ``attempt`` failed executions."""
        if self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * (2.0 ** max(0, attempt - 1))


class SweepResults:
    """Ordered job results with lookup by (scene, mode, ray_kind, seed).

    ``failures`` carries the :class:`FailedJob` records of a partial
    (``strict=False``) sweep; a fully-successful sweep has ``ok == True``.
    """

    def __init__(self, results: Iterable[JobResult],
                 failures: Iterable[FailedJob] = ()):
        self.results = list(results)
        self.failures = list(failures)
        self._by_key: dict[tuple, JobResult] = {}
        for result in self.results:
            key = result.job.key
            if key in self._by_key:
                raise SchedulingError(
                    f"duplicate sweep results for key {key}: jobs "
                    f"{self._by_key[key].job!r} and {result.job!r} would "
                    f"clobber each other; deduplicate the job list")
            self._by_key[key] = result

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def get(self, scene: str, mode: str, ray_kind: str = "primary",
            seed: int = 0) -> JobResult:
        key = (scene, mode, ray_kind, seed)
        if key not in self._by_key:
            raise KeyError(f"no sweep result for {key}; have "
                           f"{sorted(self._by_key)}")
        return self._by_key[key]

    @property
    def ok(self) -> bool:
        """True when no job permanently failed."""
        return not self.failures

    @property
    def unverified(self) -> list[JobResult]:
        """Completed jobs whose results failed reference verification."""
        return [result for result in self.results if not result.verified]

    @property
    def total_wall_seconds(self) -> float:
        return sum(result.wall_seconds for result in self.results)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit value > ``REPRO_JOBS`` > ``os.cpu_count()``.

    An unset or empty ``REPRO_JOBS`` falls through to the CPU count; a
    non-integer value (``REPRO_JOBS=auto``) raises
    :class:`~repro.errors.ConfigError` naming the offending value.
    """
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer worker count, got {env!r} "
                f"(unset it or leave it empty to use all cores)") from None
        return max(1, value)
    return os.cpu_count() or 1


# -- fault injection ---------------------------------------------------------


@dataclass(frozen=True)
class FaultClause:
    """One injected fault: fire ``kind`` on ``count`` executions of a job."""

    kind: str        # "crash" | "hang" | "exception"
    scene: str
    mode: str
    count: int = 1

    @property
    def ident(self) -> str:
        return f"{self.kind}-{self.scene}-{self.mode}"


class FaultInjector:
    """Deterministic fault injection for the sweep recovery paths.

    Spec grammar (``REPRO_FAULT_SPEC``): comma-separated clauses of the
    form ``kind@scene:mode`` with an optional ``*count`` suffix, e.g.
    ``crash@conference:spawn,hang@fairyforest:pdom_block*2``. Kinds:

    - ``exception`` — raise :class:`~repro.errors.FaultInjectionError`;
    - ``hang`` — sleep far past any sane job budget (exercises the
      timeout/watchdog path; only use with a ``timeout_seconds`` policy);
    - ``crash`` — ``os._exit`` the process. Only meaningful on worker
      processes, where the driver sees the worker die; in a serial sweep
      it would kill the driver, exactly like a real crash would.

    Each clause fires on the first ``count`` executions of the matching
    job and never again — the firing count is claimed through exclusive
    token files in ``REPRO_FAULT_DIR`` (default: a per-spec directory
    under the system temp dir), so the count holds across retries,
    replacement workers, and worker processes.
    """

    KINDS = ("crash", "hang", "exception")

    def __init__(self, clauses: Iterable[FaultClause],
                 state_dir: str | pathlib.Path | None = None,
                 hang_seconds: float = 3600.0):
        self.clauses = list(clauses)
        self.state_dir = pathlib.Path(state_dir) if state_dir is not None \
            else None
        self.hang_seconds = hang_seconds

    @classmethod
    def parse(cls, spec: str,
              state_dir: str | pathlib.Path | None = None) -> "FaultInjector":
        clauses = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            count = 1
            if "*" in chunk:
                chunk, _, count_text = chunk.rpartition("*")
                try:
                    count = int(count_text)
                except ValueError:
                    raise ConfigError(
                        f"bad fault count {count_text!r} in spec chunk "
                        f"{chunk!r}") from None
            kind, sep, target = chunk.partition("@")
            scene, sep2, mode = target.partition(":")
            if kind not in cls.KINDS or not sep or not sep2 \
                    or not scene or not mode:
                raise ConfigError(
                    f"bad fault clause {chunk!r}; expected "
                    f"kind@scene:mode[*count] with kind in {cls.KINDS}")
            clauses.append(FaultClause(kind=kind, scene=scene, mode=mode,
                                       count=count))
        if state_dir is None:
            state_dir = os.environ.get("REPRO_FAULT_DIR")
        if state_dir is None:
            digest = hashlib.sha256(spec.encode()).hexdigest()[:16]
            state_dir = pathlib.Path(tempfile.gettempdir()) \
                / f"repro-faults-{digest}"
        return cls(clauses, state_dir=state_dir)

    @classmethod
    def from_env(cls) -> "FaultInjector | None":
        spec = os.environ.get("REPRO_FAULT_SPEC")
        if not spec:
            return None
        return cls.parse(spec)

    def _claim(self, clause: FaultClause) -> bool:
        """Atomically claim one of the clause's firing tokens."""
        if self.state_dir is None:
            return True
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for n in range(1, clause.count + 1):
            token = self.state_dir / f"{clause.ident}.{n}"
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fire(self, job: SweepJob) -> None:
        """Inject the configured fault for ``job``, if any remain."""
        for clause in self.clauses:
            if clause.scene != job.scene or clause.mode != job.mode:
                continue
            if not self._claim(clause):
                continue
            if clause.kind == "exception":
                raise FaultInjectionError(
                    f"injected exception in {job.describe()}")
            if clause.kind == "hang":
                time.sleep(self.hang_seconds)
                raise FaultInjectionError(
                    f"injected hang in {job.describe()} was not interrupted")
            # "crash": die the way a segfaulting worker would — no cleanup,
            # no exception, just a dead process.
            os._exit(66)


# -- job execution -----------------------------------------------------------


def execute_job(job: SweepJob, injector: FaultInjector | None = None) -> JobResult:
    """Run one job (in a worker or inline); workloads come via the cache.

    ``injector`` overrides the ``REPRO_FAULT_SPEC``-derived fault injector
    (tests pass one explicitly; production runs have neither).
    """
    if injector is None:
        injector = FaultInjector.from_env()
    if injector is not None:
        injector.fire(job)
    preset = get_preset(job.preset)
    start = time.perf_counter()
    workload = prepare_workload(job.scene, preset, ray_kind=job.ray_kind,
                                seed=job.seed)
    result = run_mode(job.mode, workload, max_cycles=job.max_cycles,
                      fast_forward=job.fast_forward)
    wall = time.perf_counter() - start
    return JobResult(job=job, stats=result.stats, num_rays=workload.num_rays,
                     verified=result.verify(), wall_seconds=wall)


def _execute_with_deadline(job: SweepJob,
                           timeout_seconds: float | None) -> JobResult:
    """Run one job under a ``SIGALRM`` wall-clock budget.

    A hang inside Python code becomes an ordinary ``TimeoutError`` the
    retry loop can retry. Platforms without ``SIGALRM``, and non-main
    threads, fall back to an unguarded run.
    """
    if (timeout_seconds is None or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return execute_job(job)

    def _alarm(signum, frame):
        raise TimeoutError(
            f"{job.describe()} exceeded its {timeout_seconds:.1f}s "
            f"wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
    try:
        return execute_job(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_job(job: SweepJob, retry: RetryPolicy,
            emit: Callable[[str], None], first_attempt: int = 1,
            on_retry: Callable[[], object] | None = None
            ) -> JobResult | FailedJob:
    """Execute ``job`` under ``retry``; a :class:`FailedJob` when spent.

    The one retry loop: the serial path and every ``repro worker`` run
    jobs through it. ``first_attempt`` > 1 continues a budget that
    earlier attempts (a worker that died) already used; ``on_retry``
    runs before each retry (workers re-append their claim, so the
    driver's hang watchdog times each attempt, not the whole loop).
    """
    attempt = first_attempt
    while True:
        try:
            return _execute_with_deadline(job, retry.timeout_seconds)
        except Exception as exc:  # quarantine, don't kill the sweep
            kind = "timeout" if isinstance(exc, TimeoutError) \
                else "exception"
            error = f"{type(exc).__name__}: {exc}"
            if attempt >= retry.max_attempts:
                return FailedJob(job=job, attempts=attempt, kind=kind,
                                 error=error)
            emit(f"[retry] {job.describe()}  attempt "
                 f"{attempt + 1}/{retry.max_attempts} after {error}")
            delay = retry.backoff_for(attempt)
            if delay:
                time.sleep(delay)
            attempt += 1
            if on_retry is not None:
                on_retry()


def default_checkpoint_path(tag: str) -> pathlib.Path:
    """Where ``repro experiments --resume`` keeps its manifest by default.

    ``REPRO_CHECKPOINT_DIR`` overrides the directory so multi-host workers
    can point at a shared filesystem without passing ``--checkpoint``
    everywhere; the default stays ``<cache-dir>/checkpoints``. An override
    that cannot be created or written raises
    :class:`~repro.errors.ConfigError` immediately — a sweep must not run
    for minutes and then fail on its first checkpoint append.
    """
    override = os.environ.get("REPRO_CHECKPOINT_DIR")
    if override:
        # Pin a relative override to the CWD at first resolution: workers
        # spawned with a different CWD must not open a second manifest.
        directory = resolve_env_dir("REPRO_CHECKPOINT_DIR", override)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"REPRO_CHECKPOINT_DIR={override!r} cannot be created: "
                f"{exc}") from None
        if not os.access(directory, os.W_OK):
            raise ConfigError(
                f"REPRO_CHECKPOINT_DIR={override!r} is not writable")
        return directory / f"{tag}.jsonl"
    return resolve_cache_dir() / "checkpoints" / f"{tag}.jsonl"


# -- sweep driver ------------------------------------------------------------


def stderr_progress(line: str) -> None:
    """Default progress sink for CLI sweeps."""
    print(line, file=sys.stderr, flush=True)


def _progress_line(done: int, total: int, result: JobResult) -> str:
    flag = "" if result.verified else "  UNVERIFIED"
    return (f"[{done}/{total}] {result.job.describe()}  "
            f"{result.stats.cycles} cycles  "
            f"{result.wall_seconds:.2f}s{flag}")


def _check_duplicate_jobs(job_list: list[SweepJob]) -> None:
    seen: dict[tuple, SweepJob] = {}
    for job in job_list:
        if job.key in seen:
            raise SchedulingError(
                f"duplicate sweep jobs for key {job.key}: {seen[job.key]!r} "
                f"and {job!r}; results are keyed by (scene, mode, ray_kind, "
                f"seed), so one of them would be silently lost — "
                f"deduplicate the job list")
        seen[job.key] = job


def run_sweep(jobs: Iterable[SweepJob], jobs_n: int | None = None,
              progress: Callable[[str], None] | None = None, *,
              retry: RetryPolicy | None = None, strict: bool = True,
              checkpoint: str | pathlib.Path | None = None,
              resume: bool = False) -> SweepResults:
    """Execute all jobs; results keep the input order.

    ``jobs_n=1`` (or a single job left to run) runs serially in-process —
    the exact :func:`execute_job` code path the workers run, so the two
    can be diffed bit-for-bit. Larger values publish the jobs on a claim
    manifest and start that many ``repro worker`` processes on it.

    Fault tolerance: every job gets ``retry.max_attempts`` executions with
    exponential backoff (and a per-attempt wall-clock timeout when
    ``retry.timeout_seconds`` is set); a worker crash costs only the job
    that worker held. With ``strict=True`` (the default) any
    permanently-failed job raises :class:`~repro.errors.SweepError` once
    the rest of the sweep has finished; ``strict=False`` returns partial
    :class:`SweepResults` whose ``failures`` list the quarantined jobs.

    ``checkpoint`` is the manifest path: every result and failure is
    appended to it (the workers' manifest, with ``jobs_n > 1``; without a
    checkpoint they use a temporary one). ``resume=True`` serves jobs that
    already have a result there — matched by job key *and* config digest
    — without re-simulating them, bit-identically; every other job runs.
    """
    job_list = list(jobs)
    _check_duplicate_jobs(job_list)
    retry = RetryPolicy() if retry is None else retry
    if resume and checkpoint is None:
        raise ConfigError("resume=True requires a checkpoint manifest path")
    manifest = None
    if checkpoint is not None:
        # Imported at call time: the manifest module imports this one.
        from repro.serve.manifest import ShardManifest
        manifest = ShardManifest(checkpoint)
    cached = manifest.load() if resume else None
    emit = progress if progress is not None else (lambda line: None)
    total = len(job_list)
    results: list[JobResult | None] = [None] * total
    failures: list[FailedJob] = []
    done = 0

    def settle(index: int, outcome: JobResult | FailedJob,
               executed_here: bool) -> None:
        nonlocal done
        done += 1
        if isinstance(outcome, FailedJob):
            failures.append(outcome)
            if executed_here and manifest is not None:
                manifest.record_failure(outcome.job, outcome.kind,
                                        outcome.error, outcome.attempts)
            emit(f"[{done}/{total}] {outcome.describe()}")
            return
        results[index] = outcome
        if executed_here:
            if manifest is not None:
                manifest.record_result(outcome)
            # Opt-in results warehouse (no-op without REPRO_RESULTS_DIR):
            # one store line per job executed in this process; workers
            # record their own, and resumed jobs never come through here.
            from repro.results.store import maybe_record
            maybe_record(outcome, source="sweep")
        emit(_progress_line(done, total, outcome))

    remaining: list[int] = []
    for index, job in enumerate(job_list):
        result = cached.cached_result(job) if cached is not None else None
        if result is None:
            remaining.append(index)
            continue
        results[index] = result
        done += 1
        emit(f"[{done}/{total}] {job.describe()}  resumed from checkpoint")

    workers = min(resolve_jobs(jobs_n), len(remaining))
    if workers > 1:
        _run_on_workers(job_list, remaining, workers, retry, manifest,
                        emit, settle)
    else:
        for index in remaining:
            settle(index, run_job(job_list[index], retry, emit), True)

    swept = SweepResults([r for r in results if r is not None],
                         failures=failures)
    if strict and failures:
        names = ", ".join(failure.job.describe() for failure in failures)
        error = SweepError(
            f"{len(failures)} of {total} sweep jobs permanently failed: "
            f"{names} (pass strict=False for partial results)", failures)
        error.results = swept
        raise error
    return swept


def _run_on_workers(job_list, remaining, workers, retry, manifest, emit,
                    settle) -> None:
    """Publish ``remaining`` on ``manifest`` (a temporary one if None) and
    drive ``workers`` worker processes until every job has settled."""
    from repro.serve.manifest import ShardManifest, drive_workers

    index_of = {job_list[index].key: index for index in remaining}
    temporary = None
    if manifest is None:
        handle, temporary = tempfile.mkstemp(prefix="repro-sweep-",
                                             suffix=".jsonl")
        os.close(handle)
        manifest = ShardManifest(temporary)
    try:
        drive_workers(manifest, [job_list[index] for index in remaining],
                      workers, retry, emit,
                      lambda job, outcome: settle(index_of[job.key],
                                                  outcome, False))
    finally:
        if temporary is not None:
            pathlib.Path(temporary).unlink(missing_ok=True)


def _warm_one(spec: tuple[str, str, str, int]) -> int:
    scene, preset_name, ray_kind, seed = spec
    preset = get_preset(preset_name)
    workload = prepare_workload(scene, preset, ray_kind=ray_kind, seed=seed)
    return workload.num_rays


def warm_workloads(scenes: Iterable, preset_name: str,
                   ray_kinds: Iterable[str] = ("primary",),
                   jobs_n: int | None = None, seed: int = 0) -> int:
    """Pre-populate the persistent cache, one worker per workload.

    Run before a sweep so pool workers racing on the same scene all find a
    finished entry instead of each rebuilding it. A no-op when the cache is
    disabled (nothing would be retained across processes).

    ``scenes`` entries are either plain scene names (crossed with
    ``ray_kinds``) or ``(scene, ray_kind)`` pairs naming one workload each
    — the form mixed-family sweeps use, since a graph scene has no
    "primary" ray batch to warm.
    """
    from repro.harness.cache import cache_enabled

    if not cache_enabled():
        return 0
    specs = []
    for item in scenes:
        if isinstance(item, tuple):
            scene, kind = item
            specs.append((scene, preset_name, kind, seed))
        else:
            specs.extend((item, preset_name, kind, seed)
                         for kind in ray_kinds)
    workers = min(resolve_jobs(jobs_n), max(1, len(specs)))
    if workers <= 1 or len(specs) <= 1:
        for spec in specs:
            _warm_one(spec)
        return len(specs)
    # Imported here, its only use: every simulating process imports this
    # module, and the pool would bring in multiprocessing with it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_warm_one, specs))
    return len(specs)


def run_stats_digest(stats: RunStats) -> dict:
    """JSON-able fingerprint of a run's full counter state.

    Covers every headline counter plus the complete divergence histogram
    and per-thread commit counts — two runs with equal digests executed
    identically for all reporting purposes. Used by the sweep determinism
    tests to compare ``--jobs N`` / ``--jobs 1`` / direct execution.

    Derived from the versioned :meth:`RunStats.to_dict` document so the
    digest and the serialization schema cannot drift apart; the key set
    and value layout are frozen by the golden files under
    ``tests/harness/golden/``.
    """
    document = stats.to_dict()
    sm = document["sm"]
    divergence = document["divergence"]
    return {
        "cycles": document["cycles"],
        "rays_completed": document["rays_completed"],
        "issued_instructions": sm["issued_instructions"],
        "committed_thread_instructions": sm["committed_thread_instructions"],
        "idle_cycles": sm["idle_cycles"],
        "stall_cycles": sm["stall_cycles"],
        "threads_spawned": sm["threads_spawned"],
        "full_warps_formed": sm["full_warps_formed"],
        "partial_warps_flushed": sm["partial_warps_flushed"],
        "bank_conflict_cycles": sm["bank_conflict_cycles"],
        "dram_read_bytes": document["dram_read_bytes"],
        "dram_write_bytes": document["dram_write_bytes"],
        "dram_transactions": document["dram_transactions"],
        "thread_commits": document["thread_commits"],
        "divergence": {
            "window": divergence["window"],
            "issues": divergence["issues"],
            "idle": divergence["idle"],
            "stall": divergence["stall"],
        },
    }
