"""Differential and metamorphic oracles over generated cases.

Every applicable execution model runs each case several times — a base
configuration (with cycle-attribution probes attached) plus metamorphic
variants (different warp size, exact instead of fast-forward clock,
shuffled block launch order, uniform-spawn conversion toggled). All runs
must produce *exactly* the reference interpreter's final global memory,
shared memory, and (for spawn-free programs) per-thread exit register
files; NaNs compare positionally. Every run must additionally satisfy the
structural counter identities of :mod:`repro.obs.invariants`.

Model applicability follows the repo's compatibility matrix: plain
programs run on pdom_block / pdom_warp / dwf, ``bar`` programs need block
scheduling (pdom_block), and ``spawn`` programs run on the spawn model.
The MIMD reference runs everything.

The clock is the one knob that promises bit-identical statistics, not
merely equal memory images: for every model the ``exact`` variant's
statistics must equal the fast-clock ``base`` run's — the
:func:`~repro.harness.sweep.run_stats_digest` of an SM model's
:class:`~repro.simt.gpu.RunStats`, every counter of DWF's
:class:`~repro.simt.stats.SMStats`. That catches a fast-forward bug that
shifts idle or stall cycles without changing any functional output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SchedulingModel, scaled_config
from repro.errors import MemoryError_
from repro.fuzz.generator import Case, make_case
from repro.fuzz.reference import (
    ReferenceLimitError,
    ReferenceResult,
    run_reference,
)
from repro.obs.invariants import check_run
from repro.obs.probe import TraceSession
from repro.simt.banked import BankedMemory
from repro.simt.dwf import run_dwf
from repro.simt.gpu import GPU, LaunchSpec
from repro.simt.memory import GlobalMemory
from repro.simt.snapshot import SnapshotRecorder

#: SIMT models the fuzzer differentiates against the reference.
FUZZ_MODELS = ("pdom_block", "pdom_warp", "spawn", "dwf")

_MAX_CYCLES = 2_000_000


def models_for(case: Case) -> tuple[str, ...]:
    """SIMT models that can execute this case's program."""
    if case.kind == "spawn":
        return ("spawn",)
    if case.kind == "barrier":
        return ("pdom_block",)
    return ("pdom_block", "pdom_warp", "dwf")


@dataclass
class ModelRun:
    """Observable outcome of one model execution."""

    model: str
    variant: str
    global_mem: np.ndarray
    shared_mem: np.ndarray
    recorder: SnapshotRecorder
    stats: object
    session: TraceSession | None
    threads_spawned: int


@dataclass
class CaseResult:
    """Outcome of the full oracle battery for one case."""

    case: Case
    failures: list[str] = field(default_factory=list)
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.skipped


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    cases_run: int = 0
    skipped: int = 0
    failures: list[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_model(case: Case, model: str, *, warp_size: int = 32,
              fast_forward: bool = True, shuffle_seed: int | None = None,
              spawn_when_uniform: bool = True,
              block_size: int | None = None, trace: bool = False,
              variant: str = "base") -> ModelRun:
    """Execute ``case`` on one SIMT model and capture its final state."""
    if model not in FUZZ_MODELS:
        raise ValueError(f"unknown fuzz model {model!r}")
    global_mem = GlobalMemory(case.global_words)
    global_mem.load_array(case.input_base,
                          np.asarray(case.inputs, dtype=np.float64))
    const_mem = np.asarray(case.const, dtype=np.float64)
    overrides = dict(warp_size=warp_size, sps_per_sm=4,
                     fast_forward=fast_forward, max_cycles=_MAX_CYCLES)

    if model == "dwf":
        config = scaled_config(1, **overrides)
        shared = BankedMemory(config.onchip_memory_bytes // 4,
                              model_conflicts=False)
        recorder = SnapshotRecorder()
        result = run_dwf(config, case.program, case.entry, global_mem,
                         const_mem, case.num_threads, shared_mem=shared,
                         snapshot=recorder)
        return ModelRun(model=model, variant=variant,
                        global_mem=global_mem.words.copy(),
                        shared_mem=shared.words.copy(), recorder=recorder,
                        stats=result.stats, session=None,
                        threads_spawned=0)

    overrides["scheduling"] = (SchedulingModel.WARP
                               if model == "pdom_warp"
                               else SchedulingModel.BLOCK)
    if model == "spawn":
        overrides["scheduling"] = SchedulingModel.WARP
        overrides["spawn_enabled"] = True
        overrides["spawn_spawn_when_uniform"] = spawn_when_uniform
    config = scaled_config(1, **overrides)
    launch = LaunchSpec(
        program=case.program, entry_kernel=case.entry,
        num_threads=case.num_threads,
        registers_per_thread=case.registers,
        block_size=block_size if block_size is not None else case.block_size,
        state_words=case.state_words if model == "spawn" else 0)
    session = TraceSession() if trace else None
    gpu = GPU(config, launch, global_mem, const_mem, trace=session)
    recorder = SnapshotRecorder()
    gpu.machine.snapshot = recorder
    if shuffle_seed is not None:
        queue = gpu.sms[0].launch_queue
        blocks = list(queue)
        order = np.random.default_rng(
            np.random.SeedSequence(shuffle_seed)).permutation(len(blocks))
        queue.clear()
        queue.extend(blocks[index] for index in order)
    stats = gpu.run()
    return ModelRun(model=model, variant=variant,
                    global_mem=global_mem.words.copy(),
                    shared_mem=gpu.sms[0].shared_mem.words.copy(),
                    recorder=recorder, stats=stats, session=session,
                    threads_spawned=int(stats.sm_stats.threads_spawned))


def _nan_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    a_nan = np.isnan(a)
    b_nan = np.isnan(b)
    if not bool((a_nan == b_nan).all()):
        return False
    return bool((a[~a_nan] == b[~b_nan]).all())


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> str:
    both = min(a.size, b.size)
    av, bv = a[:both], b[:both]
    differ = np.nonzero(~((av == bv) | (np.isnan(av) & np.isnan(bv))))[0]
    if differ.size == 0:
        return f"length {a.size} vs {b.size}"
    index = int(differ[0])
    return (f"{differ.size} word(s) differ, first at [{index}]: "
            f"{av[index]!r} vs {bv[index]!r}")


def _compare_to_reference(case: Case, reference: ReferenceResult,
                          run: ModelRun) -> list[str]:
    tag = f"{run.model}/{run.variant}"
    problems = []
    if not _nan_equal(run.global_mem, reference.global_mem):
        problems.append(f"{tag}: global memory diverges "
                        f"({_first_mismatch(run.global_mem, reference.global_mem)})")
    if not _nan_equal(run.shared_mem, reference.shared_mem):
        problems.append(f"{tag}: shared memory diverges "
                        f"({_first_mismatch(run.shared_mem, reference.shared_mem)})")
    if case.kind != "spawn":
        # Spawn-state registers hold model-specific addresses; register
        # files are only comparable for spawn-free programs.
        num_regs = case.program.max_register_index() + 1
        for tid in range(case.num_threads):
            ref_state = reference.exit_state.get(tid)
            model_state = run.recorder.exit_state.get(tid)
            if ref_state is None or model_state is None:
                problems.append(f"{tag}: thread {tid} missing exit snapshot "
                                f"(reference={ref_state is not None}, "
                                f"model={model_state is not None})")
                continue
            if not _nan_equal(model_state[0][:num_regs], ref_state[0]):
                problems.append(
                    f"{tag}: thread {tid} exit registers diverge "
                    f"({_first_mismatch(model_state[0][:num_regs], ref_state[0])})")
            if not bool((model_state[1] == ref_state[1]).all()):
                problems.append(f"{tag}: thread {tid} exit predicates "
                                f"diverge")
    else:
        if (run.variant != "uniform" and
                run.threads_spawned != reference.threads_spawned):
            problems.append(
                f"{tag}: spawn count {run.threads_spawned} != reference "
                f"{reference.threads_spawned}")
    return problems


def _variants(case: Case, model: str) -> list[dict]:
    alt_warp = (4, 8, 16)[case.seed % 3]
    variants = [
        dict(variant=f"warp{alt_warp}", warp_size=alt_warp),
        dict(variant="exact", fast_forward=False),
    ]
    if model != "dwf":
        variants.append(dict(variant="shuffle",
                             shuffle_seed=(case.seed ^ 0x5EED) & 0xFFFF))
    if model == "spawn":
        # spawn_when_uniform=False enables the uniform-spawn -> branch
        # conversion; spawn counts then legitimately differ, so the
        # oracle skips the count check for this variant.
        variants.append(dict(variant="uniform", spawn_when_uniform=False))
    if case.kind == "plain" and model != "dwf":
        variants.append(dict(
            variant="block",
            block_size=16 if case.block_size != 16 else 32))
    return variants


def run_case(case: Case, models=None) -> CaseResult:
    """Run the full oracle battery for one case.

    ``models`` restricts the SIMT models run (default: every model
    :func:`models_for` the case applies to).
    """
    from repro.harness.sweep import run_stats_digest

    try:
        reference = run_reference(case)
    except (ReferenceLimitError, MemoryError_):
        return CaseResult(case, skipped=True)
    applicable = [model for model in models_for(case)
                  if models is None or model in models]
    if not applicable:
        return CaseResult(case, skipped=True)
    result = CaseResult(case)
    for model in applicable:
        runs = [dict(variant="base", trace=True)]
        runs += _variants(case, model)
        digests: dict[str, dict] = {}
        for kwargs in runs:
            variant = kwargs.get("variant", "base")
            try:
                run = run_model(case, model, **kwargs)
            except Exception as error:  # a crash is a conformance failure
                result.failures.append(
                    f"{model}/{variant}: {type(error).__name__}: {error}")
                continue
            if variant in ("base", "exact"):
                digests[variant] = (run.stats.to_dict() if model == "dwf"
                                    else run_stats_digest(run.stats))
            result.failures += _compare_to_reference(case, reference, run)
            for problem in check_run(run.stats, run.recorder, run.session,
                                     grid_threads=case.num_threads):
                result.failures.append(f"{model}/{variant}: {problem}")
        if len(digests) == 2 and digests["exact"] != digests["base"]:
            result.failures.append(
                f"{model}/exact: statistics diverge from the fast-clock base "
                f"run (the two clocks must be bit-identical)")
    return result


def run_fuzz(num_cases: int, seed: int = 0, *, models=None, kinds=None,
             on_case=None) -> FuzzReport:
    """Run a fuzzing campaign of ``num_cases`` generated cases.

    All stochastic choices derive from ``seed`` through one
    :class:`numpy.random.SeedSequence`; the same ``(num_cases, seed)``
    replays the identical campaign. ``on_case`` is an optional callback
    ``(index, CaseResult) -> None`` for progress reporting.
    """
    report = FuzzReport()
    children = np.random.SeedSequence(seed).spawn(num_cases)
    for index, child in enumerate(children):
        case_seed = int(child.generate_state(1)[0])
        kind = None if not kinds else kinds[index % len(kinds)]
        case = make_case(case_seed, kind)
        result = run_case(case, models=models)
        report.cases_run += 1
        if result.skipped:
            report.skipped += 1
        elif result.failures:
            report.failures.append(result)
        if on_case is not None:
            on_case(index, result)
    return report
