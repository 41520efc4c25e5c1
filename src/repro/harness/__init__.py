"""Experiment harness: presets, workload runner, sweep engine, cache."""

from repro.harness.presets import PRESETS, SimPreset, get_preset
from repro.harness.runner import (
    MODES,
    RunResult,
    SweepJob,
    Workload,
    build_workload,
    prepare_workload,
    run_mode,
)
from repro.harness.cache import WorkloadCache, cache_enabled, default_cache
from repro.harness.sweep import (
    SweepResults,
    resolve_jobs,
    run_sweep,
    run_stats_digest,
)
from repro.harness import experiments

__all__ = [
    "MODES",
    "PRESETS",
    "RunResult",
    "SimPreset",
    "SweepJob",
    "SweepResults",
    "Workload",
    "WorkloadCache",
    "build_workload",
    "cache_enabled",
    "default_cache",
    "experiments",
    "get_preset",
    "prepare_workload",
    "resolve_jobs",
    "run_mode",
    "run_stats_digest",
    "run_sweep",
]
