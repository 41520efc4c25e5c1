"""Simulator throughput — cycles simulated per wall-clock second.

Times the Figure 8 rays-per-second workload in both clock modes
(docs/architecture.md, "Event-driven fast-forward") and emits cycles/s
for each, so a slowdown in the exact cycle loop or in the fast-forward
path shows up in BENCH output. The bench asserts only that both clocks
simulate the same number of cycles and that the fast clock is not much
slower than exact; bit-identity of the two clocks is enforced
exhaustively by tests/simt/test_fastforward_differential.py.

Results land in ``BENCH_simulator_speed.json`` at the repo root
(refresh with ``REPRO_UPDATE_BENCH=1``). The ``presets`` section records
the config digest, git revision, and cycles/s per clock at the time it
was generated. Each refresh also *appends* an entry to the ``history``
section (git revision + cycles/s per clock), so the file accumulates a
per-revision trajectory instead of overwriting it. Absolute timings vary
by machine and are provenance only; the end-to-end speed measurement
with repeats and spread is ``perfbench`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import time

import pytest

from repro.analysis.report import format_table
from repro.api import config_for_mode, simulate
from repro.results.history import upsert_history

#: The Figure 8 modes (traditional block/warp scheduling + dynamic
#: µ-kernels) on the conference scene — the paper's headline workload.
MODES = ("pdom_block", "pdom_warp", "spawn")
SCENE = "conference"

#: Committed benchmark record, at the repo root next to ROADMAP.md.
BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_simulator_speed.json"


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_PATH.parent, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except Exception:
        return "unknown"


def _git_dirty() -> bool:
    """Whether the tree differs from HEAD (``git status --porcelain``).

    A refresh from a dirty tree is still recorded — it is useful while
    iterating — but flagged, so it can never masquerade as (or replace)
    the committed revision's honest history point.
    """
    try:
        return bool(subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=BENCH_PATH.parent, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip())
    except Exception:
        return False


def _config_digest(preset) -> str:
    """Fingerprint of the benchmark's full GPU configuration, all modes."""
    document = {mode: config_for_mode(mode, preset).to_dict()
                for mode in MODES}
    payload = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _time_mode(mode: str, workload, *, fast_forward: bool):
    """Best-of-2 cycles/s (absorbs one-off warm-up) plus the result."""
    best = float("inf")
    result = None
    for _ in range(2):
        start = time.perf_counter()
        result = simulate(workload, mode, fast_forward=fast_forward)
        best = min(best, time.perf_counter() - start)
    return result.stats.cycles / best, result


def _run_all(workloads):
    workload = workloads(SCENE)
    rows = []
    for mode in MODES:
        fast_rate, fast_result = _time_mode(mode, workload,
                                            fast_forward=True)
        exact_rate, exact_result = _time_mode(mode, workload,
                                              fast_forward=False)
        assert exact_result.stats.cycles == fast_result.stats.cycles
        rows.append({
            "mode": mode,
            "cycles": fast_result.stats.cycles,
            "fast_cyc_per_s": round(fast_rate),
            "exact_cyc_per_s": round(exact_rate),
            "fast_vs_exact": round(fast_rate / exact_rate, 2),
        })
    return rows


def _load_committed() -> dict:
    if not BENCH_PATH.exists():
        return {}
    return json.loads(BENCH_PATH.read_text())


def _bench_document(preset, rows) -> dict:
    return {
        "git_rev": _git_rev(),
        "config_digest": _config_digest(preset),
        "modes": {
            row["mode"]: {
                "cycles": row["cycles"],
                "fast_cyc_per_s": row["fast_cyc_per_s"],
                "exact_cyc_per_s": row["exact_cyc_per_s"],
            }
            for row in rows
        },
    }


def _append_history(committed: dict, preset, rows) -> None:
    """Append this refresh to the per-revision trajectory.

    One *clean* entry per (git revision, preset): re-refreshing at the
    same committed revision replaces its entry rather than duplicating
    it. A refresh from a dirty tree is recorded with ``dirty: true`` and
    may only replace a previous dirty entry — never the committed
    revision's honest point (the clean-vs-dirty rules live in
    :func:`repro.results.history.upsert_history`, shared with the
    results warehouse)."""
    entry = {
        "git_rev": _git_rev(),
        "dirty": _git_dirty(),
        "preset": preset.name,
        "modes": {
            row["mode"]: {
                "fast_cyc_per_s": row["fast_cyc_per_s"],
                "exact_cyc_per_s": row["exact_cyc_per_s"],
            }
            for row in rows
        },
    }
    upsert_history(committed.setdefault("history", []), entry)


def bench_simulator_speed(benchmark, workloads, preset, report):
    rows = benchmark.pedantic(_run_all, args=(workloads,),
                              rounds=1, iterations=1)
    report(format_table(
        rows, title="Simulator speed — cycles simulated per wall second"))
    for row in rows:
        assert row["fast_cyc_per_s"] > 0
        # Fast-forward only skips work; allow generous timing noise.
        assert row["fast_vs_exact"] > 0.7, row

    if os.environ.get("REPRO_UPDATE_BENCH") == "1":
        committed = _load_committed()
        committed.setdefault("schema", "repro-bench-simulator-speed/1")
        committed["scene"] = SCENE
        committed.setdefault("presets", {})[preset.name] = \
            _bench_document(preset, rows)
        _append_history(committed, preset, rows)
        BENCH_PATH.write_text(json.dumps(committed, indent=2,
                                         sort_keys=True) + "\n")
        report(f"updated {BENCH_PATH.name} (preset {preset.name})")


def _sweep_once(jobs, cache):
    """One full sweep; returns (runs/minute, workload builds it needed)."""
    from repro.harness.sweep import run_sweep

    builds_before = cache.stats.builds
    start = time.perf_counter()
    results = run_sweep(jobs, jobs_n=1)
    elapsed = time.perf_counter() - start
    assert all(result.verified for result in results)
    return (len(results) * 60.0 / elapsed,
            cache.stats.builds - builds_before)


def _run_sweep_phases(preset, cache_dir):
    from repro.harness.cache import default_cache
    from repro.harness.sweep import SweepJob

    jobs = [SweepJob(scene=SCENE, mode=mode, preset=preset.name)
            for mode in MODES]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        patch.delenv("REPRO_CACHE", raising=False)
        cache = default_cache()
        cache.clear()
        cold_rate, cold_builds = _sweep_once(jobs, cache)
        warm_rate, warm_builds = _sweep_once(jobs, cache)
    return [
        {"cache": "cold", "runs_per_min": round(cold_rate, 1),
         "workload_builds": cold_builds},
        {"cache": "warm", "runs_per_min": round(warm_rate, 1),
         "workload_builds": warm_builds},
    ]


def bench_sweep_throughput(benchmark, preset, report, tmp_path_factory):
    """Sweep runs/minute, cold vs warm workload cache.

    The warm pass must do zero workload builds — every kd-tree and
    reference trace comes from the cache populated by the cold pass.
    """
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    rows = benchmark.pedantic(_run_sweep_phases, args=(preset, cache_dir),
                              rounds=1, iterations=1)
    report(format_table(
        rows, title="Sweep throughput — simulation runs per minute"))
    warm = rows[1]
    assert warm["workload_builds"] == 0, rows
