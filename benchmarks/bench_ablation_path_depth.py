"""Ablation — SIMT efficiency and cycles vs path-tracing bounce depth.

The paper's argument is that divergence gets *worse* as rendering gets
more physically based; multi-bounce path tracing with russian roulette is
the limit case, because every extra bounce multiplies the spread in
per-ray work. This bench sweeps the bounce budget across the machine
modes and records, per ``(depth, mode)``, the SIMT efficiency and the
simulated cycle count — the quantitative version of "µ-kernels matter
more the deeper the paths go".

Each depth is a *different workload* (the roulette reference changes with
the budget), prepared through the persistent cache — the per-depth cache
keys are exactly what tests/harness/test_cache_workloads.py locks down.

Results land in ``BENCH_ablation_path_depth.json`` at the repo root
(refresh with ``REPRO_UPDATE_BENCH=1``). Every recorded field is a
*simulation output* — cycles, efficiency, completed rays — so the
committed numbers are machine-independent and are compared for **exact**
equality, like a golden snapshot. Each preset's
record is stamped with the git revision that refreshed it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from repro.analysis.report import format_table
from repro.api import prepare_workload, simulate
from repro.results import git_provenance

SCENE = "conference"

MODES = ("pdom_block", "pdom_warp", "spawn")

#: Bounce budgets swept; the roulette threshold stays at the preset's.
DEPTHS = (1, 2, 4, 8)

#: Deterministic per-run cycle cap: deep budgets need millions of cycles
#: to drain at tiny scale, and efficiency under a fixed cap is exactly as
#: comparable across modes while keeping the grid inside bench time.
MAX_CYCLES = 250_000

#: Committed benchmark record, at the repo root next to ROADMAP.md.
BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_ablation_path_depth.json"


def _run_grid(preset):
    """One row per (depth, mode): efficiency, cycles, completion."""
    rows = []
    for depth in DEPTHS:
        deep = dataclasses.replace(preset, path_max_depth=depth)
        workload = prepare_workload(SCENE, deep, ray_kind="path")
        for mode in MODES:
            result = simulate(workload, mode, max_cycles=MAX_CYCLES)
            rows.append({
                "depth": depth,
                "mode": mode,
                "cycles": result.stats.cycles,
                "simt_efficiency": round(result.simt_efficiency, 4),
                "rays_completed": result.stats.rays_completed,
                "verified": result.verify(),
            })
    return rows


def _grid_document(rows) -> dict:
    grid: dict = {}
    for row in rows:
        grid.setdefault(str(row["depth"]), {})[row["mode"]] = {
            "cycles": row["cycles"],
            "simt_efficiency": row["simt_efficiency"],
            "rays_completed": row["rays_completed"],
        }
    return grid


def _check_committed(committed: dict, preset_name: str, rows) -> None:
    """Simulation outputs are deterministic: compare exactly."""
    entry = committed.get("presets", {}).get(preset_name)
    if entry is None:
        return  # no committed record at this scale — nothing to compare
    assert entry["max_cycles"] == MAX_CYCLES, (
        "cycle cap changed; refresh with REPRO_UPDATE_BENCH=1")
    measured = _grid_document(rows)
    assert measured == entry["grid"], (
        f"path-depth grid diverged from committed {BENCH_PATH.name} "
        f"(preset {preset_name}); if intentional, refresh with "
        "REPRO_UPDATE_BENCH=1")


def bench_ablation_path_depth(preset, report):
    rows = _run_grid(preset)
    report(format_table(
        rows, title="Ablation — SIMT efficiency vs path-tracing depth"))
    assert all(row["verified"] for row in rows)
    by_key = {(row["depth"], row["mode"]): row["simt_efficiency"]
              for row in rows}
    # µ-kernels out-occupy PDOM at every bounce budget...
    for depth in DEPTHS:
        assert by_key[(depth, "spawn")] > by_key[(depth, "pdom_warp")]
    # ...and the gap never closes as paths deepen.
    first, last = DEPTHS[0], DEPTHS[-1]
    gap = {d: by_key[(d, "spawn")] - by_key[(d, "pdom_warp")]
           for d in (first, last)}
    assert gap[last] >= 0.5 * gap[first], gap

    committed = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() \
        else {}
    _check_committed(committed, preset.name, rows)
    if os.environ.get("REPRO_UPDATE_BENCH") == "1":
        committed.setdefault("schema", "repro-bench-ablation-path-depth/1")
        committed["scene"] = SCENE
        committed.setdefault("presets", {})[preset.name] = {
            "git_rev": git_provenance(BENCH_PATH.parent)[0],
            "max_cycles": MAX_CYCLES,
            "roulette_q": preset.path_roulette_q,
            "grid": _grid_document(rows),
        }
        BENCH_PATH.write_text(json.dumps(committed, indent=2,
                                         sort_keys=True) + "\n")
        report(f"updated {BENCH_PATH.name} (preset {preset.name})")
