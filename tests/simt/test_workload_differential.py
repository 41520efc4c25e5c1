"""Differential tests for the path-tracing and BFS workload families.

The clock contract enforced for the ray-tracing kernels by
test_fastforward_differential.py extends unchanged to the µ-kernel
families: for every machine mode, the event-driven fast clock must be
**bit-identical** to the exact cycle loop in every reported statistic —
cycles, counters, divergence histograms, per-thread commits — and every
run, truncated or not, must verify against the functional oracle.

The workloads here are the ones the families exist for:

- multi-bounce path tracing (``ray_kind="path"``): a seeded
  russian-roulette loop around the kd-tree traversal, as a megakernel
  restart loop or a five-µ-kernel spawn chain;
- frontier BFS (``ray_kind="bfs"``): a lock-free shared worklist over a
  CSR graph, as a megakernel worker loop or a self-respawning
  single-step µ-kernel, on both the uniform and hub-skewed graph
  archetypes.

DWF is covered for the path-tracing *megakernel* only: the BFS kernels
use atomics over a shared worklist whose claim-spin loops DWF's
majority-PC grouping can starve, and the spawn layouts are out of DWF's
scope by construction.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.harness.presets import get_preset
from repro.harness.runner import (
    config_for_mode,
    image_for_workload,
    prepare_workload,
    run_mode,
)
from repro.kernels.pathtrace import pathtrace_program
from repro.simt.dwf import run_dwf

#: Cycle cap per run: both BFS workloads complete well under it; the
#: path-tracing runs truncate deterministically, which is all a
#: differential comparison needs.
MAX_CYCLES = 120_000

#: (scene, ray_kind, preset) triples covering both new families.
CONFIGS = (
    ("conference", "path", "path-tiny"),
    ("graph-uniform", "bfs", "bfs-tiny"),
    ("graph-skew", "bfs", "bfs-tiny"),
)

GPU_MODES = ("pdom_block", "pdom_warp", "spawn", "spawn_conflicts")


@pytest.fixture(scope="module", params=CONFIGS,
                ids=["-".join(c[:2]) for c in CONFIGS])
def workload(request):
    scene, ray_kind, preset = request.param
    return prepare_workload(scene, get_preset(preset), ray_kind=ray_kind)


def run_fingerprint(result) -> dict:
    """Every statistic a RunStats reports, clock-comparable."""
    divergence = result.stats.divergence
    return {
        "cycles": result.stats.cycles,
        "sm": asdict(result.stats.sm_stats),
        "per_sm": [asdict(s) for s in result.stats.per_sm],
        "divergence": {
            "issues": [tuple(row) for row in divergence.issues],
            "idle": list(divergence.idle),
            "stall": list(divergence.stall),
            "totals": divergence.totals().tolist(),
        },
        "rays_completed": result.stats.rays_completed,
        "dram_read_bytes": result.stats.dram_read_bytes,
        "dram_write_bytes": result.stats.dram_write_bytes,
        "dram_transactions": result.stats.dram_transactions,
        "thread_commits": dict(result.stats.thread_commits),
    }


class TestClocks:
    """Fast clock vs the exact cycle loop."""

    @pytest.mark.parametrize("mode", GPU_MODES)
    def test_fast_matches_exact(self, workload, mode):
        exact, fast = (run_mode(mode, workload, max_cycles=MAX_CYCLES,
                                fast_forward=fast_forward)
                       for fast_forward in (False, True))
        assert run_fingerprint(fast) == run_fingerprint(exact), (
            f"{workload.scene_name}/{workload.ray_kind} {mode} fast clock "
            f"diverges from exact")


class TestResultsMatchReference:
    """Truncated runs must still verify against the functional oracle."""

    @pytest.mark.parametrize("mode", GPU_MODES)
    def test_verify_under_cycle_cap(self, workload, mode):
        result = run_mode(mode, workload, max_cycles=MAX_CYCLES)
        assert result.verify()

    def test_spawn_completes_bfs(self, workload):
        if workload.ray_kind != "bfs":
            pytest.skip("full completion in tier-1 time is a BFS property")
        result = run_mode("spawn", workload)
        assert result.completed_fraction == 1.0
        assert result.verify()
        # Every reachable vertex was expanded exactly once.
        level, flag = result.image.results()
        assert int((~np.isnan(level)).sum()) == workload.num_rays


class TestDWF:
    """Idealized DWF on the path-tracing megakernel (no atomics there)."""

    def test_results_verify(self, workload):
        if workload.ray_kind != "path":
            pytest.skip("DWF covers the path-tracing megakernel only")
        config = config_for_mode("pdom_warp", workload.preset)
        image = image_for_workload(workload)
        run_dwf(config, pathtrace_program(), "pt_trace", image.global_mem,
                image.const_mem, num_threads=min(workload.num_rays, 736),
                max_cycles=MAX_CYCLES)
        bounces, tri = image.results()
        done = ~np.isnan(bounces)
        ref = workload.reference
        if done.any():
            assert np.array_equal(bounces[done], ref.t[done])
            assert np.array_equal(tri[done], ref.triangle[done])
