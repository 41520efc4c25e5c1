"""Differential tests: event-driven fast-forward vs the exact cycle loop.

The fast clock (``GPUConfig.fast_forward=True``, the default) jumps over
spans in which no SM can issue, crediting the skipped cycles to the same
idle/stall counters the exact loop would have incremented one at a time.
The contract (docs/architecture.md, "Event-driven fast-forward") is that
every reported statistic is **bit-identical** between the two clocks —
not approximately equal. These tests enforce that contract for all five
execution models across several scene/ray/seed configurations:

- traditional PDOM (block and warp scheduling),
- dynamic µ-kernel spawn (conflict-free and banked spawn memory),
- persistent threads (Aila & Laine software baseline),
- dynamic warp formation (idealized DWF core, on the single-core loop),
- MIMD theoretical (analytic; the clock toggle must be a no-op).

On a machine with more than one SM the two clocks run different loops:
the fast clock steps only the SMs due on a min-heap of per-SM wake
cycles, the exact clock steps every live SM every cycle. The multi-SM
cases compare the two loops at 4 SMs and at the paper's 30, on both the
statistics and an attached :class:`~repro.obs.probe.TraceSession`.

A truncated cycle budget keeps each run small while still covering
admission stalls, DRAM waits, spawn-pool formation, and barrier idling —
the spans the fast clock actually skips.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict

import numpy as np
import pytest

from repro.harness.presets import get_preset
from repro.harness.runner import (
    config_for_mode,
    mimd_for_workload,
    prepare_workload,
    run_mode,
)
from repro.kernels.layout import build_memory_image
from repro.kernels.persistent import (
    persistent_launch_spec,
    persistent_thread_count,
)
from repro.kernels.traditional import (
    dynamic_instruction_model,
    traditional_program,
)
from repro.obs.probe import TraceSession
from repro.simt import GPU, mimd_theoretical
from repro.simt.dwf import run_dwf

#: Cycle cap per run: long enough to cross DRAM latencies, spawn-warp
#: formation, and admission stalls many times over, short enough to keep
#: the whole suite in tier-1 time.
MAX_CYCLES = 120_000

#: Three scene/ray/seed configurations (the ISSUE's ">= 3 seeds/configs").
CONFIGS = (
    ("conference", "primary", 0),
    ("fairyforest", "shadow", 1),
    ("atrium", "gi", 2),
)

GPU_MODES = ("pdom_block", "pdom_warp", "spawn", "spawn_conflicts")


@pytest.fixture(scope="module", params=CONFIGS,
                ids=["-".join(map(str, c)) for c in CONFIGS])
def workload(request):
    scene, ray_kind, seed = request.param
    return prepare_workload(scene, get_preset("tiny"), ray_kind=ray_kind,
                            seed=seed)


def sampler_fingerprint(divergence) -> dict:
    """Every observable of a DivergenceSampler, as plain comparable data."""
    return {
        "issues": [tuple(row) for row in divergence.issues],
        "idle": list(divergence.idle),
        "stall": list(divergence.stall),
        "totals": divergence.totals().tolist(),
        "mean_active": divergence.mean_active_lanes(),
    }


def run_fingerprint(result) -> dict:
    """Every statistic a RunStats reports, exact-vs-fast comparable."""
    return {
        "cycles": result.stats.cycles,
        "sm": asdict(result.stats.sm_stats),
        "per_sm": [asdict(s) for s in result.stats.per_sm],
        "divergence": sampler_fingerprint(result.stats.divergence),
        "rays_completed": result.stats.rays_completed,
        "dram_read_bytes": result.stats.dram_read_bytes,
        "dram_write_bytes": result.stats.dram_write_bytes,
        "dram_transactions": result.stats.dram_transactions,
        "thread_commits": dict(result.stats.thread_commits),
    }


def session_fingerprint(session: TraceSession) -> dict:
    """Everything a finalized TraceSession reports: machine and DRAM
    intervals, per-SM events, and the stall/idle attribution."""
    return {
        "machine": session.machine_intervals().tolist(),
        "dram": session.dram.rows,
        "rows": session.interval_rows(),
        "events": [probe.events for probe in session.sms],
        "attribution": session.stall_attribution(),
        "cycles": session.cycles,
    }


def assert_clocks_match(mode: str, workload, max_cycles: int) -> None:
    """Fast (heap loop) and exact (per-cycle loop) runs of ``mode`` agree
    on every statistic and on everything the probes observed."""
    exact, fast = (run_mode(mode, workload, max_cycles=max_cycles,
                            fast_forward=fast_forward,
                            trace=TraceSession(interval=512))
                   for fast_forward in (False, True))
    assert run_fingerprint(fast) == run_fingerprint(exact)
    assert session_fingerprint(fast.trace) == session_fingerprint(exact.trace)


class TestGPUModels:
    """PDOM block/warp and µ-kernel spawn (with and without conflicts)."""

    @pytest.mark.parametrize("mode", GPU_MODES)
    def test_fast_matches_exact(self, workload, mode):
        exact = run_mode(mode, workload, max_cycles=MAX_CYCLES,
                         fast_forward=False)
        fast = run_mode(mode, workload, max_cycles=MAX_CYCLES,
                        fast_forward=True)
        assert run_fingerprint(fast) == run_fingerprint(exact)

    def test_fast_forward_actually_skipped_cycles(self, workload):
        """Guard against the fast path silently degrading to per-cycle
        stepping: the runs above must contain idle/stall spans."""
        result = run_mode("spawn", workload, max_cycles=MAX_CYCLES)
        sm = result.stats.sm_stats
        assert sm.idle_cycles + sm.stall_cycles > 0


class TestMultiSM:
    """Several SMs: the heap loop against the per-cycle loop."""

    @pytest.mark.parametrize("mode", ("pdom_block", "spawn"))
    def test_four_sms(self, workload, mode):
        preset = dataclasses.replace(workload.preset, num_sms=4)
        assert_clocks_match(mode, dataclasses.replace(workload,
                                                      preset=preset),
                            MAX_CYCLES)

    @pytest.mark.parametrize("scene,ray_kind", (("conference", "primary"),
                                                ("atrium", "gi")))
    @pytest.mark.parametrize("mode", ("pdom_block", "spawn"))
    def test_thirty_sms(self, scene, ray_kind, mode):
        """The paper's machine, with one 64-thread launch block per SM so
        that every SM runs."""
        preset = dataclasses.replace(
            get_preset("tiny"), name="tiny-30sm", num_sms=30,
            image_width=48, image_height=40, max_cycles=20_000)
        workload = prepare_workload(scene, preset, ray_kind=ray_kind)
        assert workload.num_rays == 30 * 64
        assert_clocks_match(mode, workload, preset.max_cycles)


class TestPersistentThreads:
    """Persistent-threads kernel on the warp-scheduled machine."""

    def test_fast_matches_exact(self, workload):
        fingerprints = []
        for fast_forward in (False, True):
            config = config_for_mode("pdom_warp", workload.preset,
                                     fast_forward=fast_forward)
            image = build_memory_image(workload.tree, workload.origins,
                                       workload.directions, workload.t_max)
            launch = persistent_launch_spec(persistent_thread_count(config))
            gpu = GPU(config, launch, image.global_mem, image.const_mem)
            stats = gpu.run(max_cycles=MAX_CYCLES)
            fingerprints.append({
                "cycles": stats.cycles,
                "sm": asdict(stats.sm_stats),
                "divergence": sampler_fingerprint(stats.divergence),
                "rays_completed": stats.rays_completed,
            })
        assert fingerprints[0] == fingerprints[1]


class TestDWF:
    """Idealized dynamic warp formation (on the single-core loop)."""

    def test_fast_matches_exact(self, workload):
        fingerprints = []
        for fast_forward in (False, True):
            config = config_for_mode("pdom_warp", workload.preset,
                                     fast_forward=fast_forward)
            image = build_memory_image(workload.tree, workload.origins,
                                       workload.directions, workload.t_max)
            result = run_dwf(config, traditional_program(), "trace",
                             image.global_mem, image.const_mem,
                             num_threads=min(workload.num_rays, 736),
                             max_cycles=MAX_CYCLES)
            fingerprints.append({
                "cycles": result.cycles,
                "sm": asdict(result.stats),
                "divergence": sampler_fingerprint(result.divergence),
                "rays_completed": result.rays_completed,
            })
        assert fingerprints[0] == fingerprints[1]


class TestMIMD:
    """Analytic model: the clock toggle must not perturb it at all."""

    def test_fast_matches_exact(self, workload):
        model = dynamic_instruction_model()
        counters = workload.reference.counters
        counts = (model["prologue"]
                  + counters.node_visits * model["node_visit"]
                  + counters.leaf_visits * (model["leaf_visit"] + model["pop"])
                  + counters.triangle_tests * model["triangle_test"]
                  + model["write"])
        results = [
            mimd_theoretical(counts, config_for_mode(
                "pdom_ideal", workload.preset, fast_forward=fast_forward))
            for fast_forward in (False, True)
        ]
        assert asdict(results[0]) == asdict(results[1])
        assert results[0].cycles > 0

    def test_mimd_reference_consistent(self, workload):
        """mimd_for_workload (the harness entry point) is deterministic."""
        first = mimd_for_workload(workload)
        second = mimd_for_workload(workload)
        assert asdict(first) == asdict(second)
