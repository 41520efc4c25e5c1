"""Golden-stats regression tests: exact JSON snapshots of simulator output.

Two tiny scenes are simulated (traditional PDOM and µ-kernel spawn) and
the full :class:`DivergenceSampler` output plus the headline SM counters
are compared **exactly** against checked-in JSON snapshots under
``tests/analysis/golden/``. The idealized DWF core (:mod:`repro.simt.dwf`),
which has its own cycle loop, is pinned the same way on three workloads,
together with a digest of its final global memory. A 30-SM machine (the
paper's) is pinned per SM, with digests of the final global memory and of
every SM's spawn memory, so a multi-SM run cannot drift while its two run
loops still agree with each other. Any change to
scheduling, reconvergence, spawn formation, memory timing, or the
fast-forward clock that perturbs a single counter shows up as a diff here.

To bless intentional changes, regenerate the snapshots with::

    PYTHONPATH=src python -m pytest tests/analysis/test_golden_stats.py \
        --update-golden

and commit the result — the diff of the JSON files *is* the review
artifact for a stats-affecting change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.harness.presets import get_preset
from repro.harness.runner import (
    config_for_mode,
    image_for_workload,
    launch_for_workload,
    prepare_workload,
    run_mode,
)
from repro.simt import GPU

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Bounded so the goldens stay small and the runs stay fast; both scenes
#: still cross DRAM waits, divergence, and (for spawn) warp formation.
MAX_CYCLES = 60_000

CASES = (
    ("conference", "pdom_block"),
    ("fairyforest", "spawn"),
)


def divergence_snapshot(divergence) -> dict:
    return {
        "window": divergence.window,
        "totals": divergence.totals().tolist(),
        "issues": [list(row) for row in divergence.issues],
        "idle": list(divergence.idle),
        "stall": list(divergence.stall),
    }


def check_golden(path: pathlib.Path, snapshot: dict,
                 update_golden: bool) -> None:
    """Compare ``snapshot`` with the golden file (or rewrite it)."""
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        "pytest --update-golden")
    golden = json.loads(path.read_text())
    assert snapshot == golden


def golden_snapshot(scene: str, mode: str) -> dict:
    workload = prepare_workload(scene, get_preset("tiny"))
    result = run_mode(mode, workload, max_cycles=MAX_CYCLES)
    stats = result.stats
    sm = stats.sm_stats
    return {
        "scene": scene,
        "mode": mode,
        "max_cycles": MAX_CYCLES,
        "cycles": stats.cycles,
        "rays_completed": stats.rays_completed,
        "issued_instructions": sm.issued_instructions,
        "committed_thread_instructions": sm.committed_thread_instructions,
        "idle_cycles": sm.idle_cycles,
        "stall_cycles": sm.stall_cycles,
        "threads_spawned": sm.threads_spawned,
        "full_warps_formed": sm.full_warps_formed,
        "partial_warps_flushed": sm.partial_warps_flushed,
        "bank_conflict_cycles": sm.bank_conflict_cycles,
        "dram_transactions": stats.dram_transactions,
        "divergence": divergence_snapshot(stats.divergence),
    }


@pytest.mark.parametrize("scene,mode", CASES,
                         ids=[f"{s}-{m}" for s, m in CASES])
def test_golden_stats(scene, mode, update_golden):
    check_golden(GOLDEN_DIR / f"{scene}_{mode}.json",
                 golden_snapshot(scene, mode), update_golden)


#: DWF workloads: (preset, ray kind, cycle cap). The first is the tiny
#: ablation exactly as ``ablation_dwf`` runs it (to completion under the
#: preset's cap); the other two stop at ``MAX_CYCLES``.
DWF_CASES = (
    ("tiny", "primary", None),
    ("fast", "primary", MAX_CYCLES),
    ("tiny", "gi", MAX_CYCLES),
)

#: ``ablation_dwf``'s thread count: one SM's worth of PDOM residency.
DWF_THREADS = 736


def dwf_golden_snapshot(preset_name: str, ray_kind: str,
                        max_cycles: int | None) -> dict:
    from repro.kernels.traditional import traditional_program
    from repro.simt.dwf import run_dwf

    preset = get_preset(preset_name)
    workload = prepare_workload("conference", preset, ray_kind=ray_kind,
                                seed=0)
    image = image_for_workload(workload)
    cap = preset.max_cycles if max_cycles is None else max_cycles
    num_threads = min(workload.num_rays, DWF_THREADS)
    result = run_dwf(config_for_mode("pdom_warp", preset),
                     traditional_program(), "trace", image.global_mem,
                     image.const_mem, num_threads=num_threads,
                     max_cycles=cap)
    stats = result.stats
    return {
        "scene": "conference",
        "preset": preset_name,
        "ray_kind": ray_kind,
        "num_threads": num_threads,
        "max_cycles": cap,
        "cycles": result.cycles,
        "rays_completed": result.rays_completed,
        "issued_instructions": stats.issued_instructions,
        "committed_thread_instructions": stats.committed_thread_instructions,
        "idle_cycles": stats.idle_cycles,
        "threads_exited": stats.threads_exited,
        "dram_read_bytes": stats.dram_read_bytes,
        "dram_write_bytes": stats.dram_write_bytes,
        "global_mem_sha256": hashlib.sha256(
            image.global_mem.words.tobytes()).hexdigest(),
        "divergence": divergence_snapshot(result.divergence),
    }


@pytest.mark.parametrize("preset_name,ray_kind,max_cycles", DWF_CASES,
                         ids=[f"dwf-{p}-{k}" for p, k, _ in DWF_CASES])
def test_dwf_golden_stats(preset_name, ray_kind, max_cycles, update_golden):
    check_golden(GOLDEN_DIR / f"dwf_conference_{ray_kind}_{preset_name}.json",
                 dwf_golden_snapshot(preset_name, ray_kind, max_cycles),
                 update_golden)


#: The paper's 30 SMs at tiny detail: 48x40 = 1920 GI rays, one 64-thread
#: launch block per SM so that every SM runs, cut at 20k cycles.
MULTI_SM_PRESET = dataclasses.replace(
    get_preset("tiny"), name="tiny-30sm", num_sms=30, image_width=48,
    image_height=40, max_cycles=20_000)

MULTI_SM_MODES = ("pdom_block", "spawn")


def sha256(words) -> str:
    return hashlib.sha256(words.tobytes()).hexdigest()


def multi_sm_golden_snapshot(mode: str) -> dict:
    preset = MULTI_SM_PRESET
    workload = prepare_workload("atrium", preset, ray_kind="gi")
    assert workload.num_rays == preset.num_sms * 64
    image = image_for_workload(workload)
    gpu = GPU(config_for_mode(mode, preset),
              launch_for_workload(mode, workload), image.global_mem,
              image.const_mem, divergence_window=preset.divergence_window)
    stats = gpu.run(max_cycles=preset.max_cycles)
    return {
        "scene": "atrium",
        "ray_kind": "gi",
        "mode": mode,
        "num_sms": preset.num_sms,
        "num_rays": workload.num_rays,
        "max_cycles": preset.max_cycles,
        "cycles": stats.cycles,
        "rays_completed": stats.rays_completed,
        "dram_read_bytes": stats.dram_read_bytes,
        "dram_write_bytes": stats.dram_write_bytes,
        "dram_transactions": stats.dram_transactions,
        "per_sm": [sm.to_dict() for sm in stats.per_sm],
        "divergence": divergence_snapshot(stats.divergence),
        "global_mem_sha256": sha256(image.global_mem.words),
        # PDOM SMs have no spawn memory.
        "spawn_mem_sha256": [
            None if sm.spawn_unit is None
            else sha256(sm.spawn_unit.spawn_mem.words) for sm in gpu.sms],
    }


@pytest.mark.parametrize("mode", MULTI_SM_MODES)
def test_multi_sm_golden_stats(mode, update_golden):
    check_golden(GOLDEN_DIR / f"atrium_gi_30sm_{mode}.json",
                 multi_sm_golden_snapshot(mode), update_golden)
