"""Ablation — naïve spawning vs the paper's future-work optimization.

Paper §IX: "Development of a more advanced algorithm can improve
performance by allowing branching instead of thread creation when all
threads in a warp follow the same branch." We gate the conversion on
fully-populated warps (a full warp gains nothing from re-forming) and
measure the reduction in dynamic thread creations and spawn-memory
traffic, with and without bank conflicts.
"""

from repro.analysis.report import format_table
from repro.config import scaled_config
from repro.api import launch_for_mode
from repro.kernels.layout import build_memory_image
from repro.simt import GPU


def _run(workload, *, uniform_spawn: bool, conflicts: bool):
    preset = workload.preset
    config = scaled_config(
        preset.num_sms, spawn_enabled=True, max_cycles=preset.max_cycles,
        spawn_bank_conflicts=conflicts,
        spawn_spawn_when_uniform=uniform_spawn)
    image = build_memory_image(workload.tree, workload.origins,
                               workload.directions, workload.t_max)
    launch = launch_for_mode("spawn", workload.num_rays)
    gpu = GPU(config, launch, image.global_mem, image.const_mem,
              divergence_window=preset.divergence_window)
    return gpu.run()


def _sweep(workload):
    rows = []
    for conflicts in (False, True):
        for uniform_spawn in (True, False):
            stats = _run(workload, uniform_spawn=uniform_spawn,
                         conflicts=conflicts)
            rows.append({
                "variant": ("naive" if uniform_spawn else "uniform-branch"),
                "bank_conflicts": conflicts,
                "ipc": round(stats.ipc, 1),
                "rays_done": stats.rays_completed,
                "threads_spawned": stats.sm_stats.threads_spawned,
                "onchip_words": (stats.sm_stats.onchip_read_words
                                 + stats.sm_stats.onchip_write_words),
                "converted": stats.sm_stats.uniform_spawn_branches,
            })
    return rows


def bench_ablation_uniform_spawn(workloads, report):
    rows = _sweep(workloads("conference"))
    report(format_table(rows, title="Ablation — naive vs uniform-branch "
                                    "spawning (conference)"))
    naive = rows[0]
    optimized = rows[1]
    assert optimized["converted"] > 0
    # The optimization's purpose: far fewer dynamic thread creations and
    # less spawn-memory traffic for the same work.
    assert optimized["threads_spawned"] < naive["threads_spawned"]
    assert optimized["onchip_words"] < naive["onchip_words"]
