"""Ablation — warp coherence from ray launch order.

Traditional SIMT hardware fixes warp membership at launch, so the ray
buffer's order controls coherence: Morton (Z-curve) tiles > row-major >
random shuffle. Dynamic µ-kernels regroup threads at runtime, so their
efficiency should be nearly order-invariant — a direct consequence of the
paper's mechanism and the reason it also wins on incoherent secondary
rays.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.api import config_for_mode, launch_for_mode
from repro.kernels.layout import build_memory_image
from repro.rt.ordering import apply_order, morton_order, shuffled_order
from repro.simt import GPU


def _run(workload, order, mode):
    origins, directions, t_max = apply_order(
        order, workload.origins, workload.directions, workload.t_max)
    config = config_for_mode(mode, workload.preset)
    image = build_memory_image(workload.tree, origins, directions, t_max)
    launch = launch_for_mode(mode, workload.num_rays)
    gpu = GPU(config, launch, image.global_mem, image.const_mem,
              divergence_window=workload.preset.divergence_window)
    return gpu.run()


def _sweep(workload):
    preset = workload.preset
    orders = {
        "morton": morton_order(preset.image_width, preset.image_height),
        "row_major": np.arange(workload.num_rays),
        "shuffled": shuffled_order(workload.num_rays, seed=1),
    }
    rows = []
    efficiency = {}
    for order_name, order in orders.items():
        for mode in ("pdom_warp", "spawn"):
            stats = _run(workload, order, mode)
            efficiency[(order_name, mode)] = stats.simt_efficiency
            rows.append({
                "order": order_name, "mode": mode,
                "efficiency": round(stats.simt_efficiency, 3),
                "ipc": round(stats.ipc, 1),
                "rays_done": stats.rays_completed,
            })
    return rows, efficiency


def bench_ablation_ray_order(workloads, report):
    rows, efficiency = _sweep(workloads("conference"))
    report(format_table(rows, title="Ablation — ray order vs warp "
                                    "coherence (conference)"))
    pdom_swing = (efficiency[("morton", "pdom_warp")]
                  - efficiency[("shuffled", "pdom_warp")])
    spawn_swing = (efficiency[("morton", "spawn")]
                   - efficiency[("shuffled", "spawn")])
    # PDOM leans on launch order; µ-kernels regroup at runtime, so their
    # occupancy barely moves with the ordering.
    assert pdom_swing > 0.02
    assert abs(spawn_swing) < pdom_swing
    for order_name in ("morton", "row_major", "shuffled"):
        assert (efficiency[(order_name, "spawn")]
                > efficiency[(order_name, "pdom_warp")])
