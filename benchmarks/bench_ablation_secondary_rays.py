"""Ablation — secondary-ray workloads (the paper's §III-A motivation).

The paper motivates ray tracing with three global-rendering ray types:
shadow rays, reflection rays, and randomly-distributed global-illumination
rays. Secondary batches are progressively less warp-coherent, so PDOM
efficiency decays from primary to GI while dynamic µ-kernels hold steady —
quantifying the claim that µ-kernels matter more as rendering gets more
physically based.
"""

from repro.analysis.report import format_table
from repro.api import simulate

RAY_KINDS = ("primary", "shadow", "reflection", "gi")


def _sweep(workloads):
    rows = []
    efficiency = {}
    for kind in RAY_KINDS:
        workload = workloads("conference", kind)
        for mode in ("pdom_warp", "spawn"):
            result = simulate(workload, mode)
            efficiency[(kind, mode)] = result.simt_efficiency
            rows.append({
                "rays": kind, "mode": mode,
                "efficiency": round(result.simt_efficiency, 3),
                "ipc": round(result.ipc, 1),
                "mrays_per_s": round(result.rays_per_second / 1e6, 1),
                "verified": result.verify(),
            })
    return rows, efficiency


def bench_ablation_secondary_rays(workloads, report):
    rows, efficiency = _sweep(workloads)
    report(format_table(rows, title="Ablation — ray kinds (conference)"))
    assert all(row["verified"] for row in rows)
    # µ-kernels beat PDOM occupancy on every batch kind...
    for kind in RAY_KINDS:
        assert efficiency[(kind, "spawn")] > efficiency[(kind, "pdom_warp")]
    # ...and their occupancy degrades less from primary to GI rays.
    pdom_drop = (efficiency[("primary", "pdom_warp")]
                 - efficiency[("gi", "pdom_warp")])
    spawn_drop = (efficiency[("primary", "spawn")]
                  - efficiency[("gi", "spawn")])
    assert spawn_drop < pdom_drop
