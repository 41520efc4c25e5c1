"""Ablation — persistent threads (Aila & Laine) vs grid launch vs spawn.

The paper's §VIII software baseline: launch just enough threads to fill
the machine and pull ray ids from a global work queue with atomics. It
removes the end-of-grid tail imbalance but cannot fix intra-warp
divergence inside the traversal loops — which is exactly the gap dynamic
µ-kernels close in hardware.
"""


def bench_ablation_persistent(figures, report):
    data = figures["ablation_persistent"]
    report(data["render"])
    assert data["verified"]
    rows = {row["approach"]: row for row in data["rows"]}
    # Persistent threads keep pace with the grid launch, but the
    # intra-warp divergence gap to µ-kernels remains (the paper's point).
    assert (rows["persistent threads"]["rays_done"]
            >= 0.8 * rows["grid launch (PDOM)"]["rays_done"])
    assert (rows["dynamic µ-kernels"]["efficiency"]
            > rows["persistent threads"]["efficiency"] + 0.1)
