"""Figure 7 — divergence breakdown with dynamic µ-kernels (no conflicts).

Paper: µ-kernels keep far more lanes active; IPC rises from 326 to 615
(1.9x) on the conference scene. The PDOM baseline is Figure 3's run.
"""


def bench_fig7(figures, report):
    spawn, pdom = figures["fig7"], figures["fig3"]
    report(spawn["render"])
    assert spawn["result"].verify()
    # Core claim: µ-kernels recover lane occupancy lost to branching.
    assert spawn["simt_efficiency"] > pdom["simt_efficiency"] + 0.1
    assert spawn["mean_active_lanes"] > pdom["mean_active_lanes"]
    assert (spawn["breakdown"].high_occupancy_share()
            > pdom["breakdown"].high_occupancy_share())
    assert spawn["ipc_ratio"] > 1.2
