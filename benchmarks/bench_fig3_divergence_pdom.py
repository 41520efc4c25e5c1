"""Figure 3 — divergence breakdown under traditional PDOM branching.

Paper: the conference scene leaves most warps far below full occupancy
(loss up to ~65%); the W1:4 category dominates once the initial coherent
phase ends.
"""


def bench_fig3(figures, report):
    data = figures["fig3"]
    report(data["render"])
    assert data["result"].verify()
    # Traditional branching loses a large share of lanes (paper: ~65% max).
    assert data["simt_efficiency"] < 0.8
    assert data["mean_active_lanes"] < 28
