"""Figure 9 — µ-kernel divergence with spawn-memory bank conflicts.

Paper: serialization of conflicting spawn-memory accesses adds pipeline
stalls; IPC drops from 615 to 429 but stays 1.3x above traditional PDOM.
The conflict-free run is Figure 7's, the PDOM baseline Figure 3's.
"""


def bench_fig9(figures, report):
    conflicted, clean, pdom = figures["fig9"], figures["fig7"], figures["fig3"]
    report(conflicted["render"])
    assert conflicted["result"].verify()
    # Conflicts cost performance but µ-kernels stay ahead of PDOM (paper).
    assert conflicted["result"].stats.sm_stats.bank_conflict_cycles > 0
    assert conflicted["ipc"] < clean["ipc"]
    assert conflicted["ipc_ratio"] > 1.0
    # Warps still maintain more active threads than traditional branching.
    assert conflicted["simt_efficiency"] > pdom["simt_efficiency"]
