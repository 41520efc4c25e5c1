"""Ablation — dynamic warp formation (Fung et al.) vs PDOM vs µ-kernels.

The paper positions spawn-based µ-kernels against DWF (its §VIII): DWF
regroups existing threads by PC with no code changes, but needs register-
file flexibility and cannot shed the stack-restart structure of the
kernel. We run an idealized lane-flexible DWF on the traditional kernel
and compare all three mechanisms on the conference scene.
"""


def bench_ablation_dwf(figures, report):
    data = figures["ablation_dwf"]
    report(data["render"])
    assert data["verified"]
    rows = {row["mechanism"]: row for row in data["rows"]}
    # DWF recovers part of the PDOM loss; µ-kernels stay ahead of PDOM.
    assert rows["DWF (idealized)"]["rays_done"] > 0
    assert (rows["dynamic µ-kernels"]["efficiency"]
            > rows["PDOM (stack)"]["efficiency"])
