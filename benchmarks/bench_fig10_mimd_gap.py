"""Figure 10 — branching performance against the MIMD theoretical ideal.

Paper shape (conference scene, ideal memory for "theoretical" bars):
PDOM gains nothing from an ideal memory system (it is branch-bound);
dynamic µ-kernels reach ~45% of MIMD with real memory and could reach
~60% with ideal memory.
"""


def bench_fig10(figures, report):
    data = figures["fig10"]
    report(data["render"])
    for result in data["results"].values():
        assert result.verify()
    fractions = data["fractions"]
    # Shape checks from the paper:
    pdom_gain = fractions["pdom_ideal"] / max(fractions["pdom_warp"], 1e-9)
    assert pdom_gain < 1.35          # "PDOM has no performance increase"
    assert fractions["spawn"] > fractions["pdom_warp"]
    assert fractions["spawn_ideal"] >= fractions["spawn"]
    assert 0.2 < fractions["spawn"] < 1.0   # a large but real MIMD gap
    assert fractions["mimd_theoretical"] == 1.0
