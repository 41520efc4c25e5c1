"""Table IV — per-frame memory bandwidth, traditional vs dynamic.

Paper shape: dynamic thread creation multiplies read traffic ~4.4x and
total traffic ~7.3x on its scenes; writes grow from ~0.25 MB (results
only) to hundreds of MB (state passing).
"""


def bench_table4(figures, report):
    data = figures["table4"]
    report(data["render"])
    summary = data["summary"]
    assert summary["mean_read_ratio"] > 1.5
    assert summary["mean_total_ratio"] > summary["mean_read_ratio"]
    for row in data["rows"]:
        if row["variant"] == "Dynamic":
            assert row["write_mb"] > 0.0
