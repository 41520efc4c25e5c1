"""Table I — simulator configuration."""

from repro.config import paper_config


def bench_table1(figures, report):
    data = figures["table1"]
    report(data["render"])
    rows = dict((row["parameter"], row["value"]) for row in data["rows"])
    assert rows["Processor Cores"] == "30"
    assert rows["Warp Size"] == "32"
    assert paper_config().peak_ipc == 960
