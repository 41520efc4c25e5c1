"""Table III — benchmark scenes with object counts and tree parameters."""


def bench_table3(figures, report):
    data = figures["table3"]
    report(data["render"])
    rows = {row["scene"]: row for row in data["rows"]}
    assert set(rows) == {"fairyforest", "atrium", "conference"}
    for row in rows.values():
        assert row["tree_nodes"] == 2 * row["tree_leaves"] - 1
    # Scene characters: conference densest object count in the paper's set.
    assert rows["conference"]["paper_triangles"] > rows["atrium"]["paper_triangles"]
