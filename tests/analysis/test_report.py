"""Report formatting tests."""

from repro.analysis.report import format_table


class TestFormatTable:
    def test_basic(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_title(self):
        text = format_table([{"a": 1}], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_missing_keys_render_empty(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert "b" not in header
        assert header.index("c") < header.index("a")

    def test_alignment(self):
        rows = [{"name": "x", "value": 1}, {"name": "longer", "value": 22}]
        lines = format_table(rows).splitlines()
        assert len(lines[2]) == len(lines[3])
