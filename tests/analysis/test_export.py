"""CSV export tests."""

import csv

import pytest

from repro.analysis.export import write_breakdown_csv, write_rows_csv
from repro.simt.stats import NUM_W_BUCKETS, DivergenceSampler


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRowsCSV:
    def test_round_trip(self, tmp_path):
        rows = [{"scene": "a", "value": 1}, {"scene": "b", "value": 2}]
        path = write_rows_csv(tmp_path / "rows.csv", rows)
        data = read_csv(path)
        assert data[0] == ["scene", "value"]
        assert data[1] == ["a", "1"]
        assert data[2] == ["b", "2"]

    def test_missing_keys_blank(self, tmp_path):
        rows = [{"a": 1}, {"b": 2}]
        path = write_rows_csv(tmp_path / "rows.csv", rows)
        data = read_csv(path)
        assert data[1] == ["1", ""]
        assert data[2] == ["", "2"]

    def test_explicit_columns(self, tmp_path):
        rows = [{"a": 1, "b": 2}]
        path = write_rows_csv(tmp_path / "rows.csv", rows, columns=["b"])
        assert read_csv(path)[0] == ["b"]

    def test_creates_parent_dirs(self, tmp_path):
        path = write_rows_csv(tmp_path / "deep" / "dir" / "rows.csv",
                              [{"x": 1}])
        assert path.exists()


class TestBreakdownCSV:
    def make_sampler(self):
        sampler = DivergenceSampler(window=100)
        sampler.record_issue(0, 32)
        sampler.record_issue(150, 4)
        sampler.record_idle(160)
        return sampler

    def test_header_and_rows(self, tmp_path):
        sampler = self.make_sampler()
        path = write_breakdown_csv(tmp_path / "b.csv", sampler)
        data = read_csv(path)
        assert data[0][0] == "window_start_cycle"
        assert len(data[0]) == 1 + NUM_W_BUCKETS + 2
        assert len(data) == 1 + len(sampler.rows)
        assert data[1][0] == "0"
        assert data[2][0] == "100"

    def test_fractions_sum_to_one(self, tmp_path):
        path = write_breakdown_csv(tmp_path / "b.csv", self.make_sampler())
        data = read_csv(path)
        for row in data[1:]:
            assert sum(float(v) for v in row[1:]) == pytest.approx(1.0)
