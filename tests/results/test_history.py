"""Clean-vs-dirty history rules, including the bench's `_append_history`.

The bug being locked down: a ``REPRO_UPDATE_BENCH=1`` refresh from a
dirty working tree used to silently overwrite the committed revision's
honest ``history`` entry in ``BENCH_simulator_speed.json``. The shared
:func:`repro.results.history.upsert_history` rules (and the bench module
delegating to them, with a ``dirty`` flag from ``git status
--porcelain``) make that impossible.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.results.history import entry_identity, is_dirty_entry, \
    upsert_history

BENCH_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / \
    "bench_simulator_speed.py"


def entry(rev: str = "abc1234", preset: str = "tiny", dirty=None,
          value: int = 100) -> dict:
    made = {"git_rev": rev, "preset": preset, "value": value}
    if dirty is not None:
        made["dirty"] = dirty
    return made


class TestUpsertRules:
    def test_clean_replaces_clean(self):
        history = [entry(value=1, dirty=False)]
        upsert_history(history, entry(value=2, dirty=False))
        assert [item["value"] for item in history] == [2]

    def test_clean_replaces_dirty(self):
        history = [entry(value=1, dirty=True)]
        upsert_history(history, entry(value=2, dirty=False))
        assert [item["value"] for item in history] == [2]

    def test_dirty_never_replaces_clean(self):
        history = [entry(value=1, dirty=False)]
        upsert_history(history, entry(value=2, dirty=True))
        assert [item["value"] for item in history] == [1, 2]
        assert not is_dirty_entry(history[0])
        assert is_dirty_entry(history[1])

    def test_dirty_replaces_previous_dirty(self):
        history = [entry(value=1, dirty=False), entry(value=2, dirty=True)]
        upsert_history(history, entry(value=3, dirty=True))
        assert [item["value"] for item in history] == [1, 3]

    def test_legacy_entries_without_flag_are_clean(self):
        history = [entry(value=1)]  # committed pre-flag entry
        upsert_history(history, entry(value=2, dirty=True))
        assert [item["value"] for item in history] == [1, 2]
        upsert_history(history, entry(value=3, dirty=False))
        assert [item["value"] for item in history] == [3]

    def test_identity_is_rev_and_preset(self):
        history = [entry(rev="aaa", preset="tiny", value=1),
                   entry(rev="aaa", preset="fast", value=2),
                   entry(rev="bbb", preset="tiny", value=3)]
        upsert_history(history, entry(rev="aaa", preset="tiny", value=4,
                                      dirty=False))
        assert [item["value"] for item in history] == [2, 3, 4]
        assert entry_identity(history[-1]) == ("aaa", "tiny")


@pytest.fixture(scope="module")
def bench():
    """The bench module, imported by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_simulator_speed_under_test", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(spec.name, None)


class TestBenchAppendHistory:
    ROWS = [{
        "mode": "spawn", "cycles": 1000,
        "fast_cyc_per_s": 100, "exact_cyc_per_s": 90,
        "fast_vs_exact": 1.1,
    }]

    class FakePreset:
        name = "tiny"

    def refresh(self, bench, committed, monkeypatch, *, rev, dirty):
        monkeypatch.setattr(bench, "_git_rev", lambda: rev)
        monkeypatch.setattr(bench, "_git_dirty", lambda: dirty)
        bench._append_history(committed, self.FakePreset(), self.ROWS)

    def test_dirty_refresh_preserves_clean_entry(self, bench, monkeypatch):
        committed: dict = {}
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=False)
        honest = committed["history"][0]
        assert honest["dirty"] is False
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=True)
        history = committed["history"]
        assert history[0] == honest  # the clean point survives verbatim
        assert len(history) == 2 and history[1]["dirty"] is True

    def test_dirty_refresh_replaces_only_its_dirty_predecessor(
            self, bench, monkeypatch):
        committed: dict = {}
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=False)
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=True)
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=True)
        history = committed["history"]
        assert [item["dirty"] for item in history] == [False, True]

    def test_clean_refresh_supersedes_everything_at_its_rev(
            self, bench, monkeypatch):
        committed: dict = {}
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=True)
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=False)
        history = committed["history"]
        assert len(history) == 1 and history[0]["dirty"] is False

    def test_legacy_committed_history_is_protected(self, bench, monkeypatch):
        """Entries predating the dirty flag count as clean."""
        legacy = {"git_rev": "abc1234", "preset": "tiny",
                  "modes": {}, "scheduler_multi_sm": {}}
        committed = {"history": [dict(legacy)]}
        self.refresh(bench, committed, monkeypatch, rev="abc1234",
                     dirty=True)
        assert committed["history"][0] == legacy
        assert len(committed["history"]) == 2
