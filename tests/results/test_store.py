"""Results store round trips: append, reload, collisions, torn lines,
the byte-identity guarantee, and the ``REPRO_RESULTS_DIR`` opt-in hooks.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.errors import ConfigError
from repro.harness.sweep import SweepJob, execute_job, run_sweep
from repro.results.store import (
    RESULTS_SCHEMA,
    ResultsStore,
    default_store,
    git_provenance,
    maybe_record,
    run_record,
    stats_fingerprint,
)
from tests.results.conftest import tiny_job

#: The record sections that may legitimately differ between two identical
#: executions (wall clock, git state, timestamp, which path recorded it).
VOLATILE = ("timing", "provenance")


def stable_line(record: dict) -> str:
    """The record minus its volatile sections, canonically encoded."""
    return json.dumps({key: value for key, value in record.items()
                       if key not in VOLATILE}, sort_keys=True)


class TestRunRecord:
    def test_record_shape(self, job_result):
        record = run_record(job_result, source="test")
        assert record["schema"] == RESULTS_SCHEMA
        assert record["kind"] == "run"
        assert record["key"] == list(job_result.job.key)
        assert record["config_digest"] == job_result.job.config_digest()
        assert record["run_stats_digest"] == \
            stats_fingerprint(job_result.stats)
        assert record["metrics"]["cycles"] == job_result.stats.cycles
        assert record["metrics"]["verified"] is True
        assert record["timing"]["wall_seconds"] == \
            pytest.approx(job_result.wall_seconds, abs=1e-6)
        assert record["timing"]["cycles_per_second"] > 0
        assert record["provenance"]["source"] == "test"
        assert isinstance(record["provenance"]["dirty"], bool)
        json.dumps(record)  # everything JSON-serializable

    def test_provenance_matches_git(self, job_result):
        record = run_record(job_result, source="test")
        rev, dirty = git_provenance()
        assert record["provenance"]["git_rev"] == rev
        assert record["provenance"]["dirty"] == dirty

    def test_run_result_and_job_result_share_identity(
            self, job_result, tmp_path, monkeypatch):
        """api.simulate's hook records the same job/config digest that an
        identically-configured sweep job does (run_mode derives the job
        from its arguments — max_cycles included — and the workload)."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ws"))
        api.simulate("conference", "spawn", preset="tiny",
                     max_cycles=30_000)
        [from_run] = ResultsStore(tmp_path / "ws").load()
        from_job = run_record(job_result, source="sweep")
        assert from_run["config_digest"] == from_job["config_digest"]
        assert from_run["run_stats_digest"] == from_job["run_stats_digest"]
        assert from_run["key"] == from_job["key"]
        assert from_run["job"] == from_job["job"]

    def test_run_and_sweep_record_one_digest(self, tmp_path, monkeypatch):
        """``repro run`` passes the fast clock explicitly and a sweep
        leaves it unset: one configuration, so one recorded digest."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ws"))
        api.simulate("conference", "pdom_block", preset="tiny",
                     max_cycles=5_000, fast_forward=True)
        run_sweep([SweepJob(scene="conference", mode="pdom_block",
                            preset="tiny", max_cycles=5_000)], jobs_n=1)
        run, swept = ResultsStore(tmp_path / "ws").load()
        assert run["provenance"]["source"] == "simulate"
        assert swept["provenance"]["source"] == "sweep"
        assert run["config_digest"] == swept["config_digest"]
        assert run["job"] == swept["job"]

    def test_byte_identical_modulo_volatile_fields(self, job_result):
        """Two identical executions → byte-identical stable sections."""
        again = execute_job(tiny_job())
        first = run_record(job_result, source="a")
        second = run_record(again, source="b")
        assert stable_line(first) == stable_line(second)


class TestStoreRoundTrip:
    def test_append_reload(self, tmp_path, job_result):
        store = ResultsStore(tmp_path / "store")
        record = store.record(job_result, source="test")
        assert store.load() == [record]
        assert len(store) == 1

    def test_append_rejects_foreign_schema(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(ConfigError, match="schema"):
            store.append({"schema": "something-else/9", "kind": "run"})

    def test_load_missing_file_is_empty(self, tmp_path):
        assert ResultsStore(tmp_path / "nowhere").load() == []

    def test_torn_tail_line_is_skipped(self, tmp_path, job_result):
        store = ResultsStore(tmp_path)
        kept = store.record(job_result, source="test")
        with open(store.path, "a") as handle:
            handle.write('{"schema": "repro-results/1", "kind": "ru')
        assert store.load() == [kept]

    def test_foreign_and_blank_lines_are_skipped(self, tmp_path, job_result):
        store = ResultsStore(tmp_path)
        kept = store.record(job_result, source="test")
        with open(store.path, "a") as handle:
            handle.write("\n")
            handle.write(json.dumps({"schema": "repro-wire/1",
                                     "kind": "result"}) + "\n")
            handle.write("not json at all\n")
        assert store.load() == [kept]

    def test_digest_key_collision_keeps_both_records(self, tmp_path,
                                                     job_result):
        """Same config digest twice: append-only, both lines survive."""
        store = ResultsStore(tmp_path)
        first = store.record(job_result, source="one")
        second = store.record(job_result, source="two")
        assert first["config_digest"] == second["config_digest"]
        loaded = store.load()
        assert len(loaded) == 2
        assert [r["provenance"]["source"] for r in loaded] == ["one", "two"]


class TestOptInHooks:
    def test_maybe_record_is_noop_without_env(self, job_result, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert default_store() is None
        assert maybe_record(job_result, source="test") is None

    def test_simulate_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ws"))
        api.simulate("conference", "spawn", preset="tiny", max_cycles=30_000)
        records = ResultsStore(tmp_path / "ws").load()
        assert len(records) == 1
        assert records[0]["provenance"]["source"] == "simulate"
        assert records[0]["timing"]["wall_seconds"] > 0

    def test_sweep_records_each_executed_job(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ws"))
        jobs = [tiny_job("pdom_block"), tiny_job("pdom_warp")]
        run_sweep(jobs, jobs_n=1)
        records = ResultsStore(tmp_path / "ws").load()
        assert len(records) == 2
        assert {r["job"]["mode"] for r in records} == \
            {"pdom_block", "pdom_warp"}
        assert all(r["provenance"]["source"] == "sweep" for r in records)

    def test_resumed_jobs_do_not_double_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "ws"))
        manifest = tmp_path / "ckpt.jsonl"
        jobs = [tiny_job("pdom_block")]
        run_sweep(jobs, jobs_n=1, checkpoint=manifest)
        run_sweep(jobs, jobs_n=1, checkpoint=manifest, resume=True)
        records = ResultsStore(tmp_path / "ws").load()
        assert len(records) == 1  # the resume served the checkpoint

    def test_relative_dir_pinned_to_first_cwd(self, tmp_path, monkeypatch,
                                              job_result):
        """A worker that chdirs later keeps writing to the same store."""
        anchor = tmp_path / "anchor"
        elsewhere = tmp_path / "elsewhere"
        anchor.mkdir(), elsewhere.mkdir()
        monkeypatch.chdir(anchor)
        # A unique relative spelling: resolve_env_dir caches per value.
        monkeypatch.setenv("REPRO_RESULTS_DIR", f"rel-store-{tmp_path.name}")
        first = default_store()
        maybe_record(job_result, source="before-chdir")
        monkeypatch.chdir(elsewhere)
        second = default_store()
        maybe_record(job_result, source="after-chdir")
        assert first.path == second.path
        assert first.directory == anchor / f"rel-store-{tmp_path.name}"
        assert len(first.load()) == 2
        assert not (elsewhere / f"rel-store-{tmp_path.name}").exists()

    def test_uncreatable_dir_raises_config_error(self, tmp_path,
                                                 monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("a plain file, not a directory\n")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(blocker / "sub"))
        with pytest.raises(ConfigError, match="cannot be created"):
            default_store()
