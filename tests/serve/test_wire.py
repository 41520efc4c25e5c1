"""Wire-schema contracts: round trips, strictness, and typed rejection.

The hypothesis suites generate arbitrary job specs and requests, encode
them to canonical JSONL, and assert a bit-exact round trip through
``parse_line`` and the kind's decoder — the same path the sweep manifest
and the HTTP API use.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.harness.sweep import RetryPolicy, SweepJob
from repro.serve import wire
from repro.serve.manifest import ShardManifest
from repro.serve.wire import SweepRequest

SCENES = ("conference", "fairyforest", "atrium")
MODES = ("pdom_block", "pdom_warp", "spawn", "spawn_conflicts")
RAY_KINDS = ("primary", "shadow", "reflection", "gi")

jobs_st = st.builds(
    SweepJob,
    scene=st.sampled_from(SCENES),
    mode=st.sampled_from(MODES),
    preset=st.sampled_from(("tiny", "fast", "paper")),
    ray_kind=st.sampled_from(RAY_KINDS),
    seed=st.integers(0, 2**31 - 1),
    max_cycles=st.none() | st.integers(1, 10**9),
    fast_forward=st.none() | st.booleans(),
)

#: One simulation, as ``repro submit`` and ``ServeClient`` send it.
one_job_requests_st = jobs_st.map(lambda job: SweepRequest(jobs=(job,)))

#: A ``simulate-request`` record as earlier builds wrote it.
LEGACY_SIMULATE_REQUEST = {
    "schema": wire.WIRE_SCHEMA, "kind": "simulate-request",
    "scene": "conference", "mode": "spawn", "preset": "fast",
    "ray_kind": "primary", "seed": 0, "max_cycles": None,
    "fast_forward": None,
}

sweep_requests_st = st.builds(
    SweepRequest,
    jobs=st.lists(jobs_st, min_size=1, max_size=4, unique_by=lambda j: j.key)
        .map(tuple),
    jobs_n=st.none() | st.integers(1, 8),
    retries=st.integers(1, 5),
    job_timeout=st.none() | st.floats(0.1, 600.0, allow_nan=False),
)


class TestJobRoundTrip:
    @given(jobs_st)
    @settings(max_examples=200, deadline=None)
    def test_job_round_trips_through_a_line(self, job):
        record = wire.parse_line(wire.dump_line(wire.job_to_wire(job)))
        assert wire.job_from_wire(record) == job

    @given(jobs_st)
    @settings(max_examples=50, deadline=None)
    def test_record_key_matches_job_identity(self, job):
        record = wire.job_to_wire(job)
        assert wire.record_key(record) == (job.key, job.config_digest())

    def test_tampered_digest_is_rejected(self):
        record = wire.job_to_wire(
            SweepJob(scene="conference", mode="spawn", preset="tiny"))
        record["max_cycles"] = 999  # result-affecting edit, stale digest
        with pytest.raises(ConfigError, match="digest"):
            wire.job_from_wire(record)

    def test_unknown_request_field_gets_a_suggestion(self):
        record = wire.request_to_wire(SweepRequest(jobs=(
            SweepJob(scene="conference", mode="spawn", preset="fast"),)))
        record["jobs"][0]["max_cycle"] = 5_000
        with pytest.raises(ConfigError, match="Did you mean 'max_cycles'"):
            wire.request_from_wire(record)


class TestRequestRoundTrip:
    @given(one_job_requests_st)
    @settings(max_examples=100, deadline=None)
    def test_one_job_sweep_request_round_trips(self, request):
        record = wire.parse_line(wire.dump_line(wire.request_to_wire(request)))
        assert wire.request_from_wire(record) == request
        (job,) = wire.request_from_wire(record).jobs
        assert job.config_digest() == request.jobs[0].config_digest()

    @given(sweep_requests_st)
    @settings(max_examples=100, deadline=None)
    def test_sweep_request_round_trips(self, request):
        record = wire.parse_line(wire.dump_line(wire.request_to_wire(request)))
        assert wire.request_from_wire(record) == request

    @given(one_job_requests_st)
    @settings(max_examples=100, deadline=None)
    def test_request_digest_is_stable_and_content_addressed(self, request):
        direct = wire.request_digest(request)
        reencoded = wire.request_digest(
            wire.parse_line(wire.dump_line(wire.request_to_wire(request))))
        assert direct == reencoded
        (job,) = request.jobs
        different = wire.request_digest(SweepRequest(
            jobs=(dataclasses.replace(job, seed=job.seed + 1),)))
        assert different != direct

    def test_simulate_request_record_names_sweep_request(self):
        with pytest.raises(ConfigError, match="sweep-request"):
            wire.request_from_wire(dict(LEGACY_SIMULATE_REQUEST))

    @pytest.mark.parametrize("schema", ["other/9", None])
    def test_foreign_or_missing_schema_rejected(self, schema):
        record = wire.request_to_wire(SweepRequest(jobs=(
            SweepJob(scene="conference", mode="spawn", preset="tiny"),)))
        record.pop("schema")
        if schema is not None:
            record["schema"] = schema
        with pytest.raises(ConfigError, match=f"schema={schema!r}"):
            wire.request_from_wire(record)

    def test_empty_sweep_request_rejected(self):
        with pytest.raises(ConfigError, match="at least one job"):
            SweepRequest(jobs=())

    def test_bad_retries_rejected(self):
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        with pytest.raises(ConfigError, match="retries"):
            SweepRequest(jobs=(job,), retries=0)


class TestParseLine:
    def test_torn_and_foreign_lines_return_none(self):
        assert wire.parse_line("") is None
        assert wire.parse_line('{"torn": ') is None
        assert wire.parse_line("not json") is None
        assert wire.parse_line('["a", "list"]') is None
        assert wire.parse_line(json.dumps({"schema": "other/9"})) is None

    def test_schema_is_an_argument(self):
        line = json.dumps({"schema": "other/9", "kind": "run"})
        assert wire.parse_line(line, "other/9") == {"schema": "other/9",
                                                    "kind": "run"}
        assert wire.parse_line(wire.dump_line(
            wire.campaign_to_wire(RetryPolicy())), "other/9") is None

    def test_campaign_and_requeue_records_round_trip(self):
        retry = RetryPolicy(max_attempts=5, backoff_seconds=0.5,
                            timeout_seconds=7.0)
        record = wire.parse_line(wire.dump_line(wire.campaign_to_wire(retry)))
        assert wire.retry_from_wire(record) == retry
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        requeue = wire.requeue_to_wire(job, "w1", "crash", "exit 66")
        assert wire.parse_line(wire.dump_line(requeue)) == requeue
        assert wire.record_key(requeue) == (job.key, job.config_digest())

    def test_result_round_trips_through_a_line(self, tiny_result):
        record = wire.parse_line(wire.dump_line(
            wire.result_to_wire(tiny_result)))
        result = wire.result_from_wire(record)
        assert result.job == tiny_result.job
        assert result.stats.to_dict() == tiny_result.stats.to_dict()
        assert (result.num_rays, result.verified, result.wall_seconds) == (
            tiny_result.num_rays, tiny_result.verified,
            tiny_result.wall_seconds)


REMOVED_KNOBS = (("executor", "reference"), ("scheduler", "scan"))


class TestRemovedKnobs:
    """Records that still name the removed ``executor``/``scheduler``
    knobs fail with a typed ConfigError, never a bare TypeError."""

    @pytest.mark.parametrize("knob,value", REMOVED_KNOBS)
    def test_simulate_request_naming_a_removed_knob(self, knob, value):
        record = dict(LEGACY_SIMULATE_REQUEST)
        record[knob] = value
        with pytest.raises(ConfigError, match="sweep-request"):
            wire.request_from_wire(record)

    @pytest.mark.parametrize("knob,value", REMOVED_KNOBS)
    def test_sweep_request_naming_a_removed_knob(self, knob, value):
        record = wire.request_to_wire(SweepRequest(jobs=(
            SweepJob(scene="conference", mode="spawn", preset="tiny"),)))
        record["jobs"][0][knob] = value
        with pytest.raises(ConfigError, match=f"unknown job field '{knob}'"):
            wire.request_from_wire(record)

    def test_sweep_request_naming_shards(self):
        record = wire.request_to_wire(SweepRequest(jobs=(
            SweepJob(scene="conference", mode="spawn", preset="tiny"),)))
        record["shards"] = 2
        with pytest.raises(ConfigError,
                           match="unknown sweep request field 'shards'"):
            wire.request_from_wire(record)

    @pytest.mark.parametrize("knob,value", REMOVED_KNOBS)
    def test_stats_record_naming_a_removed_knob(self, tiny_result, knob,
                                                value):
        record = wire.result_to_wire(tiny_result)
        record["stats"]["config"][knob] = value
        with pytest.raises(ConfigError,
                           match=f"unknown GPUConfig option '{knob}'"):
            wire.result_from_wire(record)

    def test_checkpoint_resimulates_an_older_result(self, tmp_path,
                                                    tiny_stats_doc):
        """A checkpointed result whose config names a removed knob is
        schema drift: lookup misses, so the sweep re-simulates it."""
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        stats = copy.deepcopy(tiny_stats_doc)
        stats["config"]["scheduler"] = "scan"
        record = {"schema": wire.WIRE_SCHEMA, "kind": "result",
                  "key": list(job.key), "digest": job.config_digest(),
                  "num_rays": 64, "verified": True, "wall_seconds": 0.5,
                  "stats": stats}
        path = tmp_path / "checkpoint.jsonl"
        path.write_text(json.dumps(record) + "\n")
        state = ShardManifest(path).load()
        assert len(state.history) == 1
        assert state.cached_result(job) is None


class TestMalformedResultDiagnostics:
    """Bad result records get did-you-mean ConfigErrors, not KeyErrors."""

    def good_record(self, job, stats_doc):
        return {
            "schema": wire.WIRE_SCHEMA,
            "kind": "result",
            "key": list(job.key),
            "digest": job.config_digest(),
            "num_rays": 64,
            "verified": True,
            "wall_seconds": 0.5,
            "stats": stats_doc,
        }

    def test_missing_field_names_it(self, tiny_stats_doc):
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        record = self.good_record(job, tiny_stats_doc)
        del record["wall_seconds"]
        with pytest.raises(ConfigError, match="missing 'wall_seconds'"):
            wire.result_from_wire(record, job=job)

    def test_typoed_field_gets_did_you_mean(self, tiny_stats_doc):
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        record = self.good_record(job, tiny_stats_doc)
        record["wall_secondss"] = record.pop("wall_seconds")
        with pytest.raises(ConfigError,
                           match="Did you mean 'wall_secondss'"):
            wire.result_from_wire(record, job=job)

    def test_unconvertible_value_names_field_and_value(self, tiny_stats_doc):
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        record = self.good_record(job, tiny_stats_doc)
        record["wall_seconds"] = "forty-two"
        with pytest.raises(ConfigError,
                           match="'wall_seconds' is malformed"):
            wire.result_from_wire(record, job=job)

    def test_malformed_stats_payload_is_diagnosed(self, tiny_stats_doc):
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        record = self.good_record(job, tiny_stats_doc)
        record["stats"] = {"not": "a stats payload"}
        with pytest.raises(ConfigError):
            wire.result_from_wire(record, job=job)

    def test_no_bare_keyerror_escapes(self, tiny_stats_doc):
        job = SweepJob(scene="conference", mode="spawn", preset="tiny")
        for field in ("stats", "num_rays", "verified", "wall_seconds"):
            record = self.good_record(job, tiny_stats_doc)
            del record[field]
            with pytest.raises(ConfigError):
                wire.result_from_wire(record, job=job)


@pytest.fixture(scope="module")
def tiny_result():
    """A real RunResult from one tiny simulation."""
    from repro.harness.sweep import execute_job

    return execute_job(SweepJob(scene="conference", mode="spawn",
                                preset="tiny", max_cycles=5_000))


@pytest.fixture(scope="module")
def tiny_stats_doc(tiny_result):
    """The RunStats document of :func:`tiny_result`."""
    return tiny_result.stats.to_dict()


def test_wire_import_loads_neither_daemon_nor_client():
    """The package exports resolve lazily: a process that imports only the
    wire schema (every ``repro worker`` does) loads no HTTP module."""
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.serve.wire; "
            "print(sorted(name for name in sys.modules "
            "if name in ('repro.serve.client', 'repro.serve.server')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=src,
                          env={"PYTHONPATH": src, "PATH": ""})
    assert proc.stdout.strip() == "[]"
