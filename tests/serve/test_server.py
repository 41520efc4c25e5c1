"""End-to-end job-server tests over a real HTTP socket.

One daemon (``ReproServer`` on an ephemeral port) serves the whole
module; every test talks to it through :class:`ServeClient` — the same
stdlib ``urllib`` path ``repro submit`` uses — so request encoding,
routing, NDJSON streaming, and error answers are all exercised for real.

The acceptance tests pin the service's ``run_stats_digest`` values
against an in-process ``api.sweep`` run, and prove that resubmitting a
finished request — to the same daemon, and to a freshly restarted one
sharing the checkpoint directory — answers without re-executing.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.errors import ServeError
from repro.harness.sweep import SweepJob, run_stats_digest
from repro.serve.client import ServeClient
from repro.serve.server import JobManager, ReproServer
from repro.serve.wire import WIRE_SCHEMA, SweepRequest

MAX_CYCLES = 20_000

#: One simulation: a one-job sweep request, as ``repro submit`` sends it.
SIM_JOB = SweepJob(scene="conference", mode="spawn", preset="tiny",
                   max_cycles=MAX_CYCLES)
SIM = SweepRequest(jobs=(SIM_JOB,))


def sweep_jobs():
    return tuple(SweepJob(scene="conference", mode=mode, preset="tiny",
                          max_cycles=MAX_CYCLES)
                 for mode in ("pdom_block", "pdom_warp", "spawn"))


@pytest.fixture(scope="module")
def server(tmp_path_factory, isolated_cache):
    checkpoints = tmp_path_factory.mktemp("serve-checkpoints")
    server = ReproServer(("127.0.0.1", 0), JobManager(checkpoints))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url)


class TestEndpoints:
    def test_ping(self, client):
        answer = client.ping()
        assert answer["ok"] is True
        assert answer["schema"] == WIRE_SCHEMA

    def test_unknown_endpoint_404s(self, client):
        with pytest.raises(ServeError, match="no such endpoint") as info:
            client._json("/v1/nope")
        assert info.value.status == 404

    def test_unknown_job_404s(self, client):
        with pytest.raises(ServeError, match="no such job") as info:
            client.job("job-9999-deadbeef")
        assert info.value.status == 404

    def test_malformed_body_400s(self, client, server):
        request = urllib.request.Request(
            f"{server.url}/v1/jobs", data=b"not json at all",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert "not JSON" in json.loads(info.value.read())["error"]

    def test_non_request_record_400s(self, client):
        with pytest.raises(ServeError) as info:
            client.submit({"schema": WIRE_SCHEMA, "kind": "claim"})
        assert info.value.status == 400

    def test_simulate_request_400s_naming_sweep_request(self, client):
        record = {"schema": WIRE_SCHEMA, "kind": "simulate-request",
                  "scene": "conference", "mode": "spawn", "preset": "tiny"}
        with pytest.raises(ServeError, match="sweep-request") as info:
            client.submit(record)
        assert info.value.status == 400


class TestSimulateJob:
    def test_submit_poll_result_matches_api(self, client):
        answer = client.run(SIM, timeout=300)
        assert answer["state"] == "done"
        (record,) = answer["results"]
        reference = api.simulate(SIM_JOB.scene, SIM_JOB.mode,
                                 preset=SIM_JOB.preset,
                                 max_cycles=SIM_JOB.max_cycles)
        assert record["run_stats_digest"] \
            == run_stats_digest(reference.stats)
        assert record["stats"] == reference.stats.to_dict()

    def test_resubmission_deduplicates(self, client):
        first = client.submit(SIM)
        client.wait(first["id"], timeout=300)
        again = client.submit(SIM)
        assert again["deduplicated"] is True
        assert again["id"] == first["id"]

    def test_events_stream_ndjson_to_completion(self, client):
        status = client.submit(SIM)
        client.wait(status["id"], timeout=300)
        events = list(client.events(status["id"]))
        assert events[0]["seq"] == 0
        assert [event["seq"] for event in events] \
            == list(range(len(events)))
        assert events[-1]["state"] == "done"
        # resume mid-stream, as a reconnecting client would
        tail = list(client.events(status["id"], start=len(events) - 1))
        assert tail == events[-1:]

    def test_events_are_valid_ndjson_bytes(self, client, server):
        status = client.submit(SIM)
        client.wait(status["id"], timeout=300)
        with urllib.request.urlopen(
                f"{server.url}/v1/jobs/{status['id']}/events") as response:
            assert response.headers["Content-Type"] \
                == "application/x-ndjson"
            lines = response.read().decode().splitlines()
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_result_of_running_job_409s(self, client, server):
        # Plant a queued job directly in the table (it never runs), so
        # the 409 path is exercised without racing a real execution.
        from repro.serve.server import Job

        request = SweepRequest(jobs=(SweepJob(
            scene="conference", mode="pdom_warp", preset="tiny",
            max_cycles=1),))
        job = Job(id="job-held-0000", digest="0" * 16, request=request)
        with server.manager._lock:
            server.manager._jobs[job.id] = job
        with pytest.raises(ServeError, match="still queued") as info:
            client.result(job.id)
        assert info.value.status == 409


class TestSweepJobAndCache:
    def test_sweep_digest_matches_in_process_sweep(self, client):
        answer = client.run(SweepRequest(jobs=sweep_jobs()), timeout=600)
        assert answer["state"] == "done"
        reference = api.sweep(sweep_jobs(), jobs_n=1)
        for record, expected in zip(answer["results"], reference):
            assert record["run_stats_digest"] \
                == run_stats_digest(expected.stats)

    def test_restarted_daemon_serves_from_checkpoint(self, client, server,
                                                     isolated_cache):
        """The ISSUE acceptance criterion: an identical resubmission to a
        *fresh* daemon sharing the checkpoint dir is served entirely from
        checkpoint records — zero jobs re-executed."""
        request = SweepRequest(jobs=sweep_jobs())
        client.run(request, timeout=600)  # populate the checkpoints

        fresh = ReproServer(
            ("127.0.0.1", 0),
            JobManager(server.manager.checkpoint_dir, inline=True))
        try:
            fresh_client = ServeClient(fresh.url)
            thread = threading.Thread(target=fresh.serve_forever,
                                      daemon=True)
            thread.start()
            answer = fresh_client.run(request, timeout=60)
        finally:
            fresh.shutdown()
            fresh.server_close()
        assert answer["deduplicated"] is False   # new daemon, new job table
        assert answer["state"] == "done"
        assert answer["cached_jobs"] == len(sweep_jobs())
        assert answer["executed_jobs"] == 0
        reference = api.sweep(sweep_jobs(), jobs_n=1)
        for record, expected in zip(answer["results"], reference):
            assert record["run_stats_digest"] \
                == run_stats_digest(expected.stats)

    def test_failed_job_reports_failure(self, client, monkeypatch,
                                        tmp_path):
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "exception@fairyforest:pdom_block*9")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
        request = SweepRequest(jobs=(SweepJob(
            scene="fairyforest", mode="pdom_block", preset="tiny",
            max_cycles=MAX_CYCLES),))
        status = client.submit(request)
        final = client.wait(status["id"], timeout=300)
        assert final["state"] == "failed"
        assert "FaultInjectionError" in final["error"]
        answer = client.result(status["id"])
        assert answer["state"] == "failed"
        assert answer["results"] == []
