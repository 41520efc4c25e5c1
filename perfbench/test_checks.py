"""Tests of the benchmark's own output checks, layer accounting and
tracing-overhead baseline.

Each check runs on real outputs of small simulations captured by the
benchmark's recorder: the clean outputs pass, and one corrupted result
per check (a flipped triangle id, a lowered BFS level, a counter off by
one, ...) makes that check fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from checks import References, check_counters, check_experiments, \
    check_simulation  # noqa: E402
from probes import LAYERS, Recorder  # noqa: E402


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """Primary, path and BFS simulations at tiny scale, as captured."""
    from repro import api
    from repro.harness.cache import WorkloadCache

    cache = WorkloadCache(tmp_path_factory.mktemp("cache"))
    recorder = Recorder(0.0, "test", traced=False)
    recorder.install()
    try:
        api.simulate("conference", "pdom_block", preset="tiny", cache=cache)
        api.simulate("conference", "spawn", preset="path-tiny",
                     ray_kind="path", cache=cache)
        api.simulate("graph-skew", "pdom_block", preset="bfs-tiny",
                     ray_kind="bfs", cache=cache)
    finally:
        recorder.uninstall()
    return {sim.workload.ray_kind: sim for sim in recorder.simulations}


@pytest.fixture(scope="module")
def references():
    return References()


def corrupted(sim, results=None, **fields):
    """A copy of ``sim`` whose results or counters can be edited freely."""
    clone = copy.copy(sim)
    clone.results = tuple(np.array(part, copy=True) for part in sim.results)
    clone.per_sm = [copy.copy(stats) for stats in sim.per_sm]
    clone.aggregate = copy.copy(sim.aggregate)
    for name, value in fields.items():
        setattr(clone, name, value)
    return clone


def first_done(values) -> int:
    return int(np.flatnonzero(~np.isnan(values))[0])


@pytest.mark.parametrize("kind", ["primary", "path", "bfs"])
def test_clean_outputs_pass(captured, references, kind):
    sim = captured[kind]
    problems, checked = check_simulation(sim, references)
    assert problems == []
    assert checked == sim.rays_completed > 0
    assert sim.finished


def test_flipped_triangle_id_fails(captured, references):
    sim = corrupted(captured["primary"])
    t, tri = sim.results
    hit = int(np.flatnonzero(~np.isnan(t) & (tri >= 0))[0])
    tri[hit] += 1
    problems, _ = check_simulation(sim, references)
    assert any("another triangle" in text for text in problems)


def test_changed_hit_distance_fails(captured, references):
    sim = corrupted(captured["primary"])
    t, _ = sim.results
    hit = int(np.flatnonzero(np.isfinite(t))[0])
    t[hit] = np.nextafter(t[hit], np.inf)
    problems, _ = check_simulation(sim, references)
    assert any("hit distance" in text for text in problems)


def test_changed_bounce_count_fails(captured, references):
    sim = corrupted(captured["path"])
    bounces, _ = sim.results
    bounces[first_done(bounces)] += 1.0
    problems, _ = check_simulation(sim, references)
    assert any("bounce another number" in text for text in problems)


def test_lowered_bfs_level_fails(captured, references):
    sim = corrupted(captured["bfs"])
    level, _ = sim.results
    deep = int(np.flatnonzero(level > 0)[0])
    level[deep] -= 1.0
    problems, _ = check_simulation(sim, references)
    assert any("below their true BFS level" in text for text in problems)


def test_missing_bfs_vertex_fails_on_finished_run(captured, references):
    sim = corrupted(captured["bfs"])
    level, flag = sim.results
    vertex = first_done(level)
    level[vertex] = np.nan
    problems, _ = check_simulation(sim, references)
    assert any("are reachable" in text for text in problems)


def test_counter_off_by_one_breaks_cycle_partition(captured):
    sim = corrupted(captured["primary"])
    sim.per_sm[0].idle_cycles += 1
    assert any("issued+idle+stall" in text for text in check_counters(sim))


def test_lost_thread_breaks_conservation(captured):
    sim = corrupted(captured["primary"])
    sim.aggregate.threads_exited -= 1
    assert any("thread conservation" in text
               for text in check_counters(sim))


def test_completion_count_off_by_one_fails(captured):
    sim = corrupted(captured["bfs"], rays_completed=captured[
        "bfs"].rays_completed + 1)
    assert any("results were written" in text
               for text in check_counters(sim))


def test_changed_ray_batch_fails(captured, references):
    sim = corrupted(captured["primary"])
    sim.workload = copy.copy(sim.workload)
    sim.workload.directions = sim.workload.directions.copy()
    sim.workload.directions[0, 0] += 1e-9
    problems, _ = check_simulation(sim, references)
    assert any("ray batch differs" in text for text in problems)


class _Job:
    def describe(self):
        return "conference:spawn"


class _Result:
    def __init__(self, verified):
        self.job = _Job()
        self.verified = verified


class _Sweep:
    def __init__(self, verified):
        self.unverified = [] if verified else [_Result(False)]


def test_experiment_checks():
    names = ("table1", "fig8")
    whole = {"table1": {"render": "Table I"}, "fig8": {"render": "Fig 8"}}
    assert check_experiments(whole, names, _Sweep(True),
                             {"ablation_dwf": True}) == ([], [])
    missing, _ = check_experiments({"table1": whole["table1"]}, names,
                                   _Sweep(True), {})
    assert missing == ["fig8"]
    skipped = dict(whole, fig8={"render": "fig8: skipped — failed"})
    assert check_experiments(skipped, names, None, {})[0] == ["fig8"]
    _, problems = check_experiments(whole, names, _Sweep(False), {})
    assert problems and "conference:spawn" in problems[0]
    _, problems = check_experiments(whole, names, None,
                                    {"ablation_dwf": False})
    assert problems == ["ablation_dwf failed the program's own verification"]


def test_self_times_partition_covered_time():
    recorder = Recorder(0.0, "test", traced=True)
    with recorder.span("outer", "experiments"):
        with recorder.span("inner", "cache"):
            with recorder.span("leaf", "rt.kdtree"):
                sum(range(10_000))
        with recorder.span("sibling", "verify"):
            sum(range(10_000))
    own = recorder.self_times()
    assert set(own) == set(LAYERS)
    assert all(seconds >= 0 for seconds in own.values())
    assert sum(own.values()) == pytest.approx(recorder.root_seconds())
    trace = recorder.chrome_trace(1, {})
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert [event["args"]["parent"] for event in spans] == [-1, 0, 1, 0]


def test_overhead_baseline_needs_same_code_workload_and_seed(tmp_path,
                                                             monkeypatch):
    import json

    import run

    key = {"workload": "gi-30sm-warm", "program_seed": 3, "code": "new"}
    entries = [dict(key, wall_s=1.0), dict(key, code="old", wall_s=9.0),
               dict(key, program_seed=4, wall_s=9.0),
               dict(key, workload="experiments-cold", wall_s=9.0),
               dict(key, wall_s=2.0)]
    history = tmp_path / "history.jsonl"
    history.write_text("".join(json.dumps(entry) + "\n" for entry in entries)
                       + '{"torn')
    monkeypatch.setattr(run, "HISTORY", history)
    assert run.untraced_walls(key) == [1.0, 2.0]
    assert run.untraced_walls(dict(key, code="newer")) == []


def test_set_comparison_fails_on_a_worse_median_or_a_wide_spread(capsys):
    import steady

    specs = [{"name": "setup_s", "unit": "s", "better": "lower",
              "bound": 0.25}]

    def runs(values):
        return [{"metrics": {"setup_s": {"value": value}},
                 "host_ref_s": [0.2, 0.2], "attempted": 2, "failed": 0}
                for value in values]

    tight = runs([1.0, 1.01, 0.99, 1.0, 1.02])
    assert steady.diff(tight, tight, specs)
    assert not steady.diff(tight, runs([1.3, 1.31, 1.29, 1.3, 1.32]), specs)
    assert "EXCEEDED" in capsys.readouterr().out
    assert not steady.diff(tight, runs([0.5, 1.0, 1.5, 0.6, 1.4]), specs)
    assert "UNRESOLVED" in capsys.readouterr().out


def test_rounds_follow_seconds_and_stop_before_the_run_deadline(
        tmp_path, monkeypatch):
    import argparse
    import json

    import run

    clock = [0.0]
    started = []

    def fake_child(args, run_dir, tag, deadline):
        # Set-ups take 4 s and rounds 80 s on the fake clock.
        started.append(tag)
        clock[0] += 80.0 if tag.startswith("round") else 4.0
        (run_dir / f"{tag}.json").write_text(json.dumps({"setup_s": 4.0}))
        return 0.0

    def rounds_of(seconds):
        clock[0] = 0.0
        started.clear()
        args = argparse.Namespace(workload="experiments-cold", seed=1,
                                  seconds=seconds, trace=0)
        rounds, setups = run.run_rounds(args, tmp_path)
        return list(started), len(rounds), setups

    monkeypatch.setattr(run, "now", lambda: clock[0])
    monkeypatch.setattr(run, "run_child", fake_child)
    # The round count follows --seconds; set-up-only processes make up
    # the set-up samples the rounds do not give.
    assert rounds_of(40) == (["setup-1", "setup-2", "round-0"], 1,
                             [4.0, 4.0])
    assert rounds_of(80) == (["setup-2", "round-0", "round-1"], 2, [4.0])
    # 250 s asks for six rounds; a third 80 s round would end past the
    # deadline, so it never starts.
    assert rounds_of(250) == (["round-0", "round-1"], 2, [])
    assert clock[0] <= run.RUN_DEADLINE_S
