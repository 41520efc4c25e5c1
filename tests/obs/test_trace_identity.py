"""The observability contracts: probes-off bit-identity, exact==fast.

- With no session attached, every reported statistic is byte-identical to
  an uninstrumented run (zero-overhead-when-off).
- With a session attached, the event-driven fast clock and the exact
  cycle-by-cycle clock produce identical interval metrics, events, and
  attribution (the span-credit construction).
- The per-cause splits partition the aggregate idle/stall counters and
  the interval totals reconcile with ``RunStats``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness.presets import get_preset
from repro.harness.runner import build_workload, run_mode
from repro.harness.sweep import run_stats_digest
from repro.obs import INTERVAL_COLUMNS, TraceSession
from repro.obs.constants import IDLE_CAUSES, STALL_CAUSES
from repro.simt.stats import NUM_W_BUCKETS

#: Bounded budget: long enough to cross DRAM waits, spawn formation and
#: partial-warp flushes, short enough for tier-1 (the exact clock ticks
#: every cycle of it).
MAX_CYCLES = 60_000

MODES = ("pdom_warp", "spawn")


@pytest.fixture(scope="module")
def workload():
    return build_workload("conference", get_preset("tiny"))


@pytest.fixture(scope="module", params=MODES)
def traced(request, workload):
    """(mode, baseline result, fast traced result, exact traced result)."""
    mode = request.param
    baseline = run_mode(mode, workload, max_cycles=MAX_CYCLES)
    fast = run_mode(mode, workload, max_cycles=MAX_CYCLES,
                     trace=TraceSession(interval=512))
    exact = run_mode(mode, workload, max_cycles=MAX_CYCLES,
                      fast_forward=False, trace=TraceSession(interval=512))
    return mode, baseline, fast, exact


def test_probes_off_stats_bit_identical(traced):
    _, baseline, fast, exact = traced
    assert run_stats_digest(fast.stats) == run_stats_digest(baseline.stats)
    assert run_stats_digest(exact.stats) == run_stats_digest(baseline.stats)
    assert fast.stats.to_dict() == baseline.stats.to_dict()


def test_probes_off_leaves_no_probe_attached(workload):
    result = run_mode("spawn", workload, max_cycles=1)
    assert result.trace is None


def test_exact_equals_fast_intervals(traced):
    _, _, fast, exact = traced
    a = fast.trace.machine_intervals()
    b = exact.trace.machine_intervals()
    assert a.shape == b.shape
    assert (a == b).all()
    assert fast.trace.dram.rows == exact.trace.dram.rows
    assert fast.trace.interval_rows() == exact.trace.interval_rows()


def test_exact_equals_fast_events(traced):
    _, _, fast, exact = traced
    for probe_fast, probe_exact in zip(fast.trace.sms, exact.trace.sms):
        assert probe_fast.events == probe_exact.events


def test_exact_equals_fast_attribution(traced):
    _, _, fast, exact = traced
    assert fast.trace.stall_attribution() == exact.trace.stall_attribution()


def test_attribution_partitions_aggregates(traced):
    _, _, fast, _ = traced
    attribution = fast.trace.stall_attribution()
    sm = fast.stats.sm_stats
    assert attribution["idle_cycles"] == sm.idle_cycles
    assert attribution["stall_cycles"] == sm.stall_cycles
    assert (sum(attribution[cause] for cause in IDLE_CAUSES)
            == attribution["idle_cycles"])
    assert (sum(attribution[cause] for cause in STALL_CAUSES)
            == attribution["stall_cycles"])


def test_intervals_reconcile_with_run_stats(traced):
    mode, _, fast, _ = traced
    machine = fast.trace.machine_intervals()
    col = {name: i for i, name in enumerate(INTERVAL_COLUMNS)}
    sm = fast.stats.sm_stats
    assert int(machine[:, col["issued"]].sum()) == sm.issued_instructions
    assert (int(machine[:, col["committed"]].sum())
            == sm.committed_thread_instructions)
    assert int(machine[:, col["idle"]].sum()) == sm.idle_cycles
    assert int(machine[:, col["stall"]].sum()) == sm.stall_cycles
    w_totals = machine[:, :NUM_W_BUCKETS].sum(axis=0)
    assert w_totals.tolist() == fast.stats.divergence.totals().tolist()
    spawned = int(machine[:, col["threads_spawned"]].sum())
    formed = int(machine[:, col["warps_formed"]].sum())
    flushed = int(machine[:, col["warps_flushed"]].sum())
    assert spawned == sm.threads_spawned
    assert formed == sm.full_warps_formed
    assert flushed == sm.partial_warps_flushed
    if mode == "spawn":
        assert spawned > 0
    assert int(machine[:, col["warps_launched"]].sum()) == sm.warps_launched
    assert int(machine[:, col["warps_retired"]].sum()) == sm.warps_completed


def test_spawn_stall_attribution_with_bank_conflicts(workload):
    result = run_mode("spawn_conflicts", workload, max_cycles=MAX_CYCLES,
                       trace=TraceSession(interval=512))
    attribution = result.trace.stall_attribution()
    assert attribution["stall_cycles"] > 0
    assert (attribution["bank_conflict"] + attribution["spawn_conflict"]
            == attribution["stall_cycles"])
    assert attribution["spawn_conflict"] > 0


def test_session_refuses_reuse(workload):
    session = TraceSession(interval=512)
    run_mode("pdom_warp", workload, max_cycles=1_000, trace=session)
    with pytest.raises(ConfigError):
        run_mode("pdom_warp", workload, max_cycles=1_000, trace=session)


def test_session_rejects_bad_interval():
    with pytest.raises(ConfigError):
        TraceSession(interval=0)


def test_events_cap_drops_and_counts(workload):
    session = TraceSession(interval=512, max_events=5)
    run_mode("spawn", workload, max_cycles=MAX_CYCLES, trace=session)
    assert session.num_events == 5
    assert session.dropped_events > 0
    summary = session.summary()
    assert summary["events"] == 5
    assert summary["dropped_events"] == session.dropped_events


def test_events_disabled(workload):
    session = TraceSession(interval=512, events=False)
    run_mode("spawn", workload, max_cycles=MAX_CYCLES, trace=session)
    assert session.num_events == 0
    assert session.dropped_events == 0
    # Interval metrics are unaffected by the event stream being off.
    assert session.machine_intervals().sum() > 0


def test_multi_sm_probes(workload):
    from repro.config import scaled_config
    from repro.kernels.layout import build_memory_image
    from repro.kernels.microkernels import microkernel_launch_spec
    from repro.simt import GPU

    config = scaled_config(2, spawn_enabled=True, max_cycles=MAX_CYCLES)
    image = build_memory_image(workload.tree, workload.origins,
                               workload.directions, workload.t_max)
    session = TraceSession(interval=512)
    gpu = GPU(config, microkernel_launch_spec(workload.num_rays),
              image.global_mem, image.const_mem, trace=session)
    stats = gpu.run()
    assert len(session.sms) == 2
    assert {probe.sm_id for probe in session.sms} == {0, 1}
    machine = session.machine_intervals()
    col = {name: i for i, name in enumerate(INTERVAL_COLUMNS)}
    assert (int(machine[:, col["issued"]].sum())
            == stats.sm_stats.issued_instructions)
    attribution = session.stall_attribution()
    assert attribution["idle_cycles"] == stats.sm_stats.idle_cycles
