"""Per-SM probes and the trace session: structured simulator observability.

A :class:`TraceSession` attaches one :class:`SMProbe` to every SM of a
:class:`~repro.simt.gpu.GPU` (pass ``trace=session`` to the constructor,
or ``probes=...`` to :func:`repro.api.simulate`). The simulator emits
structured events into the probes from its issue path, warp scheduler,
spawn unit (LUT / partial-warp pool / new-warp FIFO), and DRAM coalescer;
the probes accumulate them into per-interval tables
(:class:`~repro.simt.stats.WindowCounters`, the same plain-int window
table as the divergence sampler) and a bounded event list for timeline
export (:mod:`repro.obs.export`).

Contracts (enforced by ``tests/obs/``):

- **Zero overhead when off.** Every hook call site in the simulator is
  guarded by ``if probe is not None``; with no session attached the hot
  path executes exactly the pre-instrumentation instruction sequence and
  all ``RunStats`` are bit-identical to an uninstrumented run.
- **Observe, never steer.** Probes read simulator state but never mutate
  it, so attaching a session cannot change any reported statistic.
- **Exact == fast.** During a fast-forwarded span no SM issues, so warp
  sets, wait kinds, spawn-pool depths, and stall causes are constant;
  span credits (``on_*_span``, value x span length) therefore equal
  per-cycle sampling, and both clock modes produce identical interval
  metrics and events.

The stall-attribution pass splits the aggregate ``stall``/``idle``
counters by cause:

- stall (issue port blocked): ``bank_conflict`` (on-chip memory) vs.
  ``spawn_conflict`` (spawn-memory metadata stores, Fig. 9);
- idle (no warp ready): ``dram_pending`` (some warp awaits DRAM) >
  ``issue_port`` (all waits are pipeline latency) > ``barrier`` (every
  warp blocked at a bar) > ``drained`` (no resident warps — admission
  starved), prioritized in that order.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import ConfigError
from repro.obs.constants import (
    DEFAULT_INTERVAL,
    IDLE_BARRIER,
    IDLE_CAUSES,
    IDLE_DRAINED,
    IDLE_DRAM_PENDING,
    IDLE_ISSUE_PORT,
    STALL_BANK_CONFLICT,
    STALL_CAUSES,
    STALL_SPAWN_CONFLICT,
    WAIT_DRAM,
    WAIT_PIPE,
)
from repro.simt.executor import ISSUE_KINDS
from repro.simt.stats import NUM_W_BUCKETS, WindowCounters, w_bucket, w_labels

#: Per-interval metric columns accumulated by every SM probe. The first
#: NUM_W_BUCKETS columns are the W-bucket issue histogram (paper Figs.
#: 3/7/9); the ``*_cycles`` columns are cycle-weighted sums (divide by the
#: interval length for a mean depth/occupancy).
INTERVAL_COLUMNS = (
    tuple(f"w{bucket}" for bucket in range(NUM_W_BUCKETS))
    + ("issued", "committed", "idle", "stall")
    + tuple(f"kind_{kind}" for kind in ISSUE_KINDS)
    + tuple(f"stall_{cause}" for cause in STALL_CAUSES)
    + tuple(f"idle_{cause}" for cause in IDLE_CAUSES)
    + ("occupancy_warp_cycles", "pool_thread_cycles", "fifo_warp_cycles",
       "threads_spawned", "warps_formed", "warps_flushed",
       "warps_launched", "warps_retired"))

#: Machine-level DRAM coalescer columns (the partition is shared by all
#: SMs, so segment counts live on the session, not a per-SM probe).
DRAM_COLUMNS = ("read_segments", "write_segments")


#: Column indices the probe hooks write.
_COLUMN = {name: index for index, name in enumerate(INTERVAL_COLUMNS)}
_ISSUED = _COLUMN["issued"]
_COMMITTED = _COLUMN["committed"]
_IDLE = _COLUMN["idle"]
_STALL = _COLUMN["stall"]
_OCCUPANCY = _COLUMN["occupancy_warp_cycles"]
_POOL = _COLUMN["pool_thread_cycles"]
_FIFO = _COLUMN["fifo_warp_cycles"]
_SPAWNED = _COLUMN["threads_spawned"]
_FORMED = _COLUMN["warps_formed"]
_FLUSHED = _COLUMN["warps_flushed"]
_LAUNCHED = _COLUMN["warps_launched"]
_RETIRED = _COLUMN["warps_retired"]
_KIND = {kind: _COLUMN[f"kind_{kind}"] for kind in ISSUE_KINDS}
_STALL_CAUSE = {cause: _COLUMN[f"stall_{cause}"] for cause in STALL_CAUSES}
_IDLE_CAUSE = {cause: _COLUMN[f"idle_{cause}"] for cause in IDLE_CAUSES}


class SMProbe:
    """Interval accumulation plus event emission for one SM.

    The simulator drives these hooks, each guarded by ``if probe is not
    None``: ``SM.step`` calls ``on_cycle``/``on_idle``/``on_stall`` once per
    stepped cycle and ``SM.credit_skipped`` the ``*_span`` variants once
    per fast-forwarded span; the issue path calls ``on_issue``/``on_spawn``
    and warp admission and retirement ``on_warp_launch``/
    ``on_warp_retire``; the spawn unit calls ``on_warp_formed``/
    ``on_partial_flush`` when its FIFO or pool changes.

    ``intervals`` holds one row of :data:`INTERVAL_COLUMNS` per interval.
    Events are compact tuples (see :mod:`repro.obs.export` for the
    schema); warp lifetimes are assembled at retirement so each warp costs
    one event, and chrome-trace rows (``tid``) reuse freed warp slots via
    a min-heap so the timeline mirrors slot occupancy.
    """

    def __init__(self, session: "TraceSession", sm_id: int, warp_size: int):
        self.session = session
        self.sm_id = sm_id
        self.warp_size = warp_size
        self.intervals = WindowCounters(session.interval,
                                        len(INTERVAL_COLUMNS))
        self.events: list[tuple] = []
        self.cycle = 0
        self._open: dict[int, tuple[int, int, str, bool, int]] = {}
        self._free_slots: list[int] = []
        self._next_slot = 0

    # -- per-cycle sampling --------------------------------------------------

    def on_cycle(self, cycle: int, occupancy: int, pool_threads: int,
                 fifo_warps: int) -> None:
        self.cycle = cycle
        row = self.intervals.row(cycle)
        row[_OCCUPANCY] += occupancy
        row[_POOL] += pool_threads
        row[_FIFO] += fifo_warps

    def on_cycle_span(self, start: int, stop: int, occupancy: int,
                      pool_threads: int, fifo_warps: int) -> None:
        self.cycle = stop - 1
        intervals = self.intervals
        intervals.add_span(start, stop, _OCCUPANCY, occupancy)
        intervals.add_span(start, stop, _POOL, pool_threads)
        intervals.add_span(start, stop, _FIFO, fifo_warps)

    def on_issue(self, cycle: int, active: int, kind: str) -> None:
        row = self.intervals.row(cycle)
        row[w_bucket(active, self.warp_size)] += 1  # W columns come first
        row[_ISSUED] += 1
        row[_COMMITTED] += active
        row[_KIND[kind]] += 1

    def on_idle(self, cycle: int, cause: str) -> None:
        row = self.intervals.row(cycle)
        row[_IDLE] += 1
        row[_IDLE_CAUSE[cause]] += 1

    def on_stall(self, cycle: int, cause: str) -> None:
        row = self.intervals.row(cycle)
        row[_STALL] += 1
        row[_STALL_CAUSE[cause]] += 1

    def on_idle_span(self, start: int, stop: int, cause: str) -> None:
        self.intervals.add_span(start, stop, _IDLE)
        self.intervals.add_span(start, stop, _IDLE_CAUSE[cause])

    def on_stall_span(self, start: int, stop: int, cause: str) -> None:
        self.intervals.add_span(start, stop, _STALL)
        self.intervals.add_span(start, stop, _STALL_CAUSE[cause])

    # -- structured events ---------------------------------------------------

    def on_spawn(self, cycle: int, kernel_name: str, threads: int) -> None:
        self.intervals.row(cycle)[_SPAWNED] += threads
        if self.session.admit_event():
            self.events.append(("spawn", self.sm_id, cycle, kernel_name,
                                threads))

    def on_warp_formed(self, kernel_name: str, threads: int) -> None:
        self.intervals.row(self.cycle)[_FORMED] += 1
        if self.session.admit_event():
            self.events.append(("formed", self.sm_id, self.cycle,
                                kernel_name, threads))

    def on_partial_flush(self, kernel_name: str, threads: int) -> None:
        self.intervals.row(self.cycle)[_FLUSHED] += 1
        if self.session.admit_event():
            self.events.append(("flush", self.sm_id, self.cycle,
                                kernel_name, threads))

    def on_warp_launch(self, cycle: int, warp) -> None:
        self.intervals.row(cycle)[_LAUNCHED] += 1
        if self._free_slots:
            slot = heapq.heappop(self._free_slots)
        else:
            slot = self._next_slot
            self._next_slot += 1
        self._open[warp.warp_id] = (slot, cycle, warp.kernel_name,
                                    warp.is_dynamic,
                                    int(warp.active_at_launch.sum()))

    def on_warp_retire(self, cycle: int, warp) -> None:
        self.intervals.row(cycle)[_RETIRED] += 1
        info = self._open.pop(warp.warp_id, None)
        if info is None:
            return
        slot, start, kernel, dynamic, threads = info
        heapq.heappush(self._free_slots, slot)
        if self.session.admit_event():
            self.events.append(("warp", self.sm_id, slot, start, cycle,
                                warp.warp_id, kernel, dynamic, threads))

    def finalize(self, cycles: int) -> None:
        """Close out warps still in flight at the cycle budget."""
        for warp_id in sorted(self._open):
            slot, start, kernel, dynamic, threads = self._open[warp_id]
            if self.session.admit_event():
                self.events.append(("warp", self.sm_id, slot, start, cycles,
                                    warp_id, kernel, dynamic, threads))
        self._open.clear()


class TraceSession:
    """Configuration and sink for one traced GPU run.

    One session observes exactly one run — ``GPU.__init__`` claims it and
    a second run would silently interleave metrics, so reuse raises.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL, *,
                 events: bool = True, max_events: int = 200_000):
        if interval <= 0:
            raise ConfigError("trace interval must be positive")
        self.interval = int(interval)
        self.events_enabled = events
        self.max_events = int(max_events)
        self.sms: list[SMProbe] = []
        self.dram = WindowCounters(self.interval, len(DRAM_COLUMNS))
        self.dropped_events = 0
        self._admitted = 0
        self.warp_size: int | None = None
        self.num_sms = 0
        self.clock_ghz = 0.0
        self.cycles = 0
        self._configured = False
        self._finalized = False

    # -- wiring (driven by the GPU) ------------------------------------------

    def configure(self, config) -> None:
        if self._configured:
            raise ConfigError(
                "a TraceSession observes exactly one run; create a fresh "
                "session (or pass probes=True) for each simulation")
        self._configured = True
        self.warp_size = config.warp_size
        self.num_sms = config.num_sms
        self.clock_ghz = config.clock_ghz

    def sm_probe(self, sm_id: int) -> SMProbe:
        probe = SMProbe(self, sm_id, self.warp_size)
        self.sms.append(probe)
        return probe

    def admit_event(self) -> bool:
        """Reserve one event slot; count drops past the cap."""
        if not self.events_enabled:
            return False
        if self._admitted >= self.max_events:
            self.dropped_events += 1
            return False
        self._admitted += 1
        return True

    def on_dram_access(self, cycle: int, segments: int,
                       is_store: bool) -> None:
        # DRAM_COLUMNS order is (read, write), so the store flag is the
        # column index.
        self.dram.row(cycle)[int(is_store)] += segments

    def finalize(self, cycles: int) -> None:
        if self._finalized:
            return
        self._finalized = True
        self.cycles = cycles
        for probe in self.sms:
            probe.finalize(cycles)

    # -- analysis surface ----------------------------------------------------

    @property
    def num_events(self) -> int:
        return sum(len(probe.events) for probe in self.sms)

    def machine_intervals(self) -> np.ndarray:
        """Per-interval metrics summed over all SMs (rows x columns)."""
        machine = WindowCounters(self.interval, len(INTERVAL_COLUMNS))
        for probe in self.sms:
            machine.merge(probe.intervals)
        return machine.array()

    def interval_rows(self) -> list[dict]:
        """One dict per interval: machine metrics plus DRAM segments."""
        machine = self.machine_intervals()
        dram = self.dram.array()
        rows = []
        for index in range(max(machine.shape[0], dram.shape[0])):
            row = {"interval": index, "start_cycle": index * self.interval}
            for column, name in enumerate(INTERVAL_COLUMNS):
                row[name] = (int(machine[index, column])
                             if index < machine.shape[0] else 0)
            for column, name in enumerate(DRAM_COLUMNS):
                row[f"dram_{name}"] = (int(dram[index, column])
                                       if index < dram.shape[0] else 0)
            rows.append(row)
        return rows

    def stall_attribution(self) -> dict:
        """Whole-run idle/stall cycles split by cause, summed over SMs.

        The causes partition the aggregate counters exactly:
        ``sum(stall causes) == stall_cycles`` and
        ``sum(idle causes) == idle_cycles``.
        """
        sums = self.machine_intervals().sum(axis=0)
        totals = {"idle_cycles": int(sums[_IDLE]),
                  "stall_cycles": int(sums[_STALL])}
        for cause in STALL_CAUSES:
            totals[cause] = int(sums[_STALL_CAUSE[cause]])
        for cause in IDLE_CAUSES:
            totals[cause] = int(sums[_IDLE_CAUSE[cause]])
        return totals

    def w_labels(self) -> list[str]:
        return w_labels(self.warp_size or 32)

    def summary(self) -> dict:
        machine = self.machine_intervals()
        return {
            "interval": self.interval,
            "cycles": self.cycles,
            "num_sms": self.num_sms,
            "warp_size": self.warp_size,
            "intervals": int(machine.shape[0]),
            "events": self.num_events,
            "dropped_events": self.dropped_events,
            "issued": int(machine[:, _ISSUED].sum()),
        }
