"""Exporters for trace sessions: Chrome trace, CSV/JSON, ASCII plots.

Three consumers of one :class:`~repro.obs.probe.TraceSession`:

- :func:`write_chrome_trace` — Chrome ``trace_event`` JSON (load in
  ``chrome://tracing`` or Perfetto): one process per SM, one track per
  warp slot, complete ("X") events for warp lifetimes, instant ("i")
  events for spawn/formation/flush, and counter ("C") tracks for
  occupancy, spawn-pool depth, and DRAM segments per interval;
- :func:`write_intervals_csv` / :func:`write_intervals_json` — the raw
  per-interval metric table for plotting;
- :func:`render_interval_plot` — an AerialVision-style stacked terminal
  plot of the per-interval cycle breakdown (W buckets + idle + stall),
  drawn by the same routine as
  :func:`repro.analysis.divergence.render_breakdown`.

Timestamps are in *cycles* (recorded as microseconds in the trace file so
viewers render them; ``otherData.ts_unit`` documents the convention).
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.probe import (
    IDLE_CAUSES,
    INTERVAL_COLUMNS,
    STALL_CAUSES,
    TraceSession,
)
from repro.simt.stats import NUM_W_BUCKETS

#: Counter tracks exported per interval (name -> column expression).
_COUNTER_TRACKS = ("occupancy_warp_cycles", "pool_thread_cycles",
                   "issued", "idle", "stall")


def chrome_trace(session: TraceSession) -> dict:
    """Build the ``trace_event`` document for a finished session."""
    events: list[dict] = []
    for probe in session.sms:
        events.append({"ph": "M", "pid": probe.sm_id, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"SM {probe.sm_id}"}})
        for event in probe.events:
            if event[0] == "warp":
                _, sm_id, slot, start, stop, warp_id, kernel, dynamic, \
                    threads = event
                events.append({
                    "ph": "X", "pid": sm_id, "tid": slot,
                    "ts": start, "dur": max(1, stop - start),
                    "cat": "dynamic" if dynamic else "launch",
                    "name": f"{kernel or 'launch'}#{warp_id}",
                    "args": {"warp_id": warp_id, "threads": threads,
                             "dynamic": dynamic},
                })
            else:
                tag, sm_id, cycle, kernel, threads = event
                events.append({
                    "ph": "i", "s": "t", "pid": sm_id, "tid": 0,
                    "ts": cycle, "cat": tag,
                    "name": f"{tag} {kernel} x{threads}",
                    "args": {"threads": threads},
                })
    machine_pid = session.num_sms
    events.append({"ph": "M", "pid": machine_pid, "tid": 0,
                   "name": "process_name", "args": {"name": "machine"}})
    machine = session.machine_intervals()
    dram = session.dram.array()
    for name in _COUNTER_TRACKS:
        column = INTERVAL_COLUMNS.index(name)
        for index in range(machine.shape[0]):
            events.append({"ph": "C", "pid": machine_pid, "tid": 0,
                           "ts": index * session.interval, "name": name,
                           "args": {name: int(machine[index, column])}})
    for index in range(dram.shape[0]):
        events.append({"ph": "C", "pid": machine_pid, "tid": 0,
                       "ts": index * session.interval,
                       "name": "dram_segments",
                       "args": {"read": int(dram[index, 0]),
                                "write": int(dram[index, 1])}})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "ts_unit": "cycle",
            "clock_ghz": session.clock_ghz,
            "interval": session.interval,
            "cycles": session.cycles,
            "dropped_events": session.dropped_events,
        },
    }


def write_chrome_trace(path, session: TraceSession) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(session)) + "\n")
    return path


def write_intervals_csv(path, session: TraceSession) -> pathlib.Path:
    from repro.analysis.export import write_rows_csv

    return write_rows_csv(path, session.interval_rows())


def write_intervals_json(path, session: TraceSession,
                         stats=None) -> pathlib.Path:
    """Interval table + attribution as JSON; embeds the run's versioned
    ``RunStats.to_dict()`` when ``stats`` is given."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": "repro-intervals/1",
        "summary": session.summary(),
        "attribution": session.stall_attribution(),
        "intervals": session.interval_rows(),
    }
    if stats is not None:
        document["stats"] = stats.to_dict()
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return path


def render_sweep_summary(results) -> str:
    """Completion/failure summary for a finished sweep.

    Duck-typed over :class:`repro.harness.sweep.SweepResults` (iterating
    the completed :class:`~repro.harness.runner.RunResult` rows and reading
    ``failures``) so this module needs no harness import. One headline
    line, then one line per quarantined or unverified job — the CLI prints
    it to stderr whenever a sweep finishes degraded.
    """
    completed = list(results)
    failures = list(getattr(results, "failures", ()))
    unverified = [result for result in completed if not result.verified]
    total = len(completed) + len(failures)
    lines = [f"sweep summary: {len(completed)}/{total} jobs completed, "
             f"{len(failures)} failed, {len(unverified)} unverified, "
             f"{sum(r.wall_seconds for r in completed):.2f}s total job time"]
    for failure in failures:
        lines.append(f"  {failure.describe()}")
    for result in unverified:
        lines.append(f"  {result.job.describe()}  UNVERIFIED "
                     f"(results do not match the reference trace)")
    return "\n".join(lines)


def render_interval_plot(session: TraceSession, *,
                         max_intervals: int = 60) -> str:
    """Stacked per-interval cycle breakdown: W buckets, idle, stall.

    One row per category, one column per interval; darker glyphs mean the
    category consumed a larger share of that interval's SM cycles.
    """
    from repro.analysis.divergence import _stacked_rows

    machine = session.machine_intervals()
    if machine.shape[0] == 0:
        return "(no intervals recorded)"
    columns = list(range(NUM_W_BUCKETS)) + [INTERVAL_COLUMNS.index("idle"),
                                            INTERVAL_COLUMNS.index("stall")]
    lines = _stacked_rows(machine[:, columns],
                          session.w_labels() + ["idle", "stall"],
                          max_intervals)
    attribution = session.stall_attribution()
    lines.append(f"{'':>7}  interval = {session.interval} cycles; "
                 f"idle by cause: "
                 + ", ".join(f"{cause}={attribution[cause]}"
                             for cause in IDLE_CAUSES))
    lines.append(f"{'':>7}  stall by cause: "
                 + ", ".join(f"{cause}={attribution[cause]}"
                             for cause in STALL_CAUSES))
    return "\n".join(lines)
