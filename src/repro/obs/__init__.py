"""Observability: probes, interval metrics, and trace exporters.

Attach a :class:`TraceSession` to a run (``repro.api.simulate(...,
probes=...)`` or ``GPU(..., trace=session)``) to collect per-interval
W-bucket histograms, occupancy, spawn-pool depth, DRAM segment counts,
cause-split idle/stall attribution, and a bounded structured-event stream
— with zero overhead when no session is attached. The interval tables are
:class:`~repro.simt.stats.WindowCounters`, like the divergence sampler.
See :mod:`repro.obs.probe` for the contracts and :mod:`repro.obs.export`
for the Chrome-trace/CSV/JSON/ASCII exporters.
"""

from repro.obs.export import (
    chrome_trace,
    render_interval_plot,
    render_sweep_summary,
    write_chrome_trace,
    write_intervals_csv,
    write_intervals_json,
)
from repro.obs.invariants import (
    check_cycle_partition,
    check_run,
    check_stall_attribution,
    check_thread_conservation,
)
from repro.obs.probe import (
    DEFAULT_INTERVAL,
    IDLE_CAUSES,
    INTERVAL_COLUMNS,
    STALL_CAUSES,
    SMProbe,
    TraceSession,
)
from repro.obs.progress import EventLog

__all__ = [
    "DEFAULT_INTERVAL",
    "EventLog",
    "IDLE_CAUSES",
    "INTERVAL_COLUMNS",
    "SMProbe",
    "STALL_CAUSES",
    "TraceSession",
    "check_cycle_partition",
    "check_run",
    "check_stall_attribution",
    "check_thread_conservation",
    "chrome_trace",
    "render_interval_plot",
    "render_sweep_summary",
    "write_chrome_trace",
    "write_intervals_csv",
    "write_intervals_json",
]
