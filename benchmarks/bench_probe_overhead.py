"""Probe overhead — the observability layer must be free when off.

Two contracts from docs/architecture.md ("Cycle attribution probes"):

- **Structurally off**: with no ``TraceSession`` attached, no probe object
  exists anywhere in the machine — every hook site is a dead
  ``if probe is not None`` branch.
- **Cheap when on**: attaching probes may not change any statistic
  (enforced bit-for-bit in tests/obs/) and should cost a bounded factor
  in wall clock; the bench records the measured ratio so regressions in
  the hook placement show up in BENCH output.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.api import simulate
from repro.harness.sweep import run_stats_digest
from repro.obs import TraceSession

SCENE = "conference"
MODES = ("pdom_warp", "spawn")

#: Generous wall-clock ceiling for probes-on vs probes-off; interval
#: accumulation is a handful of plain-int adds per simulated cycle.
MAX_OVERHEAD = 3.0


def _time_run(workload, mode: str, probes):
    start = time.perf_counter()
    result = simulate(workload, mode, probes=probes)
    return time.perf_counter() - start, result


def _measure(workloads):
    workload = workloads(SCENE)
    rows = []
    for mode in MODES:
        simulate(workload, mode)  # warm caches/JIT-free but page-warm
        off_s, off = _time_run(workload, mode, None)
        on_s, on = _time_run(workload, mode, TraceSession())
        rows.append({
            "mode": mode,
            "cycles": off.stats.cycles,
            "off_s": round(off_s, 2),
            "on_s": round(on_s, 2),
            "overhead": round(on_s / off_s, 2),
            "identical_stats": (run_stats_digest(on.stats)
                                == run_stats_digest(off.stats)),
            "probe_off_clean": all(sm.probe is None
                                   for sm in _machine(workload, mode).sms),
        })
    return rows


def _machine(workload, mode: str):
    """An uninstrumented GPU, for the structural no-probe assertion."""
    from repro.api import config_for_mode, launch_for_mode
    from repro.kernels.layout import build_memory_image
    from repro.simt import GPU

    image = build_memory_image(workload.tree, workload.origins,
                               workload.directions, workload.t_max)
    return GPU(config_for_mode(mode, workload.preset),
               launch_for_mode(mode, workload.num_rays),
               image.global_mem, image.const_mem)


def bench_probe_overhead(workloads, report):
    rows = _measure(workloads)
    report(format_table(
        rows, title="Probe overhead — traced vs untraced wall clock"))
    for row in rows:
        assert row["probe_off_clean"], row
        assert row["identical_stats"], row
        assert row["overhead"] < MAX_OVERHEAD, row
