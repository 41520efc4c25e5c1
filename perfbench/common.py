"""Shared definitions of the end-to-end benchmark: workloads, paths, clocks.

Everything the benchmark writes lands under ``.perfbench/`` in the
checkout root: one private directory per run (``runs/``) and an
append-only history of untraced wall times (``history.jsonl``), keyed by
the digest of the code that ran, that traced runs read to measure their
own overhead. Only Python's bytecode caches (``__pycache__``, compiled
before the first round) sit beside the sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import statistics
import time

#: Checkout root: the directory holding ``BENCHMARK.json`` and ``src/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench"

#: The fast-preset figure set, named one by one: an experiment the program
#: stops producing counts as a failed operation, not as a faster run.
EXPERIMENT_NAMES = (
    "table1", "table2", "table3", "table4",
    "fig3", "fig7", "fig8", "fig9", "fig10",
    "ablation_dwf", "ablation_persistent", "pathtrace", "bfs",
)

#: Simulations the two ablations run outside the shared sweep (the DWF
#: model and the persistent-threads grid).
ABLATION_SIMULATIONS = 2

WORKLOADS = ("experiments-cold", "gi-30sm-warm")

#: Preset of ``experiments-cold``: the figure set as ``repro experiments
#: --preset tiny --jobs 1`` makes it. At ``--preset fast`` one cold figure
#: set is a single 83-100 s operation on a 2-vCPU host, and 22 runs of it
#: would leave too little of the benchmark's time for the 30-SM workload
#: to be measured steadily.
EXPERIMENTS_PRESET = "tiny"

#: Nominal length of one round on a 2-vCPU host, in seconds. A run is
#: ``rounds_for(workload, seconds)`` whole rounds: the count depends on
#: ``--seconds`` alone, never on how fast the host happens to be, so every
#: run of a workload measures the same rounds.
ROUND_S = {"experiments-cold": 40.0, "gi-30sm-warm": 21.0}

#: ``gi-30sm-warm`` inputs: the conference scene at the fast preset's
#: scene detail and kd-tree, on the paper's 30-SM machine. 64x60 = 3840
#: diffuse GI rays give every SM two 64-thread launch blocks (the fast
#: preset's 1600 rays would leave 5 SMs without one). The cycle window is
#: the first 90k cycles rather than the paper's 300k, so that one run
#: costs ~20 s of simulation on a 2-vCPU host; it is as long as that
#: budget allows because the seed moves the count of rays completed
#: inside the window (IQR ~5% at 90k against ~9% at 70k).
GI_SCENE = "conference"
GI_MODES = ("pdom_block", "spawn")
GI_SMS = 30
GI_WIDTH, GI_HEIGHT = 64, 60
GI_WINDOW_CYCLES = 90_000

#: Set-ups timed per untraced run: each round's own, then as many
#: set-up-only processes (which stop on entering the first simulator run
#: call) as it takes to reach this count. A set-up is seconds long, so one
#: sample moves with every burst of host load; ``setup_s`` is the median
#: of these samples.
SETUP_SAMPLES = 3

#: Child processes of one run are killed at this age, so a hung simulation
#: ends the run with an error inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in one untraced run: as many nominal rounds as fit in
    ``seconds`` (rounded to the nearest whole round), at least one."""
    return max(1, int(seconds / ROUND_S[workload] + 0.5))


def now() -> float:
    """Seconds on ``CLOCK_MONOTONIC``, which all processes on the host
    share: a parent's spawn time and a child's timestamps subtract."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def gi_preset():
    """The ``gi-30sm-warm`` simulation scale (needs ``repro`` importable)."""
    import dataclasses

    from repro.api import get_preset

    return dataclasses.replace(
        get_preset("fast"), name="gi-30sm", num_sms=GI_SMS,
        image_width=GI_WIDTH, image_height=GI_HEIGHT,
        max_cycles=GI_WINDOW_CYCLES)


def child_env(run_dir: pathlib.Path) -> dict:
    """Environment of every process a run starts.

    The workload cache is private to the run; the results warehouse, fault
    injection and cache switch are unset; sweeps stay serial; BLAS stays
    single-threaded; and string hashing is fixed so set and dict layouts
    do not change between runs.
    """
    env = dict(os.environ)
    for name in ("REPRO_RESULTS_DIR", "REPRO_FAULT_SPEC", "REPRO_CACHE",
                 "REPRO_CHECKPOINT_DIR", "PYTHONSTARTUP",
                 "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env.update({
        "REPRO_JOBS": "1",
        "REPRO_CACHE_DIR": str(run_dir / "cache"),
        "XDG_CACHE_HOME": str(run_dir / "xdg"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def host_speed_reference(iterations: int = 1_500_000) -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of host speed.

    Printed before and after each run, so a set of runs taken while the
    host was slow shows as such. It is a reference, not a metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def code_digest() -> str:
    """SHA-256 over the program (``src/``) and the benchmark
    (``perfbench/``) as they are in this checkout, bytecode excluded."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and IQR share of a sample."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}
