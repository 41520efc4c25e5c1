"""The deadlock diagnosis: every run loop stops at the same cycle.

Conference primary rays under µ-kernel spawn at the ``tiny`` preset, with
the partial-warp flush turned off, strand the last spawned threads in the
partial-warp pool: no warp ever forms from them, so the machine stops
issuing and the run loop gives up ``DEADLOCK_HORIZON`` cycles after the
last issue. One SM runs the single-core loop on both clocks; two SMs run
the heap loop (fast clock) and the per-cycle loop (exact clock). Each
pair must diagnose the deadlock at the same cycle, stop the GPU clock
there, and report identical statistics.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.errors import SchedulingError
from repro.harness.presets import get_preset
from repro.harness.runner import (
    config_for_mode,
    image_for_workload,
    launch_for_workload,
    prepare_workload,
)
from repro.harness.sweep import run_stats_digest
from repro.simt import GPU
from repro.simt.gpu import DEADLOCK_HORIZON

MESSAGE = re.compile(rf"no instruction issued for {DEADLOCK_HORIZON} cycles "
                     r"\(cycle (\d+)\); simulation is deadlocked")


@pytest.fixture(scope="module")
def workload():
    return prepare_workload("conference", get_preset("tiny"))


def deadlock(workload, num_sms: int, fast: bool) -> tuple[int, GPU]:
    """Run until the diagnosis; returns the cycle its message names."""
    preset = dataclasses.replace(workload.preset, num_sms=num_sms)
    workload = dataclasses.replace(workload, preset=preset)
    config = config_for_mode("spawn", preset, fast_forward=fast).replace(
        spawn_flush_partial_warps=False)
    image = image_for_workload(workload)
    gpu = GPU(config, launch_for_workload("spawn", workload),
              image.global_mem, image.const_mem,
              divergence_window=preset.divergence_window)
    with pytest.raises(SchedulingError, match=MESSAGE) as caught:
        gpu.run()
    cycle = int(MESSAGE.search(str(caught.value)).group(1))
    assert caught.value.cycle == cycle
    assert gpu.cycle == cycle
    return cycle, gpu


@pytest.mark.parametrize("num_sms,expected", ((1, 296_219), (2, 237_220)))
def test_clocks_diagnose_the_same_deadlock(workload, num_sms, expected):
    fast_cycle, fast = deadlock(workload, num_sms, fast=True)
    exact_cycle, exact = deadlock(workload, num_sms, fast=False)
    assert fast_cycle == exact_cycle == expected
    assert (run_stats_digest(fast.collect_stats())
            == run_stats_digest(exact.collect_stats()))
    stranded = sum(sm.spawn_unit.partial_thread_count for sm in fast.sms)
    assert stranded > 0
