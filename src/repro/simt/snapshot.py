"""Architectural-state snapshot hooks for conformance checking.

The differential fuzzer (:mod:`repro.fuzz`) needs to observe each thread's
*final* register file and predicate state at the moment its lane retires —
after that the warp slot is recycled and the columns are gone. Rather than
teach every execution model to export registers, the single shared exit
plan in :mod:`repro.simt.executor` reports retiring lanes to an optional
recorder attached to the :class:`~repro.simt.executor.MachineState`. Every
model that issues through the compiled plans (pdom_block, pdom_warp, spawn,
and DWF, whose issue groups run on lanes of one core-wide warp) therefore
feeds the same recorder with zero per-model code. Under DWF a "finished
warp" is an issue group whose threads all exited together.

The hook is ``None`` by default and every call site is guarded by
``is not None``, preserving the zero-overhead-when-off contract of
:mod:`repro.obs`.
"""

from __future__ import annotations

import numpy as np


class SnapshotRecorder:
    """Collects per-thread exit state and per-warp stack balance.

    ``exit_state`` maps each retired thread id to ``(regs, preds)`` copies
    taken at its exit instruction. Dynamically spawned threads carry
    synthetic negative tids that differ across models and schedules, so
    consumers comparing register files should restrict themselves to
    launch-time tids (``tid >= 0``); the fuzzer only does so for programs
    without spawns, where registers cannot hold model-specific addresses.
    """

    def __init__(self) -> None:
        self.exit_state: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.exit_count = 0
        self.stack_balance: list[tuple[int, int, int]] = []
        """Per finished warp: (pushes, pops, entries left on the stack)."""

    def on_exit(self, warp, mask: np.ndarray) -> None:
        """Record the retiring lanes' registers and predicates."""
        lanes = np.nonzero(mask)[0]
        self.exit_count += int(lanes.size)
        tids = warp.tids
        regs = warp.regs
        preds = warp.preds
        for lane in lanes.tolist():
            self.exit_state[int(tids[lane])] = (regs[:, lane].copy(),
                                                preds[:, lane].copy())

    def on_warp_finished(self, warp) -> None:
        """Record the finished warp's stack push/pop counters."""
        stack = warp.stack
        self.stack_balance.append(
            (stack.pushes, stack.pops, len(stack.entries)))

    def unbalanced_warps(self) -> list[tuple[int, int, int]]:
        """Finished warps whose stack pushes and pops do not cancel."""
        return [record for record in self.stack_balance
                if record[0] != record[1] or record[2] != 0]
