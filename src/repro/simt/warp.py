"""Warp context: lane registers, predicates, SIMT stack, schedule state."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.simt.stack import ReconvergenceStack

if TYPE_CHECKING:
    from repro.simt.banked import BankedMemory

#: Number of predicate registers per lane.
NUM_PREDICATES = 8

#: Warp scheduler states.
READY = "ready"       # may issue when ready_at <= cycle
BLOCKED = "blocked"   # waiting at a block barrier
FINISHED = "finished"  # all lanes exited; slot reclaimable


@dataclass
class Warp:
    """One warp's architectural and scheduling state.

    ``regs`` is (num_regs, warp_size) float64 — lane-vectorized so the
    executor can run a whole warp instruction with a handful of numpy ops.
    ``tids`` holds each lane's logical thread id (the ray index for
    launch-time threads; reassigned for dynamically spawned threads).
    ``spawn_addr`` models the paper's ``spawnMemAddr`` special register.
    The SIMT stack starts with one entry at ``entry_pc`` holding the
    launch mask.
    """

    warp_id: int
    warp_size: int
    num_regs: int
    tids: np.ndarray
    active_at_launch: np.ndarray
    regs: np.ndarray = field(init=False)
    preds: np.ndarray = field(init=False)
    reg_rows: list = field(init=False, repr=False)
    """Cached per-register row views of ``regs``; the executor indexes
    these instead of slicing the 2D array on every operand fetch. Valid
    because ``regs`` is only ever written in place, never rebound."""
    pred_rows: list = field(init=False, repr=False)
    spawn_addr: np.ndarray = field(init=False)
    spawned_flag: np.ndarray = field(init=False)
    data_slot_addr: np.ndarray = field(init=False)
    _lane_commits: np.ndarray = field(init=False, repr=False)
    _commit_mask: np.ndarray | None = field(init=False, default=None,
                                            repr=False)
    _commit_count: int = field(init=False, default=0, repr=False)
    stack: ReconvergenceStack = field(init=False)
    status: str = READY
    ready_at: int = 0
    wait_kind: str = "pipe"
    """What the warp is waiting for until ``ready_at`` ("pipe" for
    ALU/on-chip pipeline latency, "dram" for an off-chip access). Only
    maintained while a probe is attached (see :mod:`repro.obs`); the
    scheduler never reads it."""
    is_dynamic: bool = False
    kernel_name: str = ""
    formation_region: int = -1
    """Spawn-memory warp-formation region owned by this (dynamic) warp;
    released back to the spawn unit when the warp retires."""
    shared_mem: BankedMemory | None = field(default=None, repr=False)
    spawn_mem: BankedMemory | None = field(default=None, repr=False)
    """The issuing core's on-chip shared and spawn memories, bound when
    the core admits the warp. On-chip ``ld``/``st`` plans are shared by
    every SM, so they read the memory from here. The warp holds the
    memories, never the core, so no reference cycle keeps a finished
    machine alive."""
    entry_pc: InitVar[int] = 0

    def __post_init__(self, entry_pc: int) -> None:
        self.tids = np.asarray(self.tids, dtype=np.int64)
        self.active_at_launch = np.asarray(self.active_at_launch, dtype=bool)
        if self.tids.shape != (self.warp_size,):
            raise ValueError("tids must have warp_size entries")
        self.regs = np.zeros((self.num_regs, self.warp_size), dtype=np.float64)
        self.preds = np.zeros((NUM_PREDICATES, self.warp_size), dtype=bool)
        self.reg_rows = list(self.regs)
        self.pred_rows = list(self.preds)
        self.spawn_addr = np.zeros(self.warp_size, dtype=np.int64)
        self.spawned_flag = np.zeros(self.warp_size, dtype=bool)
        self.data_slot_addr = np.full(self.warp_size, -1, dtype=np.int64)
        self._lane_commits = np.zeros(self.warp_size, dtype=np.int64)
        self.stack = ReconvergenceStack.initial(entry_pc,
                                                self.active_at_launch)

    @staticmethod
    def launch(warp_id: int, warp_size: int, num_regs: int, entry_pc: int,
               tids: np.ndarray, active: np.ndarray,
               is_dynamic: bool = False, kernel_name: str = "",
               shared_mem: BankedMemory | None = None,
               spawn_mem: BankedMemory | None = None) -> Warp:
        return Warp(warp_id=warp_id, warp_size=warp_size, num_regs=num_regs,
                    tids=tids, active_at_launch=active, entry_pc=entry_pc,
                    is_dynamic=is_dynamic, kernel_name=kernel_name,
                    shared_mem=shared_mem, spawn_mem=spawn_mem)

    @property
    def pc(self) -> int:
        return self.stack.top.pc

    @property
    def lane_commits(self) -> np.ndarray:
        """Per-lane committed-instruction counts.

        The issue path batches commits per stack-entry mask (mask arrays
        are never mutated in place — divergence and lane retirement always
        install fresh arrays — so consecutive issues under the identical
        mask object can be folded into one count). Reading this property
        flushes the pending batch, so observers always see exact totals.
        """
        self.flush_commits()
        return self._lane_commits

    def flush_commits(self) -> None:
        """Fold the pending (mask, count) batch into ``_lane_commits``."""
        if self._commit_count:
            self._lane_commits[self._commit_mask] += self._commit_count
            self._commit_count = 0

    def active_mask(self) -> np.ndarray:
        if self.status == FINISHED or self.stack.empty:
            return np.zeros(self.warp_size, dtype=bool)
        return self.stack.active_mask()

    @property
    def active_count(self) -> int:
        if self.status == FINISHED or self.stack.empty:
            return 0
        return self.stack.active_count()

    @property
    def done(self) -> bool:
        return self.status == FINISHED

    def finish_if_empty(self) -> bool:
        """Mark FINISHED when no lanes remain; returns True if finished."""
        if self.status != FINISHED and self.stack.empty:
            self.status = FINISHED
            return True
        return False
