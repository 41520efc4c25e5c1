"""Streaming multiprocessor: warp slots, issue logic, scheduling policies.

Each SM issues at most one warp instruction per cycle, round-robin among
warps whose previous instruction has completed (the paper's two thread
queues: the scheduling queue is modelled by per-warp ``ready_at`` times and
the pending queue by memory completion times from the DRAM model).

Scheduling models (paper §VI):

- **block** — FX5800 behaviour: a thread block is admitted only when warp
  slots exist for the whole block and the per-SM block limit is not
  exceeded.
- **warp** — thread scheduling: individual warps are admitted while
  resources last; required by dynamic µ-kernels.

With spawn enabled, dynamically formed warps have admission priority over
unscheduled launch-time threads (§IV-D), launch threads additionally wait
for free spawn-memory data slots, and partial warps are flushed
lowest-PC-first when nothing else remains to schedule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.config import GPUConfig, SchedulingModel
from repro.errors import SchedulingError
from repro.obs.constants import (
    IDLE_BARRIER,
    IDLE_DRAINED,
    IDLE_DRAM_PENDING,
    IDLE_ISSUE_PORT,
    STALL_BANK_CONFLICT,
    STALL_SPAWN_CONFLICT,
    WAIT_DRAM,
    WAIT_PIPE,
)
from repro.simt.banked import BankedMemory
from repro.simt.executor import (
    BARRIER,
    OFFCHIP,
    ONCHIP,
    SPAWN,
    MachineState,
    execute,
    ready_cycle,
)
from repro.simt.spawn import SpawnUnit
from repro.simt.stats import DivergenceSampler, SMStats
from repro.simt.warp import BLOCKED, READY, Warp


@dataclass
class LaunchBlock:
    """One thread block: warps of (tids, active mask, thread count)
    launched together. The count is precomputed so per-cycle admission
    attempts (which may fail on exhausted spawn data slots for thousands
    of consecutive cycles) never re-reduce the mask."""

    block_id: int
    warps: list[tuple[np.ndarray, np.ndarray, int]] = field(
        default_factory=list)

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def num_threads(self) -> int:
        return sum(count for _, _, count in self.warps)


class SM:
    """One streaming multiprocessor.

    ``machine`` is the :class:`MachineState` every SM of the GPU shares.
    The on-chip memories are this SM's own: ``shared_mem``, and the spawn
    unit's spawn memory (``shared_mem`` again without spawn hardware).
    Each admitted warp is bound to both."""

    def __init__(self, sm_id: int, config: GPUConfig, machine: MachineState,
                 dram, *, entry_pc: int, num_regs: int, max_warps: int,
                 warps_per_block: int, max_blocks: int,
                 shared_mem: BankedMemory, spawn_unit: SpawnUnit | None,
                 divergence_window: int = 1000, probe=None):
        if max_warps <= 0:
            raise SchedulingError("SM has zero warp slots; kernel resources "
                                  "exceed the machine configuration")
        self.sm_id = sm_id
        self.config = config
        self.machine = machine
        self.shared_mem = shared_mem
        self.spawn_mem = (shared_mem if spawn_unit is None
                          else spawn_unit.spawn_mem)
        self.dram = dram
        self.entry_pc = entry_pc
        self.num_regs = num_regs
        self.max_warps = max_warps
        self.warps_per_block = warps_per_block
        self.max_blocks = max_blocks
        self.spawn_unit = spawn_unit
        self.warps: list[Warp] = []
        self.launch_queue: deque[LaunchBlock] = deque()
        self.stats = SMStats()
        self.divergence = DivergenceSampler(warp_size=config.warp_size,
                                            window=divergence_window)
        self.stall_until = 0
        self.probe = probe
        """Attached :class:`repro.obs.probe.SMProbe` or None. Every hook
        call below is guarded by ``if probe is not None`` so the untraced
        hot path is unchanged (the zero-overhead-when-off contract)."""
        self._stall_cause = STALL_BANK_CONFLICT
        """Why ``stall_until`` is set (probe attribution only; updated on
        each stall-extending penalty while a probe is attached)."""
        if probe is not None and spawn_unit is not None:
            spawn_unit.probe = probe
        self._rr = 0
        self._admission_dirty = True
        """False while try_schedule is known to be unable to admit
        anything: every admission blocker (free warp slots, free spawn
        data slots / formation regions, formed warps, partial-pool
        threads, queued blocks) only changes through an issue, a warp
        retirement, or a new block — each of which re-arms the flag. The
        per-cycle scheduler then skips the admission scan entirely."""
        self._next_warp_id = 0
        self._next_dynamic_tid = -1
        self._block_live: dict[int, int] = {}
        self._block_of_warp: dict[int, int] = {}
        self._barriers: dict[int, list[Warp]] = {}
        self.thread_commits: dict[int, int] = {}

    # -- admission -----------------------------------------------------------

    @property
    def free_slots(self) -> int:
        return self.max_warps - len(self.warps)

    @property
    def resident_blocks(self) -> int:
        return len(self._block_live)

    def enqueue_block(self, block: LaunchBlock) -> None:
        self.launch_queue.append(block)
        self._admission_dirty = True

    def _admit_warp(self, entry_pc: int, tids: np.ndarray, active: np.ndarray,
                    cycle: int, *, is_dynamic: bool, kernel_name: str = "",
                    spawn_addr: np.ndarray | None = None,
                    data_slots: np.ndarray | None = None,
                    block_id: int | None = None,
                    count: int = -1) -> Warp:
        warp = Warp.launch(self._next_warp_id, self.config.warp_size,
                           self.num_regs, entry_pc, tids, active,
                           is_dynamic=is_dynamic, kernel_name=kernel_name,
                           shared_mem=self.shared_mem,
                           spawn_mem=self.spawn_mem)
        self._next_warp_id += 1
        lanes = np.nonzero(active)[0]
        if spawn_addr is not None:
            warp.spawn_addr[lanes] = spawn_addr
        if data_slots is not None:
            warp.data_slot_addr[lanes] = data_slots
        warp.ready_at = cycle + 1
        self.warps.append(warp)
        if block_id is not None:
            self._block_of_warp[warp.warp_id] = block_id
            self._block_live[block_id] = self._block_live.get(block_id, 0) + 1
        self.stats.warps_launched += 1
        self.stats.threads_launched += (count if count >= 0
                                        else int(active.sum()))
        if self.probe is not None:
            self.probe.on_warp_launch(cycle, warp)
        return warp

    def _admit_dynamic(self, cycle: int) -> None:
        formed = self.spawn_unit.pop_full_warp()
        size = self.config.warp_size
        count = formed.num_threads
        active = np.zeros(size, dtype=bool)
        active[:count] = True
        tids = np.full(size, -1, dtype=np.int64)
        tids[:count] = np.arange(self._next_dynamic_tid,
                                 self._next_dynamic_tid - count, -1)
        self._next_dynamic_tid -= count
        warp = self._admit_warp(formed.entry_pc, tids, active, cycle,
                                is_dynamic=True,
                                kernel_name=formed.kernel_name,
                                spawn_addr=formed.formation_addresses,
                                data_slots=formed.data_pointers,
                                count=count)
        warp.formation_region = formed.region

    def _admit_launch_warp(self, tids: np.ndarray, active: np.ndarray,
                           count: int, cycle: int,
                           block_id: int | None) -> bool:
        """Admit one launch warp; False if spawn data slots are exhausted."""
        spawn_addr = None
        data_slots = None
        if self.spawn_unit is not None:
            addresses = self.spawn_unit.allocate_data_slots(count)
            if addresses is None:
                return False
            spawn_addr = addresses
            data_slots = addresses
        self._admit_warp(self.entry_pc, tids, active, cycle,
                         is_dynamic=False, spawn_addr=spawn_addr,
                         data_slots=data_slots, block_id=block_id,
                         count=count)
        return True

    def _block_fits(self, block: LaunchBlock) -> bool:
        if self.free_slots < block.num_warps:
            return False
        if self.config.scheduling == SchedulingModel.BLOCK:
            if self.resident_blocks >= self.max_blocks:
                return False
        if self.spawn_unit is not None:
            if self.spawn_unit.free_slot_count < block.num_threads:
                return False
        return True

    def try_schedule(self, cycle: int) -> None:
        """Fill free warp slots: dynamic warps first, then launch threads,
        then (only when nothing else exists) flushed partial warps.

        Every ``break`` means admission is blocked until an issue,
        retirement, or enqueue changes the blocker, so the method clears
        ``_admission_dirty`` on the way out; those three events re-arm it.
        """
        while len(self.warps) < self.max_warps:
            if self.spawn_unit is not None and self.spawn_unit.has_full_warps:
                self._admit_dynamic(cycle)
                continue
            if self.launch_queue:
                if self.config.scheduling == SchedulingModel.BLOCK:
                    block = self.launch_queue[0]
                    if not self._block_fits(block):
                        break
                    self.launch_queue.popleft()
                    for tids, active, count in block.warps:
                        self._admit_launch_warp(tids, active, count, cycle,
                                                block.block_id)
                    continue
                block = self.launch_queue[0]
                tids, active, count = block.warps[0]
                if (self.spawn_unit is not None
                        and self.spawn_unit.free_slot_count < count):
                    break  # data slots exhausted; admission must wait
                if not self._admit_launch_warp(tids, active, count, cycle,
                                               None):
                    break
                block.warps.pop(0)
                if not block.warps:
                    self.launch_queue.popleft()
                continue
            if (self.spawn_unit is not None
                    and self.config.spawn.flush_partial_warps
                    and not self.warps
                    and self.spawn_unit.partial_thread_count > 0):
                formed = self.spawn_unit.flush_partial_warp()
                if formed is None:
                    break
                self.spawn_unit.fifo.append(formed)
                self.stats.partial_warps_flushed += 1
                continue
            break
        self._admission_dirty = False

    # -- per-cycle issue -------------------------------------------------------

    @property
    def done(self) -> bool:
        return (not self.warps and not self.launch_queue
                and (self.spawn_unit is None or self.spawn_unit.idle))

    def step(self, cycle: int) -> bool:
        """Advance one cycle; returns True if an instruction issued."""
        if self.done:
            return False
        stats = self.stats
        stats.cycles += 1
        probe = self.probe
        if probe is not None:
            spawn_unit = self.spawn_unit
            probe.on_cycle(
                cycle, len(self.warps),
                0 if spawn_unit is None else spawn_unit.partial_thread_count,
                0 if spawn_unit is None else len(spawn_unit.fifo))
        if self.stall_until > cycle:
            stats.stall_cycles += 1
            self.divergence.record_stall(cycle)
            if probe is not None:
                probe.on_stall(cycle, self._stall_cause)
            return False
        if self._admission_dirty and len(self.warps) < self.max_warps:
            self.try_schedule(cycle)
        warp = self._select_warp(cycle)
        if warp is None:
            stats.idle_cycles += 1
            self.divergence.record_idle(cycle)
            if probe is not None:
                probe.on_idle(cycle, self._idle_cause())
            return False
        self._issue(warp, cycle)
        return True

    # -- event-driven fast-forward --------------------------------------------

    def next_event_time(self, now: int) -> int | None:
        """Earliest cycle >= ``now`` at which this SM could change state.

        Used by the single-core loop (:func:`repro.simt.gpu.run_core`) to
        fast-forward after a cycle with no issue, and by the multi-SM heap
        loop to put an SM to sleep. While the issue port is stalled the
        only event is the stall expiring (``step`` does not even admit
        warps during a stall); otherwise it is the earliest ``ready_at`` of
        a READY warp.
        Admission (launch queue, spawn FIFO, partial-warp flush) never
        becomes possible between events: every admission blocker — free
        warp slots, free data slots, formed warps — changes only when this
        SM issues, and warps admitted on the last attempted cycle are
        already READY with ``ready_at`` in the future. BLOCKED warps wake
        only via a sibling's issue, so they carry no event of their own.
        Returns None when the SM is quiescent (nothing can ever happen
        without external input — e.g. all warps blocked at a barrier).
        """
        if self.done:
            return None
        if self.stall_until > now:
            return self.stall_until
        if self.stall_until == now:
            # The stall expired exactly at ``now``: no step has reached
            # try_schedule since the stall began, so an admission (launch
            # warp, formed warp, partial flush) may be possible right now.
            return now
        best: int | None = None
        for warp in self.warps:
            if warp.status != READY:
                continue
            if warp.ready_at <= now:
                return now
            if best is None or warp.ready_at < best:
                best = warp.ready_at
        return best

    def credit_skipped(self, start: int, stop: int) -> None:
        """Account the fast-forwarded span [start, stop) exactly as the
        cycle-by-cycle loop would: one cycle each, stalled while
        ``stall_until`` has not expired, idle afterwards."""
        if stop <= start or self.done:
            return
        self.stats.cycles += stop - start
        stall_end = min(stop, max(start, self.stall_until))
        probe = self.probe
        if probe is not None:
            # No SM issues inside a skipped span, so the warp set, wait
            # kinds, pool/FIFO depths, and the stall cause are constant:
            # one span credit equals per-cycle sampling (exact == fast).
            spawn_unit = self.spawn_unit
            probe.on_cycle_span(
                start, stop, len(self.warps),
                0 if spawn_unit is None else spawn_unit.partial_thread_count,
                0 if spawn_unit is None else len(spawn_unit.fifo))
        if stall_end > start:
            self.stats.stall_cycles += stall_end - start
            self.divergence.record_stall_span(start, stall_end)
            if probe is not None:
                probe.on_stall_span(start, stall_end, self._stall_cause)
        if stop > stall_end:
            self.stats.idle_cycles += stop - stall_end
            self.divergence.record_idle_span(stall_end, stop)
            if probe is not None:
                probe.on_idle_span(stall_end, stop, self._idle_cause())

    def _idle_cause(self) -> str:
        """Attribute an idle (no warp ready) cycle to its dominant cause.

        Probe path only. Priority: a warp awaiting DRAM explains the wait
        best (memory-bound), else pipeline latency holds the issue port,
        else every resident warp is blocked at a barrier; with no resident
        warps the SM is drained (admission-starved or finished).
        """
        has_pipe = False
        has_barrier = False
        for warp in self.warps:
            if warp.status == BLOCKED:
                has_barrier = True
            elif warp.wait_kind == WAIT_DRAM:
                return IDLE_DRAM_PENDING
            else:
                has_pipe = True
        if has_pipe:
            return IDLE_ISSUE_PORT
        if has_barrier:
            return IDLE_BARRIER
        return IDLE_DRAINED

    def _select_warp(self, cycle: int) -> Warp | None:
        """Round-robin pick starting at ``self._rr`` (two-range scan)."""
        warps = self.warps
        count = len(warps)
        if count == 0:
            return None
        rr = self._rr
        for index in range(rr, count):
            warp = warps[index]
            if warp.status == READY and warp.ready_at <= cycle:
                self._rr = index + 1 if index + 1 < count else 0
                return warp
        for index in range(rr):
            warp = warps[index]
            if warp.status == READY and warp.ready_at <= cycle:
                self._rr = index + 1 if index + 1 < count else 0
                return warp
        return None

    def _issue(self, warp: Warp, cycle: int) -> None:
        result = execute(warp, self.machine)
        stats = self.stats
        stats.issued_instructions += 1
        active = result.active
        stats.committed_thread_instructions += active
        self.divergence.record_issue(cycle, active)
        kind = result.kind
        probe = self.probe
        if probe is not None:
            probe.on_issue(cycle, active, kind)
        warp.ready_at = ready_cycle(result, cycle, self.config, self.dram)
        if probe is not None:
            warp.wait_kind = WAIT_DRAM if kind == OFFCHIP else WAIT_PIPE
        if result.simple:
            return  # a cached ALU/CONTROL outcome: latency is its only effect
        if kind == ONCHIP:
            penalty = result.conflict_penalty
            if penalty:
                self.stall_until = max(self.stall_until, cycle + 1 + penalty)
                stats.bank_conflict_cycles += penalty
                if probe is not None:
                    self._stall_cause = STALL_BANK_CONFLICT
            if result.is_store:
                stats.onchip_write_words += result.onchip_words
            else:
                stats.onchip_read_words += result.onchip_words
        elif kind == SPAWN:
            if self.spawn_unit is None:
                raise SchedulingError(
                    "spawn instruction executed without spawn hardware "
                    "(enable config.spawn.enabled)")
            if self._convert_uniform_spawn_to_branch(warp, result):
                return
            request = result.spawn
            penalty = self.spawn_unit.spawn(request.kernel_name,
                                            request.pointers)
            self._admission_dirty = True  # pool/FIFO state changed
            stats.spawn_instructions += 1
            stats.threads_spawned += int(request.pointers.size)
            stats.onchip_write_words += int(request.pointers.size)
            if probe is not None:
                probe.on_spawn(cycle, request.kernel_name,
                               int(request.pointers.size))
            if penalty:
                self.stall_until = max(self.stall_until, cycle + 1 + penalty)
                stats.bank_conflict_cycles += penalty
                if probe is not None:
                    self._stall_cause = STALL_SPAWN_CONFLICT
            stats.full_warps_formed = self.spawn_unit.full_warps_formed
        elif kind == BARRIER:
            self._arrive_at_barrier(warp, cycle)
        stats.rays_completed += result.completions
        if result.exited_lanes:
            stats.threads_exited += result.exited_lanes
        if result.freed_data_addresses.size and self.spawn_unit is not None:
            self.spawn_unit.free_data_addresses(result.freed_data_addresses)
            self._admission_dirty = True  # data slots returned
        if result.warp_finished:
            self._retire_warp(warp, cycle)

    def record_thread_commits(self, warp: Warp) -> None:
        """Fold a warp's per-lane commit counts into per-thread totals.

        Only launch-time threads (non-negative tids) are recorded; they
        drive the MIMD-theoretical model of the original scalar algorithm.
        """
        recorded = (warp.tids >= 0) & (warp.lane_commits > 0)
        for tid, count in zip(warp.tids[recorded].tolist(),
                              warp.lane_commits[recorded].tolist()):
            self.thread_commits[tid] = self.thread_commits.get(tid, 0) + count

    def _arrive_at_barrier(self, warp: Warp, cycle: int) -> None:
        """Block-wide barrier: stall until every live warp of the block
        arrives (paper §IX future work; block scheduling only, since warp
        scheduling may split a block across scheduling slots)."""
        block_id = self._block_of_warp.get(warp.warp_id)
        if block_id is None:
            raise SchedulingError(
                "bar requires block scheduling (thread scheduling has no "
                "synchronization support; paper §VI)")
        waiting = self._barriers.setdefault(block_id, [])
        waiting.append(warp)
        warp.status = BLOCKED
        self._release_barrier_if_complete(block_id, cycle)

    def _release_barrier_if_complete(self, block_id: int, cycle: int) -> None:
        """Wake the block's barrier waiters once every live warp of the
        block has arrived (an arrival or a sibling's exit can complete
        it)."""
        waiting = self._barriers[block_id]
        if len(waiting) == self._block_live.get(block_id, 0):
            for blocked in waiting:
                blocked.status = READY
                blocked.ready_at = cycle + 1
                blocked.wait_kind = WAIT_PIPE
            del self._barriers[block_id]

    def _convert_uniform_spawn_to_branch(self, warp: Warp, result) -> bool:
        """Paper §IX future work: when every live thread of a warp spawns
        to the same µ-kernel, branch there instead of creating children.

        The warp jumps straight to the µ-kernel entry (skipping its own
        exit); since the state was just saved and ``spawnMemAddr`` still
        resolves to the same thread-data slots, the µ-kernel prologue
        reloads correctly. Only dynamic warps qualify — launch warps hold
        a direct data-slot pointer in ``spawnMemAddr``, which the child
        prologue's extra indirection would misinterpret — and only when no
        other control path is pending on the SIMT stack.
        """
        if self.config.spawn.spawn_when_uniform:
            return False  # naïve mode: always spawn (the paper's default)
        if not warp.is_dynamic or warp.stack.depth != 1:
            return False
        request = result.spawn
        if request.pointers.size != warp.active_count:
            return False
        # Only fully-populated warps skip the spawn: a full warp gains
        # nothing from re-forming, while a partial warp must still spawn
        # so its threads can regroup with others into a full warp.
        if warp.active_count != self.config.warp_size:
            return False
        # Continue in place: undo the spawned flag (no children created)
        # and redirect the whole warp to the µ-kernel entry.
        warp.spawned_flag[warp.active_mask()] = False
        warp.stack.top.pc = request.target_pc
        self.stats.uniform_spawn_branches += 1
        return True

    def _retire_warp(self, warp: Warp, cycle: int) -> None:
        self._admission_dirty = True  # slot, block and region state change
        if self.probe is not None:
            self.probe.on_warp_retire(cycle, warp)
        self.record_thread_commits(warp)
        if warp.formation_region >= 0 and self.spawn_unit is not None:
            self.spawn_unit.release_region(warp.formation_region)
        self.warps.remove(warp)
        self._rr = 0 if not self.warps else self._rr % len(self.warps)
        self.stats.warps_completed += 1
        block_id = self._block_of_warp.pop(warp.warp_id, None)
        if block_id is not None:
            self._block_live[block_id] -= 1
            if self._block_live[block_id] == 0:
                del self._block_live[block_id]
            elif block_id in self._barriers:
                self._release_barrier_if_complete(block_id, cycle)
        self.try_schedule(cycle)
