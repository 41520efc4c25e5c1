"""Dynamic Warp Formation baseline (Fung et al., MICRO 2007).

The paper's closest related work: instead of spawning new threads, DWF
regroups *existing* threads into fresh warps whenever control flow splits
them — threads with equal next-PC are gathered into one issue group each
cycle (majority-PC policy). No code changes and no spawn memory are
needed, but the register file must support thread migration.

This model is the *idealized lane-flexible* variant: threads may occupy
any lane of a formed group (Fung's crossbar design), and regrouping is
free. It therefore upper-bounds DWF — useful as the ablation DESIGN.md
calls for (how much of the µ-kernel win could regrouping alone recover?).

Implementation note: execution reuses the lockstep executor by gathering
the group's register columns into a transient :class:`Warp`, executing one
instruction, then scattering results back and reading each thread's next
PC off the transient SIMT stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GPUConfig
from repro.errors import ConfigError, SchedulingError
from repro.simt.banked import BankedMemory
from repro.simt.executor import ALU, CONTROL, OFFCHIP, ONCHIP, MachineState, execute
from repro.simt.memory import DRAM, GlobalMemory
from repro.simt.stats import DivergenceSampler, SMStats
from repro.simt.warp import NUM_PREDICATES, Warp


@dataclass
class DWFResult:
    """Aggregate results of a DWF simulation."""

    cycles: int
    stats: SMStats
    divergence: DivergenceSampler
    rays_completed: int

    @property
    def ipc(self) -> float:
        return self.stats.committed_thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def simt_efficiency(self) -> float:
        issued = self.stats.issued_instructions
        if not issued:
            return 0.0
        return (self.stats.committed_thread_instructions
                / (issued * self._warp_size))

    _warp_size: int = 32

    def rays_per_second(self, config: GPUConfig,
                        scale_to_sms: int | None = None) -> float:
        if self.cycles == 0:
            return 0.0
        seconds = self.cycles / (config.clock_ghz * 1e9)
        rays = self.rays_completed / seconds
        if scale_to_sms is not None:
            rays *= scale_to_sms / config.num_sms
        return rays


class DWFCore:
    """One SM executing with idealized dynamic warp formation."""

    def __init__(self, config: GPUConfig, machine: MachineState,
                 dram: DRAM, *, entry_pc: int, num_regs: int,
                 num_threads: int, divergence_window: int = 1000):
        if num_threads <= 0:
            raise ConfigError("DWF core needs at least one thread")
        self.config = config
        self.machine = machine
        self.dram = dram
        self.num_regs = num_regs
        self.regs = np.zeros((num_regs, num_threads))
        self.preds = np.zeros((NUM_PREDICATES, num_threads), dtype=bool)
        self.pcs = np.full(num_threads, entry_pc, dtype=np.int64)
        self.ready_at = np.zeros(num_threads, dtype=np.int64)
        self.alive = np.ones(num_threads, dtype=bool)
        self.tids = np.arange(num_threads, dtype=np.int64)
        self.stats = SMStats()
        self.stats.threads_launched = num_threads
        self.divergence = DivergenceSampler(warp_size=config.warp_size,
                                            window=divergence_window)

    @property
    def done(self) -> bool:
        return not bool(self.alive.any())

    def next_event_time(self, now: int) -> int | None:
        """Earliest cycle >= ``now`` a thread becomes ready (fast-forward).

        Every alive thread's wake-up is its ``ready_at`` (set at issue
        time from ALU/memory latency); DWF has no stalls, barriers, or
        admission queues, so nothing else can change core state.
        """
        if self.done:
            return None
        earliest = int(self.ready_at[self.alive].min())
        return max(earliest, now)

    def credit_skipped(self, start: int, stop: int) -> None:
        """Credit the fast-forwarded span [start, stop) as idle cycles."""
        if stop <= start or self.done:
            return
        self.stats.cycles += stop - start
        self.stats.idle_cycles += stop - start
        self.divergence.record_idle_span(start, stop)

    def _select_group(self, cycle: int) -> np.ndarray | None:
        """Majority-PC policy: the ready PC with the most threads wins."""
        ready = self.alive & (self.ready_at <= cycle)
        if not ready.any():
            return None
        ready_pcs = self.pcs[ready]
        values, counts = np.unique(ready_pcs, return_counts=True)
        best_pc = values[int(np.argmax(counts))]
        members = np.nonzero(ready & (self.pcs == best_pc))[0]
        return members[:self.config.warp_size]

    def step(self, cycle: int) -> bool:
        if self.done:
            return False
        self.stats.cycles += 1
        group = self._select_group(cycle)
        if group is None:
            self.stats.idle_cycles += 1
            self.divergence.record_idle(cycle)
            return False
        self._issue(group, cycle)
        return True

    def _issue(self, group: np.ndarray, cycle: int) -> None:
        size = group.size
        warp = Warp.launch(0, size, self.num_regs,
                           int(self.pcs[group[0]]), self.tids[group],
                           np.ones(size, dtype=bool))
        warp.regs[:, :] = self.regs[:, group]
        warp.preds[:, :] = self.preds[:, group]
        result = execute(warp, self.machine)
        self.regs[:, group] = warp.regs
        self.preds[:, group] = warp.preds
        # Scatter next PCs: every surviving lane sits in some stack entry.
        survivors = np.zeros(size, dtype=bool)
        for entry in warp.stack.entries:
            lanes = np.nonzero(entry.mask)[0]
            self.pcs[group[lanes]] = entry.pc
            survivors[lanes] = True
        retired = group[~survivors]
        if retired.size:
            self.alive[retired] = False
            self.stats.threads_exited += int(retired.size)
        config = self.config
        if result.kind in (ALU, CONTROL):
            ready = cycle + config.alu_latency
        elif result.kind == ONCHIP:
            ready = cycle + config.onchip_latency + result.conflict_penalty
        elif result.kind == OFFCHIP:
            if result.addresses is None or result.addresses.size == 0:
                ready = cycle + config.alu_latency
            else:
                ready = (self.dram.access(cycle, result.addresses,
                                          result.is_store)
                         + result.conflict_penalty)
        else:
            raise SchedulingError("DWF does not support spawn instructions; "
                                  "run the traditional kernel")
        self.ready_at[group] = ready
        self.stats.issued_instructions += 1
        self.stats.committed_thread_instructions += result.active
        self.stats.rays_completed += result.completions
        self.divergence.record_issue(cycle, result.active)


def run_dwf(config: GPUConfig, program, entry_kernel: str,
            global_mem: GlobalMemory, const_mem: np.ndarray,
            num_threads: int, *, max_cycles: int | None = None,
            divergence_window: int = 1000,
            shared_mem: BankedMemory | None = None,
            snapshot=None) -> DWFResult:
    """Simulate ``num_threads`` threads on one DWF-enabled SM.

    Thread count should match what one SM of the baseline machine would
    hold (occupancy x warp slots); it is a parameter so ablations can vary
    residency independently. ``shared_mem`` substitutes the internally
    built on-chip memory and ``snapshot`` attaches a
    :class:`repro.simt.snapshot.SnapshotRecorder` — both exist so the
    conformance fuzzer can compare DWF's shared-memory image and exit
    register files against the other models.
    """
    from repro.isa.cfg import reconvergence_table

    shared = shared_mem if shared_mem is not None else BankedMemory(
        config.onchip_memory_bytes // 4, model_conflicts=False)
    machine = MachineState(
        program=program, global_mem=global_mem,
        const_mem=np.asarray(const_mem, dtype=np.float64),
        shared_mem=shared, spawn_mem=shared,
        reconv_table=reconvergence_table(program))
    machine.snapshot = snapshot
    dram = DRAM(config.memory)
    entry_pc = program.kernels[entry_kernel].entry_pc
    num_regs = program.max_register_index() + 1
    core = DWFCore(config, machine, dram, entry_pc=entry_pc,
                   num_regs=num_regs, num_threads=num_threads,
                   divergence_window=divergence_window)
    budget = max_cycles if max_cycles is not None else config.max_cycles
    fast = config.fast_forward
    cycle = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while cycle < budget and not core.done:
            progressed = core.step(cycle)
            cycle += 1
            if fast and not progressed and cycle < budget and not core.done:
                target = core.next_event_time(cycle)
                target = budget if target is None else min(target, budget)
                if target > cycle:
                    core.credit_skipped(cycle, target)
                    cycle = target
    core.stats.dram_read_bytes = dram.read_bytes
    core.stats.dram_write_bytes = dram.write_bytes
    result = DWFResult(cycles=cycle, stats=core.stats,
                       divergence=core.divergence,
                       rays_completed=global_mem.rays_completed)
    result._warp_size = config.warp_size
    return result
