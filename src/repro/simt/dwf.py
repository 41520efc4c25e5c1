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

Implementation note: the core keeps one persistent :class:`Warp` that is
``num_threads`` lanes wide, and its ``regs`` and ``preds`` *are* the DWF
register file (thread ``t`` lives in lane ``t``). Each issue installs a
one-entry SIMT stack at the formed group's PC, with the group as its mask,
and runs the instruction's unchanged compiled plan on that lane view. The
plans' masked paths touch only the group's lanes, so nothing is copied and
no warp is built per instruction. Each thread's next PC comes back off the
stack: from the single entry when the group stayed together, from every
entry's mask when a branch split it or an ``exit`` retired part of it.

One visible consequence: ``SREG.ntid`` reads ``num_threads``, the width of
the lane view, rather than the size of the issue group. No kernel or fuzzer
program reads it.

Only the grouping is DWF's own. The plan lookup
(:meth:`~repro.simt.executor.MachineState.plan_at`), the latency rule
(:func:`~repro.simt.executor.ready_cycle`) and the run loop
(:func:`~repro.simt.gpu.run_core`, deadlock horizon included) are the
ones a one-SM GPU uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GPUConfig
from repro.errors import ConfigError, SchedulingError
from repro.isa.cfg import RECONV_AT_EXIT
from repro.simt.banked import BankedMemory
from repro.simt.executor import BARRIER, SPAWN, MachineState, ready_cycle
from repro.simt.gpu import run_core
from repro.simt.memory import DRAM, GlobalMemory
from repro.simt.stack import StackEntry
from repro.simt.stats import DivergenceSampler, SMStats
from repro.simt.warp import READY, Warp

#: ``ready_at`` of a retired thread: past every cycle, so the ready test
#: alone keeps it out of the vote and out of ``next_event_time``.
_RETIRED_AT = np.iinfo(np.int64).max


@dataclass
class DWFResult:
    """Aggregate results of a DWF simulation."""

    cycles: int
    stats: SMStats
    divergence: DivergenceSampler
    rays_completed: int
    #: Lanes per issue group: the denominator of SIMT efficiency.
    warp_size: int

    @property
    def ipc(self) -> float:
        return self.stats.committed_thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def simt_efficiency(self) -> float:
        issued = self.stats.issued_instructions
        if not issued:
            return 0.0
        return (self.stats.committed_thread_instructions
                / (issued * self.warp_size))

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
                 num_threads: int, shared_mem: BankedMemory,
                 divergence_window: int = 1000):
        if num_threads <= 0:
            raise ConfigError("DWF core needs at least one thread")
        self.config = config
        self.machine = machine
        self.dram = dram
        # No spawn hardware: spawn-space accesses go to shared memory, as
        # on an SM without it.
        self.warp = Warp(warp_id=0, warp_size=num_threads, num_regs=num_regs,
                         tids=np.arange(num_threads, dtype=np.int64),
                         active_at_launch=np.ones(num_threads, dtype=bool),
                         shared_mem=shared_mem, spawn_mem=shared_mem)
        self.pcs = np.full(num_threads, entry_pc, dtype=np.int64)
        self.ready_at = np.zeros(num_threads, dtype=np.int64)
        self.live = num_threads
        self.stats = SMStats()
        self.stats.threads_launched = num_threads
        self.divergence = DivergenceSampler(warp_size=config.warp_size,
                                            window=divergence_window)

    @property
    def done(self) -> bool:
        return self.live == 0

    def next_event_time(self, now: int) -> int | None:
        """Earliest cycle >= ``now`` a thread becomes ready (fast-forward).

        Every live thread's wake-up is its ``ready_at`` (set at issue
        time from ALU/memory latency); DWF has no stalls, barriers, or
        admission queues, so nothing else can change core state.
        """
        if self.live == 0:
            return None
        return max(int(self.ready_at.min()), now)

    def credit_skipped(self, start: int, stop: int) -> None:
        """Credit the fast-forwarded span [start, stop) as idle cycles."""
        if stop <= start or self.live == 0:
            return
        self.stats.cycles += stop - start
        self.stats.idle_cycles += stop - start
        self.divergence.record_idle_span(start, stop)

    def _select_group(self, cycle: int) -> np.ndarray | None:
        """Majority-PC policy: the ready PC with the most threads wins.

        Ties go to the lowest PC, and a group holds at most ``warp_size``
        threads, the lowest thread ids first.
        """
        ready = (self.ready_at <= cycle).nonzero()[0]
        if not ready.size:
            return None
        ready_pcs = self.pcs[ready]
        best_pc = np.bincount(ready_pcs).argmax()
        return ready[ready_pcs == best_pc][:self.config.warp_size]

    def step(self, cycle: int) -> bool:
        if self.live == 0:
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
        warp = self.warp
        pcs = self.pcs
        size = group.size
        pc = int(pcs[group[0]])
        mask = np.zeros(warp.warp_size, dtype=bool)
        mask[group] = True
        stack = warp.stack
        top = StackEntry(pc, mask, RECONV_AT_EXIT, size)
        stack.entries = [top]
        stack.pushes = 1
        stack.pops = 0
        warp.status = READY  # an exit that retired a whole group FINISHED it
        # DWF reads none of ``execute``'s per-warp bookkeeping (issue count,
        # per-lane commit batching), so it calls the PC's plan directly.
        machine = self.machine
        result = machine.plan_at(pc)(warp, top)
        if result.kind in (SPAWN, BARRIER):
            raise SchedulingError(
                f"DWF does not support {machine.program[pc].op} "
                f"instructions (pc={pc}); run the traditional kernel")
        self.ready_at[group] = ready_cycle(result, cycle, self.config,
                                           self.dram)
        entries = stack.entries
        if len(entries) == 1 and entries[0].count == size:
            pcs[group] = entries[0].pc
        else:
            # A branch split the group or an exit retired part of it:
            # every surviving thread sits in exactly one stack entry.
            survivors = np.zeros(warp.warp_size, dtype=bool)
            for entry in entries:
                pcs[entry.mask] = entry.pc
                survivors |= entry.mask
            retired = group[~survivors[group]]
            if retired.size:
                self.ready_at[retired] = _RETIRED_AT
                self.live -= int(retired.size)
                self.stats.threads_exited += int(retired.size)
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
        reconv_table=reconvergence_table(program))
    machine.snapshot = snapshot
    dram = DRAM(config.memory)
    entry_pc = program.kernels[entry_kernel].entry_pc
    num_regs = program.max_register_index() + 1
    core = DWFCore(config, machine, dram, entry_pc=entry_pc,
                   num_regs=num_regs, num_threads=num_threads,
                   shared_mem=shared, divergence_window=divergence_window)
    budget = max_cycles if max_cycles is not None else config.max_cycles
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cycle = run_core(core, 0, budget)
    core.stats.dram_read_bytes = dram.read_bytes
    core.stats.dram_write_bytes = dram.write_bytes
    core.stats.dram_transactions = dram.transactions
    return DWFResult(cycles=cycle, stats=core.stats,
                     divergence=core.divergence,
                     rays_completed=global_mem.rays_completed,
                     warp_size=config.warp_size)
