"""Top-level GPU: SM array, shared memory partition, run loop.

The GPU builds one :class:`~repro.simt.executor.MachineState` (program,
global and constant memory, compiled plans) that every SM shares, gives
each SM its own on-chip memories and spawn unit, distributes launch-time
thread blocks round-robin across SMs (as the paper's hardware does), and
advances all SMs cycle by cycle until every thread — including dynamically
spawned ones — has retired, or until ``config.max_cycles`` (the paper
simulates the first 300k cycles only).
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import BYTES_PER_WORD, GPUConfig
from repro.errors import ConfigError, SchedulingError, did_you_mean
from repro.isa.cfg import reconvergence_table
from repro.isa.program import KernelInfo, Program
from repro.simt.banked import BankedMemory
from repro.simt.executor import MachineState
from repro.simt.memory import DRAM, GlobalMemory
from repro.simt.sm import SM, LaunchBlock
from repro.simt.spawn import SpawnUnit
from repro.simt.stats import DivergenceSampler, SMStats

#: Abort threshold: cycles without any issue across the whole machine.
DEADLOCK_HORIZON = 100_000

#: Schema version of :meth:`RunStats.to_dict` documents.
STATS_VERSION = 1


def deadlock_error(cycle: int) -> SchedulingError:
    """The diagnosis every run loop raises at ``cycle`` once no instruction
    has issued for :data:`DEADLOCK_HORIZON` cycles."""
    return SchedulingError(
        f"no instruction issued for {DEADLOCK_HORIZON} cycles "
        f"(cycle {cycle}); simulation is deadlocked", cycle=cycle)


def run_core(core, cycle: int, budget: int) -> int:
    """Step one core from ``cycle`` until it is done or the clock reaches
    ``budget``; returns the final cycle.

    The single-core run loop of a one-SM :class:`GPU` and of
    :func:`repro.simt.dwf.run_dwf`: ``core`` is an :class:`SM` or a
    :class:`~repro.simt.dwf.DWFCore`. On the fast clock a cycle without an
    issue jumps straight to the core's next event, capped at the budget and
    at the deadlock horizon so the diagnosis fires at the same cycle as on
    the exact clock. The skipped span is credited through
    ``core.credit_skipped``, which keeps every statistic bit-identical to
    ticking cycle by cycle.
    """
    fast = core.config.fast_forward
    last_progress = cycle
    while cycle < budget:
        progressed = core.step(cycle)
        if progressed:
            last_progress = cycle
        elif core.done:
            break
        elif cycle - last_progress > DEADLOCK_HORIZON:
            raise deadlock_error(cycle)
        cycle += 1
        if fast and not progressed and cycle < budget:
            target = min(budget, last_progress + DEADLOCK_HORIZON + 1)
            event = core.next_event_time(cycle)
            if event is not None and event < target:
                target = event
            if target > cycle:
                core.credit_skipped(cycle, target)
                cycle = target
    return cycle


@dataclass
class LaunchSpec:
    """Everything needed to launch a grid on the machine."""

    program: Program
    entry_kernel: str
    num_threads: int
    registers_per_thread: int
    block_size: int = 64
    state_words: int = 0
    shared_bytes_per_thread: int = 0

    def __post_init__(self) -> None:
        if self.entry_kernel not in self.program.kernels:
            raise ConfigError(f"entry kernel {self.entry_kernel!r} not in program")
        if self.num_threads <= 0:
            raise ConfigError("num_threads must be positive")
        if self.registers_per_thread <= 0:
            raise ConfigError("registers_per_thread must be positive")
        if self.block_size <= 0:
            raise ConfigError("block_size must be positive")
        if self.state_words < 0:
            raise ConfigError("state_words must be non-negative")
        if self.shared_bytes_per_thread < 0:
            raise ConfigError("shared_bytes_per_thread must be non-negative")

    def replace(self, **changes) -> "LaunchSpec":
        """Validated copy: unknown field names raise :class:`ConfigError`
        with a close-match suggestion (``__post_init__`` re-runs, so the
        copy is checked like a fresh spec)."""
        valid = {f.name for f in dataclasses.fields(self)}
        for key in changes:
            if key not in valid:
                raise ConfigError(f"unknown LaunchSpec field {key!r}."
                                  f"{did_you_mean(key, valid)}")
        return dataclasses.replace(self, **changes)

    @property
    def entry_pc(self) -> int:
        return self.program.kernels[self.entry_kernel].entry_pc

    def spawn_kernels(self) -> list[KernelInfo]:
        return self.program.dynamic_spawn_targets()


@dataclass
class RunStats:
    """Aggregated results of one simulation run."""

    config: GPUConfig
    cycles: int
    sm_stats: SMStats
    divergence: DivergenceSampler
    rays_completed: int
    dram_read_bytes: int
    dram_write_bytes: int
    dram_transactions: int
    per_sm: list[SMStats] = field(default_factory=list)
    thread_commits: dict[int, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Machine-wide committed thread-instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.sm_stats.committed_thread_instructions / self.cycles

    @property
    def simt_efficiency(self) -> float:
        """Mean fraction of lanes active per issued warp instruction."""
        issued = self.sm_stats.issued_instructions
        if issued == 0:
            return 0.0
        return (self.sm_stats.committed_thread_instructions
                / (issued * self.config.warp_size))

    def rays_per_second(self, scale_to_sms: int | None = None) -> float:
        """Rays/s at the configured clock, optionally scaled to a larger
        machine (SMs are independent, so per-SM throughput scales
        linearly; see DESIGN.md)."""
        if self.cycles == 0:
            return 0.0
        seconds = self.cycles / (self.config.clock_ghz * 1e9)
        rays = self.rays_completed / seconds
        if scale_to_sms is not None:
            rays *= scale_to_sms / self.config.num_sms
        return rays

    def to_dict(self) -> dict:
        """Versioned, JSON-compatible snapshot of the whole result.

        The inverse is :meth:`from_dict`. Pickling round-trips through the
        same path (``__reduce__``), so sweep workers, the result cache and
        the exporters all exercise one serialization schema — a field
        dropped here shows up as a golden-digest mismatch, not as silent
        data loss.
        """
        return {
            "version": STATS_VERSION,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "sm": self.sm_stats.to_dict(),
            "per_sm": [stats.to_dict() for stats in self.per_sm],
            "divergence": self.divergence.to_dict(),
            "rays_completed": self.rays_completed,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "dram_transactions": self.dram_transactions,
            "thread_commits": sorted(
                [int(tid), int(count)]
                for tid, count in self.thread_commits.items()),
        }

    @staticmethod
    def from_dict(data: dict) -> "RunStats":
        version = data.get("version")
        if version != STATS_VERSION:
            raise ConfigError(f"unsupported RunStats document version "
                              f"{version!r} (this build reads version "
                              f"{STATS_VERSION})")
        return RunStats(
            config=GPUConfig.from_dict(data["config"]),
            cycles=data["cycles"],
            sm_stats=SMStats.from_dict(data["sm"]),
            divergence=DivergenceSampler.from_dict(data["divergence"]),
            rays_completed=data["rays_completed"],
            dram_read_bytes=data["dram_read_bytes"],
            dram_write_bytes=data["dram_write_bytes"],
            dram_transactions=data["dram_transactions"],
            per_sm=[SMStats.from_dict(stats) for stats in data["per_sm"]],
            thread_commits={int(tid): int(count)
                            for tid, count in data["thread_commits"]})

    def __reduce__(self):
        return (RunStats.from_dict, (self.to_dict(),))


class GPU:
    """The simulated machine."""

    def __init__(self, config: GPUConfig, launch: LaunchSpec,
                 global_mem: GlobalMemory, const_mem: np.ndarray | None = None,
                 divergence_window: int | None = None, trace=None):
        config.validate()
        self.config = config
        self.launch = launch
        self.global_mem = global_mem
        self.const_mem = (np.zeros(1) if const_mem is None
                          else np.asarray(const_mem, dtype=np.float64))
        self.dram = DRAM(config.memory)
        #: Optional :class:`repro.obs.TraceSession`; probes fan out to the
        #: SMs, spawn units and DRAM below. None means zero instrumentation
        #: overhead (every hook sits behind an ``is not None`` check).
        self.trace = trace
        if trace is not None:
            trace.configure(config)
            self.dram.probe = trace
        self.program = launch.program
        #: The one :class:`MachineState` every SM shares: each PC of the
        #: launch is compiled once, however many SMs run it.
        self.machine = MachineState(
            program=self.program, global_mem=global_mem,
            const_mem=self.const_mem,
            reconv_table=reconvergence_table(self.program))
        max_warps, warps_per_block, max_blocks = self._occupancy()
        if max_warps <= 0:
            raise ConfigError("kernel register requirements allow zero warps")
        layout = self._spawn_layout(max_warps)
        shape = dict(
            entry_pc=launch.entry_pc,
            num_regs=max(self.program.max_register_index() + 1,
                         launch.registers_per_thread),
            max_warps=max_warps, warps_per_block=warps_per_block,
            max_blocks=max_blocks,
            divergence_window=(divergence_window
                               or max(1, config.max_cycles // 100)))
        self.sms = [self._build_sm(sm_id, layout, shape)
                    for sm_id in range(config.num_sms)]
        self._distribute_blocks()
        self.cycle = 0

    # -- construction ----------------------------------------------------------

    def _occupancy(self) -> tuple[int, int, int]:
        """(max_warps, warps_per_block, max_blocks) for this launch."""
        config = self.config
        launch = self.launch
        warp_size = config.warp_size
        warps_by_threads = config.max_threads_per_sm // warp_size
        regs_per_warp = launch.registers_per_thread * warp_size
        warps_by_regs = config.registers_per_sm // regs_per_warp
        warps_per_block = max(1, math.ceil(launch.block_size / warp_size))
        if config.scheduling == "block":
            blocks_by_threads = warps_by_threads // warps_per_block
            blocks_by_regs = warps_by_regs // warps_per_block
            max_blocks = min(config.max_blocks_per_sm, blocks_by_threads,
                             blocks_by_regs)
            return max_blocks * warps_per_block, warps_per_block, max_blocks
        max_warps = min(warps_by_threads, warps_by_regs)
        return max_warps, warps_per_block, config.max_blocks_per_sm

    def _spawn_layout(self, max_warps: int) -> dict | None:
        """Size the spawn memory space (paper §IV-A) or None if disabled."""
        config = self.config
        launch = self.launch
        if not config.spawn.enabled:
            return None
        spawn_kernels = launch.spawn_kernels()
        if not spawn_kernels:
            raise ConfigError("spawn enabled but the program has no spawn "
                              "targets")
        state_words = max([launch.state_words]
                          + [k.state_words for k in spawn_kernels])
        if state_words <= 0:
            raise ConfigError("spawn requires a positive state size")
        threads_per_sm = max_warps * config.warp_size
        data_words = threads_per_sm * state_words
        # size = NumThreads + (SpawnLocations - 1) * WarpSize, doubled (§IV-A2).
        formation_words = 2 * (threads_per_sm
                               + (len(spawn_kernels) - 1) * config.warp_size)
        # Round the formation region to whole warps for the allocator.
        formation_words = math.ceil(formation_words / config.warp_size
                                    ) * config.warp_size
        total_bytes = (data_words + formation_words) * BYTES_PER_WORD
        if total_bytes > config.onchip_memory_bytes:
            raise ConfigError(
                f"spawn memory ({total_bytes} B) exceeds on-chip memory "
                f"({config.onchip_memory_bytes} B); the paper would spill "
                f"to device memory — reduce threads or state size")
        return {
            "state_words": state_words,
            "num_data_slots": threads_per_sm,
            "data_words": data_words,
            "formation_words": formation_words,
            "spawn_kernels": spawn_kernels,
            "total_bytes": total_bytes,
        }

    def _build_sm(self, sm_id: int, layout: dict | None, shape: dict) -> SM:
        """One SM on the shared machine state, with its own on-chip
        memories, spawn unit and probe; ``shape`` holds the SM arguments
        every SM of the launch has in common."""
        config = self.config
        shared_words = config.onchip_memory_bytes // BYTES_PER_WORD
        shared_mem = BankedMemory(max(shared_words, 1),
                                  num_banks=config.spawn.num_banks,
                                  model_conflicts=False)
        spawn_unit = None
        if layout is not None:
            spawn_words = layout["data_words"] + layout["formation_words"]
            spawn_mem = BankedMemory(
                spawn_words, num_banks=config.spawn.num_banks,
                model_conflicts=config.spawn.bank_conflicts)
            spawn_unit = SpawnUnit(
                spawn_mem, warp_size=config.warp_size,
                data_base=0, num_data_slots=layout["num_data_slots"],
                state_words=layout["state_words"],
                formation_base=layout["data_words"],
                formation_words=layout["formation_words"],
                kernels=layout["spawn_kernels"])
        probe = None if self.trace is None else self.trace.sm_probe(sm_id)
        return SM(sm_id, config, self.machine, self.dram,
                  shared_mem=shared_mem, spawn_unit=spawn_unit, probe=probe,
                  **shape)

    def _distribute_blocks(self) -> None:
        """Round-robin launch blocks (contiguous thread ids) over SMs."""
        config = self.config
        launch = self.launch
        warp_size = config.warp_size
        block_size = launch.block_size
        num_blocks = math.ceil(launch.num_threads / block_size)
        for block_id in range(num_blocks):
            first = block_id * block_size
            last = min(first + block_size, launch.num_threads)
            block = LaunchBlock(block_id=block_id)
            for warp_first in range(first, last, warp_size):
                warp_last = min(warp_first + warp_size, last)
                tids = np.arange(warp_first, warp_first + warp_size,
                                 dtype=np.int64)
                active = np.zeros(warp_size, dtype=bool)
                active[:warp_last - warp_first] = True
                tids[warp_last - warp_first:] = -1
                block.warps.append((tids, active, warp_last - warp_first))
            self.sms[block_id % len(self.sms)].enqueue_block(block)

    # -- run loop ----------------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> RunStats:
        """Simulate until completion or the cycle budget; returns stats."""
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        # Kernels lean on IEEE semantics (inf - inf, 0 * inf, 1/0) for
        # branch-free hit tests; silence the corresponding numpy warnings
        # for the whole run instead of per instruction.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            try:
                self._run_loop(budget)
            except SchedulingError as error:
                if error.cycle is not None:  # a deadlock stops the clock
                    self.cycle = error.cycle
                raise
        return self.collect_stats()

    def _run_loop(self, budget: int) -> None:
        """Pick the run loop from the SM count and the clock.

        - One SM, either clock: :func:`run_core`, the single-core loop that
          DWF runs too. It has the same visible behaviour as the loops
          below without their per-SM bookkeeping, which on one SM costs
          more than it saves.
        - Several SMs, fast clock: :meth:`_run_heap_loop`, which steps
          only the SMs that can act.
        - Several SMs, exact clock: the per-cycle loop at the end, which
          steps every live SM every cycle. It is the oracle the fast
          clock is checked against.
        """
        if len(self.sms) == 1:
            self.cycle = run_core(self.sms[0], self.cycle, budget)
            return
        if self.config.fast_forward:
            self._run_heap_loop(budget)
            return
        last_progress = self.cycle
        while self.cycle < budget:
            progressed = False
            alive = False
            for sm in self.sms:
                if sm.done:
                    continue
                alive = True
                if sm.step(self.cycle):
                    progressed = True
            if not alive:
                break
            if progressed:
                last_progress = self.cycle
            elif self.cycle - last_progress > DEADLOCK_HORIZON:
                raise deadlock_error(self.cycle)
            self.cycle += 1

    def _run_heap_loop(self, budget: int) -> None:
        """Event-driven multi-SM loop (fast clock, more than one SM).

        A min-heap of ``(wake_cycle, sm_id)`` holds each live SM's next
        event: the clock jumps straight to the heap minimum and steps only
        the SMs due there (in ``sm_id`` order, matching the per-cycle
        loop's iteration order — the shared DRAM model is order
        sensitive). Per-SM skipped spans are credited lazily through
        :meth:`~repro.simt.sm.SM.credit_skipped` the moment the SM next
        steps, so an SM idle for a thousand cycles while a sibling stays
        busy costs one span credit instead of a thousand no-issue steps.
        Wake times are sound for the same reason ``next_event_time`` is:
        nothing outside an SM's own issues can change its schedulable
        state. Budget exit, final ``self.cycle`` and the deadlock
        diagnosis (cycle and message) replicate the per-cycle loop
        exactly.
        """
        if self.cycle >= budget:
            return
        last_progress = self.cycle
        sms = self.sms
        heap: list[tuple[int, int]] = []
        credited: dict[int, int] = {}
        for sm in sms:
            if not sm.done:
                credited[sm.sm_id] = self.cycle
                heap.append((self.cycle, sm.sm_id))
        heapq.heapify(heap)
        while credited:
            cap = min(budget, last_progress + DEADLOCK_HORIZON + 1)
            target = min(heap[0][0], cap) if heap else cap
            if target >= budget:
                for sm_id, start in credited.items():
                    sms[sm_id].credit_skipped(start, budget)
                self.cycle = budget
                return
            progressed = False
            while heap and heap[0][0] <= target:
                sm_id = heapq.heappop(heap)[1]
                sm = sms[sm_id]
                start = credited[sm_id]
                if start < target:
                    sm.credit_skipped(start, target)
                issued = sm.step(target)
                if issued:
                    progressed = True
                if issued and sm._admission_dirty:
                    # The issue re-armed admission (freed slots or formed
                    # warps may admit next cycle): the SM can act at the
                    # very next cycle.
                    wake = target + 1
                else:
                    # Admission is provably blocked until this SM issues
                    # again, so its next event is the earliest warp wake
                    # or stall expiry: sleep until then instead of burning
                    # no-issue steps (latency-bound SMs spend most wakes
                    # here).
                    wake = sm.next_event_time(target + 1)
                credited[sm_id] = target + 1
                if sm.done:
                    del credited[sm_id]
                elif wake is not None:
                    heapq.heappush(heap, (wake, sm_id))
                # A None wake is a quiescent SM: it can never act again,
                # but keeps accruing idle time until budget or deadlock.
            if progressed:
                last_progress = target
            elif target - last_progress > DEADLOCK_HORIZON:
                for sm_id, start in credited.items():
                    sms[sm_id].credit_skipped(start, target + 1)
                raise deadlock_error(target)
            self.cycle = target + 1

    def collect_stats(self) -> RunStats:
        if self.trace is not None:
            self.trace.finalize(self.cycle)  # idempotent
        total = SMStats()
        divergence = DivergenceSampler(
            warp_size=self.config.warp_size,
            window=self.sms[0].divergence.window)
        per_sm = []
        thread_commits: dict[int, int] = {}
        for sm in self.sms:
            total.merge(sm.stats)
            divergence.merge(sm.divergence)
            per_sm.append(sm.stats)
            for warp in sm.warps:  # warps still in flight at the cycle cap
                sm.record_thread_commits(warp)
                warp.lane_commits[:] = 0
            for tid, count in sm.thread_commits.items():
                thread_commits[tid] = thread_commits.get(tid, 0) + count
        total.cycles = self.cycle
        total.dram_read_bytes = self.dram.read_bytes
        total.dram_write_bytes = self.dram.write_bytes
        total.dram_transactions = self.dram.transactions
        return RunStats(
            config=self.config, cycles=self.cycle, sm_stats=total,
            divergence=divergence,
            rays_completed=self.global_mem.rays_completed,
            dram_read_bytes=self.dram.read_bytes,
            dram_write_bytes=self.dram.write_bytes,
            dram_transactions=self.dram.transactions,
            per_sm=per_sm, thread_commits=thread_commits)

    @property
    def done(self) -> bool:
        return all(sm.done for sm in self.sms)
