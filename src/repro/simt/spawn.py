"""Dynamic thread creation hardware: LUT, partial-warp pool, warp FIFO.

Implements paper §IV. Per SM, the spawn memory space is split into:

1. **Thread-data section** — one ``state_words`` slot per residentable
   thread; parents store their state here before spawning and children load
   it back (Example 2). Launch-time threads receive a slot directly in
   ``spawnMemAddr``; a slot is freed when a thread chain ends (a thread
   exits without having spawned).
2. **Warp-formation section** — consecutive words holding each forming
   warp's per-thread metadata (the pointer to the thread-data slot). The
   PC-indexed LUT tracks, per µ-kernel, the current warp's write address,
   an overflow address for the next warp, and a thread counter. When the
   counter crosses the warp size, the finished warp's address is pushed
   into the new-warp FIFO (§IV-C).

Scheduling (§IV-D): dynamic warps take priority over unscheduled launch
threads; partially-formed warps are flushed (lowest µ-kernel PC first) only
when the scheduler has nothing else left to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulingError
from repro.simt.banked import BankedMemory


@dataclass
class FormedWarp:
    """A dynamically formed warp awaiting a free warp slot."""

    kernel_name: str
    entry_pc: int
    formation_addresses: np.ndarray  # per-thread metadata address
    data_pointers: np.ndarray        # per-thread thread-data slot pointer
    region: int = -1                 # formation region owned until retirement
    is_partial: bool = False

    @property
    def num_threads(self) -> int:
        return int(self.formation_addresses.size)


@dataclass
class _LUTEntry:
    """One line of the spawn LUT (paper Figure 5)."""

    kernel_name: str
    entry_pc: int
    current_addr: int     # first memory address: current warp under formation
    overflow_addr: int    # second memory address: next warp's base
    count: int = 0        # threads already in the partial warp
    pointers: list[int] = field(default_factory=list)
    addresses: list[int] = field(default_factory=list)


class SpawnUnit:
    """Per-SM dynamic thread creation and warp formation hardware.

    Scheduling note: every state change here that can unblock admission
    (a spawn filling a formation region, freed data slots, a flushed
    partial pool) happens inside an owning SM's issue or retirement, and
    those paths re-arm ``SM._admission_dirty``. The multi-SM heap loop
    relies on that: an SM with a clean admission flag can sleep until its
    next warp wake without polling the spawn unit."""

    def __init__(self, spawn_mem: BankedMemory, *, warp_size: int,
                 data_base: int, num_data_slots: int, state_words: int,
                 formation_base: int, formation_words: int,
                 kernels: list):
        """``kernels``: KernelInfo list of all spawnable µ-kernels
        (LUT entries, ordered by entry PC as the flush policy requires)."""
        if num_data_slots <= 0:
            raise SchedulingError("spawn unit needs at least one data slot")
        if formation_words < warp_size:
            raise SchedulingError("formation region smaller than one warp")
        self.spawn_mem = spawn_mem
        self.warp_size = warp_size
        self.data_base = data_base
        self.state_words = state_words
        self.formation_base = formation_base
        self.formation_words = formation_words
        num_regions = formation_words // warp_size
        self._free_regions = [formation_base + r * warp_size
                              for r in range(num_regions - 1, -1, -1)]
        self.free_slots = list(range(num_data_slots - 1, -1, -1))
        self.num_data_slots = num_data_slots
        self.fifo: list[FormedWarp] = []
        self.lut: dict[str, _LUTEntry] = {}
        for info in sorted(kernels, key=lambda k: k.entry_pc):
            entry = _LUTEntry(kernel_name=info.name, entry_pc=info.entry_pc,
                              current_addr=self._allocate_formation(),
                              overflow_addr=self._allocate_formation())
            self.lut[info.name] = entry
        self.threads_spawned = 0
        self.full_warps_formed = 0
        self.partial_warps_flushed = 0
        #: Optional observability probe (see repro.obs); attached by the
        #: owning SM when tracing is enabled, never consulted otherwise.
        self.probe = None

    # -- thread-data slots --------------------------------------------------

    def slot_address(self, slot: int) -> int:
        return self.data_base + slot * self.state_words

    def allocate_data_slots(self, count: int) -> np.ndarray | None:
        """Addresses for ``count`` launch threads, or None if unavailable."""
        if count > len(self.free_slots):
            return None
        slots = [self.free_slots.pop() for _ in range(count)]
        return np.array([self.slot_address(s) for s in slots], dtype=np.int64)

    def free_data_addresses(self, addresses: np.ndarray) -> None:
        """Return thread-data slots (by address) to the free pool."""
        for address in np.asarray(addresses, dtype=np.int64):
            slot = (int(address) - self.data_base) // self.state_words
            if not 0 <= slot < self.num_data_slots:
                raise SchedulingError(f"freed address {address} is not a slot")
            if slot in self.free_slots:
                raise SchedulingError(f"double free of spawn slot {slot}")
            self.free_slots.append(slot)

    @property
    def free_slot_count(self) -> int:
        return len(self.free_slots)

    # -- warp formation -------------------------------------------------------

    def _allocate_formation(self) -> int:
        """Claim a warp-sized region of the formation section.

        The paper doubles the formation allocation so that reuse never
        clobbers a warp still in flight; we make the liveness explicit with
        a free list — a region stays owned from allocation until the warp
        formed in it retires (:meth:`release_region`).
        """
        if not self._free_regions:
            raise SchedulingError(
                "spawn warp-formation region exhausted; more warps are in "
                "flight than the paper's sizing rule allows")
        return self._free_regions.pop()

    def release_region(self, region: int) -> None:
        """Return a formation region once its warp has retired."""
        if region < 0:
            return
        if region in self._free_regions:
            raise SchedulingError(f"double release of formation region {region}")
        self._free_regions.append(region)

    def spawn(self, kernel_name: str, pointers: np.ndarray) -> int:
        """Process one spawn instruction's active lanes.

        Stores each new thread's metadata (its thread-data pointer) at
        sequential formation addresses, updates the LUT, and pushes any
        completed warps into the FIFO. Returns the bank-conflict penalty of
        the metadata store (sequential addresses are conflict-free on real
        hardware; the model confirms it).
        """
        entry = self.lut.get(kernel_name)
        if entry is None:
            raise SchedulingError(f"spawn to unknown µ-kernel {kernel_name!r}")
        pointers = np.asarray(pointers, dtype=np.int64)
        total = int(pointers.size)
        if total == 0:
            return 0
        # Threads land at sequential formation addresses; process them one
        # partial-warp chunk at a time so a completed warp rolls the LUT
        # entry over to its overflow region exactly as per-thread insertion
        # would.
        store_addresses = np.empty(total, dtype=np.int64)
        position = 0
        while position < total:
            take = min(self.warp_size - entry.count, total - position)
            first = entry.current_addr + entry.count
            chunk = np.arange(first, first + take, dtype=np.int64)
            store_addresses[position:position + take] = chunk
            entry.addresses.extend(chunk.tolist())
            entry.pointers.extend(
                pointers[position:position + take].tolist())
            entry.count += take
            position += take
            self.threads_spawned += take
            if entry.count == self.warp_size:
                self._complete_warp(entry)
        # Formation addresses are spawn-memory absolute.
        return self.spawn_mem.write(store_addresses,
                                    pointers.astype(np.float64))

    def _complete_warp(self, entry: _LUTEntry) -> None:
        warp = FormedWarp(
            kernel_name=entry.kernel_name,
            entry_pc=entry.entry_pc,
            formation_addresses=np.array(entry.addresses, dtype=np.int64),
            data_pointers=np.array(entry.pointers, dtype=np.int64),
            region=entry.current_addr,
        )
        self.fifo.append(warp)
        self.full_warps_formed += 1
        if self.probe is not None:
            self.probe.on_warp_formed(entry.kernel_name, self.warp_size)
        entry.pointers = []
        entry.addresses = []
        entry.count = 0
        entry.current_addr = entry.overflow_addr
        entry.overflow_addr = self._allocate_formation()

    # -- scheduling interface -------------------------------------------------

    @property
    def has_full_warps(self) -> bool:
        return bool(self.fifo)

    @property
    def partial_thread_count(self) -> int:
        return sum(entry.count for entry in self.lut.values())

    def pop_full_warp(self) -> FormedWarp:
        if not self.fifo:
            raise SchedulingError("new-warp FIFO is empty")
        return self.fifo.pop(0)

    def flush_partial_warp(self) -> FormedWarp | None:
        """Force out the partial warp with the lowest µ-kernel PC (§IV-D)."""
        for entry in sorted(self.lut.values(), key=lambda e: e.entry_pc):
            if entry.count > 0:
                warp = FormedWarp(
                    kernel_name=entry.kernel_name,
                    entry_pc=entry.entry_pc,
                    formation_addresses=np.array(entry.addresses, dtype=np.int64),
                    data_pointers=np.array(entry.pointers, dtype=np.int64),
                    region=entry.current_addr,
                    is_partial=True,
                )
                entry.pointers = []
                entry.addresses = []
                entry.count = 0
                entry.current_addr = entry.overflow_addr
                entry.overflow_addr = self._allocate_formation()
                self.partial_warps_flushed += 1
                if self.probe is not None:
                    self.probe.on_partial_flush(warp.kernel_name,
                                                warp.num_threads)
                return warp
        return None

    @property
    def idle(self) -> bool:
        """True when no formed or forming threads remain."""
        return not self.fifo and self.partial_thread_count == 0
