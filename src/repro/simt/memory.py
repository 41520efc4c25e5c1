"""Off-chip memory: functional storage plus a DRAM timing model.

Functional side — :class:`GlobalMemory` — is a flat array of words
(one word models 4 bytes; see :data:`repro.config.BYTES_PER_WORD`) holding
the scene, rays, per-ray traversal stacks, and results. A designated
*result range* lets the machine count ray completions as the kernel writes
them (the paper measures rays/second the same way: rays finished over
simulated time).

Timing side — :class:`DRAM` — models the paper's Table I memory partition:
``num_modules`` independent modules, address-interleaved at transaction
granularity, each moving ``bandwidth_bytes_per_cycle``; warp accesses are
first coalesced into 64-byte segments (one transaction each), queued at
their module, and the warp resumes when its last transaction completes.
``ideal=True`` gives the zero-latency, infinite-bandwidth memory used for
the paper's theoretical results (Figure 10).
"""

from __future__ import annotations

import numpy as np

from repro.config import BYTES_PER_WORD, MemoryConfig
from repro.errors import MemoryError_


class GlobalMemory:
    """Flat word-addressed functional memory shared by all SMs."""

    def __init__(self, num_words: int):
        if num_words <= 0:
            raise MemoryError_("memory size must be positive")
        self.words = np.zeros(num_words, dtype=np.float64)
        self.result_base = -1
        self.result_words = 0
        self.result_stride = 2
        self._completed = set()

    @property
    def num_words(self) -> int:
        return self.words.shape[0]

    def set_result_range(self, base: int, num_words: int, stride: int = 2) -> None:
        """Declare [base, base+num_words) as the per-ray result region."""
        if not (0 <= base and base + num_words <= self.num_words):
            raise MemoryError_("result range outside memory")
        self.result_base = base
        self.result_words = num_words
        self.result_stride = stride
        self._completed = set()

    def _check(self, addresses: np.ndarray) -> None:
        if addresses.size == 0:
            return
        lo = int(addresses.min())
        hi = int(addresses.max())
        if lo < 0 or hi >= self.num_words:
            raise MemoryError_(
                f"global access out of range: [{lo}, {hi}] not in "
                f"[0, {self.num_words})")

    def read(self, addresses: np.ndarray) -> np.ndarray:
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check(addresses)
        return self.words[addresses]

    def write(self, addresses: np.ndarray, values: np.ndarray) -> int:
        """Write values; returns the number of *new* ray completions."""
        addresses = np.asarray(addresses, dtype=np.int64)
        self._check(addresses)
        self.words[addresses] = values
        if self.result_base < 0:
            return 0
        offsets = addresses - self.result_base
        hits = offsets[(offsets >= 0) & (offsets < self.result_words)]
        hits = hits[hits % self.result_stride == 0]
        if hits.size == 0:
            return 0
        completed = self._completed
        fresh = [ray for ray in np.unique(hits // self.result_stride).tolist()
                 if ray not in completed]
        completed.update(fresh)
        return len(fresh)

    @property
    def rays_completed(self) -> int:
        return len(self._completed)

    def load_array(self, base: int, array: np.ndarray) -> None:
        """Bulk-initialize memory at ``base`` with a flattened array."""
        flat = np.asarray(array, dtype=np.float64).reshape(-1)
        if base < 0 or base + flat.size > self.num_words:
            raise MemoryError_("load_array outside memory")
        self.words[base:base + flat.size] = flat


class DRAM:
    """Timing model for the interleaved memory partition."""

    def __init__(self, config: MemoryConfig):
        config.validate()
        self.config = config
        self.segment_words = config.segment_bytes // BYTES_PER_WORD
        self.transfer_cycles = max(
            1, config.segment_bytes // config.bandwidth_bytes_per_cycle)
        #: Next-free cycle per module. A plain int list: the access path
        #: reads/writes one or two entries per warp access, where list
        #: indexing beats ndarray element access by a wide margin.
        self.module_free = [0] * config.num_modules
        self.read_bytes = 0
        self.write_bytes = 0
        self.transactions = 0
        #: Optional observability probe (see repro.obs); attached by the
        #: GPU when tracing is enabled, never consulted otherwise.
        self.probe = None

    def access(self, cycle: int, addresses: np.ndarray, is_store: bool) -> int:
        """Issue a warp's coalesced access; returns the completion cycle.

        Each distinct 64-byte segment becomes one transaction routed to
        module ``segment % num_modules``; a transaction occupies its module
        for ``transfer_cycles`` and completes ``latency_cycles`` later.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        # Set-based dedup: warp accesses carry at most warp_size addresses,
        # where a Python set beats np.unique (which sorts); nothing below
        # depends on segment order.
        segments = set((addresses // self.segment_words).tolist())
        num_segments = len(segments)
        if num_segments == 0:
            return cycle
        bytes_moved = num_segments * self.config.segment_bytes
        if is_store:
            self.write_bytes += bytes_moved
        else:
            self.read_bytes += bytes_moved
        self.transactions += num_segments
        if self.probe is not None:
            self.probe.on_dram_access(cycle, num_segments, is_store)
        if self.config.ideal:
            return cycle + 1
        module_free = self.module_free
        num_modules = self.config.num_modules
        transfer = self.transfer_cycles
        if num_segments == 1:
            module = next(iter(segments)) % num_modules
            finish = max(module_free[module], cycle) + transfer
            module_free[module] = finish
            return finish + self.config.latency_cycles
        # Same-cycle transactions at one module serialize back-to-back, so
        # the module's last finish is max(free, now) + count * transfer —
        # identical to queueing them one at a time.
        counts: dict[int, int] = {}
        for segment in segments:
            module = segment % num_modules
            counts[module] = counts.get(module, 0) + 1
        worst = 0
        for module, count in counts.items():
            finish = max(module_free[module], cycle) + count * transfer
            module_free[module] = finish
            if finish > worst:
                worst = finish
        return worst + self.config.latency_cycles
