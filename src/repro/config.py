"""Simulator machine configuration (paper Table I) and presets.

The paper configures a modified GPGPU-Sim to resemble an NVIDIA Quadro
FX5800: 30 processor cores (SMs), 32-thread warps, 8 stream processors per
warp, 1024 threads and 8 thread blocks per SM, 16384 registers per SM, 64 KB
of on-chip memory, a 1024-byte spawn LUT, and 8 memory modules moving
8 bytes/cycle each with no L1/L2 caching.

Because the paper's SMs are fully independent (no inter-SM communication),
the reproduction exposes *presets* that simulate fewer SMs and keep the
full 8-module memory partition (see :func:`scaled_config`); rays/s
results are normalized back to the 30-SM machine by
:mod:`repro.harness.runner`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError, did_you_mean

#: Bytes per simulated memory word. Ray data is 32-bit floats/ints on the
#: paper's hardware, so one word of our functional memory models 4 bytes.
BYTES_PER_WORD = 4

#: Bytes per DRAM transaction segment (coalescing granularity). The
#: FX5800's GT200 memory system issues 32-byte minimum transactions for
#: scattered accesses; adjacent segments still merge via coalescing.
SEGMENT_BYTES = 32

@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory partition configuration."""

    num_modules: int = 8
    bandwidth_bytes_per_cycle: int = 8
    latency_cycles: int = 220
    segment_bytes: int = SEGMENT_BYTES
    ideal: bool = False
    """When True, every access completes with zero latency and infinite
    bandwidth (the paper's *ideal memory system* used for Figure 10)."""

    def validate(self) -> None:
        if self.num_modules <= 0:
            raise ConfigError("num_modules must be positive")
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("bandwidth_bytes_per_cycle must be positive")
        if self.latency_cycles < 0:
            raise ConfigError("latency_cycles must be non-negative")
        if self.segment_bytes <= 0 or self.segment_bytes % BYTES_PER_WORD:
            raise ConfigError("segment_bytes must be a positive word multiple")


@dataclass(frozen=True)
class SpawnConfig:
    """Dynamic µ-kernel (spawn) hardware configuration."""

    enabled: bool = False
    lut_bytes: int = 1024
    bank_conflicts: bool = False
    """Model spawn-memory bank conflicts (paper Figure 9). When False the
    paper's conflict-free assumption (Figure 7) applies."""
    num_banks: int = 16
    flush_partial_warps: bool = True
    """Force incomplete warps out of the partial-warp pool when the
    scheduler has nothing else to run (paper end-of-application behaviour)."""
    spawn_when_uniform: bool = True
    """Naïve spawning from the paper: spawn on every loop iteration even when
    the whole warp agrees. Setting this False enables the paper's stated
    future-work optimization (branch when the warp is uniform)."""

    def validate(self) -> None:
        if self.lut_bytes <= 0:
            raise ConfigError("lut_bytes must be positive")
        if self.num_banks <= 0:
            raise ConfigError("num_banks must be positive")


class SchedulingModel:
    """Thread scheduling model names (paper §VI)."""

    BLOCK = "block"
    """FX5800-like: a thread block is scheduled only when resources exist for
    the entire block; supports intra-block synchronization."""

    WARP = "warp"
    """Thread scheduling: ignores block granularity and schedules as many
    warps as other resources allow. Required for dynamic µ-kernels."""

    ALL = (BLOCK, WARP)


@dataclass(frozen=True)
class GPUConfig:
    """Full machine configuration (paper Table I)."""

    num_sms: int = 30
    warp_size: int = 32
    sps_per_sm: int = 8
    max_threads_per_sm: int = 1024
    max_blocks_per_sm: int = 8
    registers_per_sm: int = 16384
    onchip_memory_bytes: int = 64 * 1024
    clock_ghz: float = 1.3
    alu_latency: int = 6
    """Cycles until the next instruction from the same warp can issue after
    an ALU op. Real SIMT pipelines hide most ALU latency with result
    forwarding and instruction-level parallelism inside a thread; a small
    value models that without tracking per-register dependences."""
    onchip_latency: int = 12
    """Latency of shared/spawn/constant-memory accesses (on-chip)."""
    scheduling: str = SchedulingModel.WARP
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    spawn: SpawnConfig = field(default_factory=SpawnConfig)
    max_cycles: int = 300_000
    fast_forward: bool = True
    """Event-driven clock advance: when no SM can issue, jump straight to
    the next event time (earliest warp ``ready_at``, memory completion, or
    stall expiry) instead of ticking idle cycles one by one. The skipped
    span is credited to the idle/stall counters exactly as the cycle-by-
    cycle loop would, so all reported statistics are bit-identical to
    ``fast_forward=False`` (the *exact* mode); the differential test suite
    enforces this equivalence for every execution model."""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")
        if self.warp_size <= 0:
            raise ConfigError("warp_size must be positive")
        if self.sps_per_sm <= 0:
            raise ConfigError("sps_per_sm must be positive")
        if self.warp_size % self.sps_per_sm:
            raise ConfigError("warp_size must be a multiple of sps_per_sm")
        if self.max_threads_per_sm % self.warp_size:
            raise ConfigError("max_threads_per_sm must be a warp multiple")
        if self.max_blocks_per_sm <= 0:
            raise ConfigError("max_blocks_per_sm must be positive")
        if self.registers_per_sm <= 0:
            raise ConfigError("registers_per_sm must be positive")
        if self.scheduling not in SchedulingModel.ALL:
            raise ConfigError(f"unknown scheduling model {self.scheduling!r}")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if self.max_cycles <= 0:
            raise ConfigError("max_cycles must be positive")
        self.memory.validate()
        self.spawn.validate()

    @property
    def warps_per_sm_limit(self) -> int:
        """Hard warp-slot limit from the thread-count resource."""
        return self.max_threads_per_sm // self.warp_size

    @property
    def peak_ipc(self) -> int:
        """Peak thread-instructions per cycle for the whole machine.

        One warp instruction issues per SM per cycle, so the peak equals
        ``num_sms * warp_size`` (960 for the paper's Table I machine, which
        is consistent with the reported IPC scale of 326–615).
        """
        return self.num_sms * self.warp_size

    def replace(self, **changes) -> "GPUConfig":
        """Return a copy with ``changes`` applied (nested fields included).

        ``memory_<field>`` and ``spawn_<field>`` shorthand keys update the
        nested configs, e.g. ``cfg.replace(memory_ideal=True)``. Unknown
        keys raise :class:`ConfigError` with a close-match suggestion, and
        a whole nested config (``memory=...``) cannot be combined with its
        shorthand keys (``memory_*``) in one call — the merge order would
        be ambiguous.
        """
        own = {f.name for f in dataclasses.fields(self)}
        memory_fields = {f.name for f in dataclasses.fields(self.memory)}
        spawn_fields = {f.name for f in dataclasses.fields(self.spawn)}
        memory_changes = {}
        spawn_changes = {}
        plain = {}
        for key, value in changes.items():
            if key in own:
                plain[key] = value
            elif (key.startswith("memory_")
                    and key[len("memory_"):] in memory_fields):
                memory_changes[key[len("memory_"):]] = value
            elif (key.startswith("spawn_")
                    and key[len("spawn_"):] in spawn_fields):
                spawn_changes[key[len("spawn_"):]] = value
            else:
                valid = (own
                         | {f"memory_{name}" for name in memory_fields}
                         | {f"spawn_{name}" for name in spawn_fields})
                raise ConfigError(f"unknown GPUConfig option {key!r}."
                                  f"{did_you_mean(key, valid)}")
        if memory_changes:
            if "memory" in plain:
                raise ConfigError("pass either memory=... or memory_* "
                                  "shorthand overrides, not both")
            plain["memory"] = dataclasses.replace(self.memory, **memory_changes)
        if spawn_changes:
            if "spawn" in plain:
                raise ConfigError("pass either spawn=... or spawn_* "
                                  "shorthand overrides, not both")
            plain["spawn"] = dataclasses.replace(self.spawn, **spawn_changes)
        return dataclasses.replace(self, **plain)

    def to_dict(self) -> dict:
        """JSON-compatible mapping of every field, nested configs inline.

        The inverse is :meth:`from_dict`; :meth:`repro.simt.gpu.RunStats.
        to_dict` embeds this document so serialized results carry their
        full machine configuration.
        """
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "GPUConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Goes through :meth:`replace`, so a key this build does not know
        (a misspelling, or a field a later or earlier build had) raises
        the same did-you-mean :class:`ConfigError` as ``replace`` rather
        than a bare ``TypeError``.
        """
        changes = dict(data)
        for nested in ("memory", "spawn"):
            for key, value in changes.pop(nested).items():
                changes[f"{nested}_{key}"] = value
        return GPUConfig().replace(**changes)

    def table1_rows(self) -> list[tuple[str, str]]:
        """Rows of paper Table I for this configuration."""
        caching = "None"  # the paper simulates without L1/L2 caches
        return [
            ("Processor Cores", str(self.num_sms)),
            ("Warp Size", str(self.warp_size)),
            ("Stream Processors per Warp", str(self.sps_per_sm)),
            ("Threads / Processor Core", str(self.max_threads_per_sm)),
            ("Thread Blocks / Processor Core", str(self.max_blocks_per_sm)),
            ("Registers / Processor Core", str(self.registers_per_sm)),
            ("On-chip Memory / Processor Core",
             f"{self.onchip_memory_bytes // 1024} KB"),
            ("Spawn LUT Size / Processor Core",
             f"{self.spawn.lut_bytes} Bytes"),
            ("Memory Modules", str(self.memory.num_modules)),
            ("Bandwidth per Memory Module",
             f"{self.memory.bandwidth_bytes_per_cycle} Bytes/Cycle"),
            ("L1 and L2 Memory Caching", caching),
        ]


def paper_config(**overrides) -> GPUConfig:
    """The exact Table I machine (30 SMs)."""
    return GPUConfig().replace(**overrides) if overrides else GPUConfig()


def scaled_config(num_sms: int, **overrides) -> GPUConfig:
    """A Table I machine scaled down to ``num_sms`` SMs.

    The full 8-module memory partition is kept regardless of SM count:
    module-level parallelism, not aggregate bandwidth, sets the service
    rate for the scattered accesses that dominate ray tracing, and the
    paper's own result is that performance is bound by control flow rather
    than memory bandwidth (its PDOM numbers do not improve under an ideal
    memory system). Scaling the partition down with the SM count would put
    the scaled machine in a bandwidth-bound regime the paper's machine is
    not in; see DESIGN.md.
    """
    if num_sms <= 0:
        raise ConfigError("num_sms must be positive")
    cfg = GPUConfig().replace(num_sms=num_sms)
    return cfg.replace(**overrides) if overrides else cfg
