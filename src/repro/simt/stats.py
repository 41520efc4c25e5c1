"""Simulation statistics: windowed counters, divergence histogram, SM totals.

Time series over simulated cycles live in :class:`WindowCounters`: one
fixed-width row of plain ints per window of cycles. The divergence sampler
and every probe table (:mod:`repro.obs.probe`) are such tables.

The divergence histogram reproduces the AerialVision plots of Figures 3, 7
and 9: every issued warp instruction is classified by how many of its
``warp_size`` lanes were active, into buckets W1:4, W5:8, ..., W29:32.
Together with idle (no issue) and stall (issue port blocked by bank-conflict
serialization) cycles this gives the paper's 10 categories.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

#: Number of active-lane buckets (paper's W1:4 ... W29:32 for 32-wide warps).
NUM_W_BUCKETS = 8

#: Divergence sampler columns after the W buckets.
_IDLE = NUM_W_BUCKETS
_STALL = NUM_W_BUCKETS + 1


def _lanes_per_bucket(warp_size: int) -> int:
    """Lanes covered by one W bucket (ceiling so no counts collapse).

    Flooring ``warp_size // NUM_W_BUCKETS`` is wrong for warp sizes that
    are not a multiple of ``NUM_W_BUCKETS``: e.g. warp_size=12 would map
    active counts 8..12 all into the top bucket while the labels claim it
    holds only W8:8. The ceiling keeps every bucket at most
    ``_lanes_per_bucket`` wide and the top bucket exactly ends at
    ``warp_size``; for the paper's power-of-two sizes (4, 8, 16, 32) the
    result is unchanged.
    """
    if warp_size <= 0:
        raise ValueError("warp_size must be positive")
    return max(1, -(-warp_size // NUM_W_BUCKETS))


def w_bucket(active: int, warp_size: int = 32) -> int:
    """Bucket index 0..7 for ``active`` lanes of a ``warp_size`` warp."""
    if active <= 0:
        raise ValueError("an issued warp must have at least one active lane")
    if active > warp_size:
        raise ValueError(f"{active} active lanes exceed warp size {warp_size}")
    per_bucket = _lanes_per_bucket(warp_size)
    return min(NUM_W_BUCKETS - 1, (active - 1) // per_bucket)


def w_labels(warp_size: int = 32) -> list[str]:
    """Bucket labels, e.g. ['W1:4', ..., 'W29:32'].

    Always ``NUM_W_BUCKETS`` labels (histogram arrays have fixed width);
    ranges are clamped to ``warp_size``, so buckets beyond the warp size
    (which can never receive a count) show an empty-by-construction range.
    """
    per_bucket = _lanes_per_bucket(warp_size)
    labels = []
    for b in range(NUM_W_BUCKETS):
        lo = b * per_bucket + 1
        hi = max(lo, min((b + 1) * per_bucket, warp_size))
        labels.append(f"W{lo}:{hi}")
    return labels


W_CATEGORIES = w_labels()


def row_fractions(counts: np.ndarray) -> np.ndarray:
    """Each row of a count table divided by its sum (zero rows stay 0)."""
    counts = np.asarray(counts, dtype=np.float64)
    sums = counts.sum(axis=1, keepdims=True)
    return counts / np.where(sums == 0, 1.0, sums)


class WindowCounters:
    """Plain-int counters over simulated time: one row per window.

    ``rows`` holds one ``[0] * width`` list per ``window`` cycles, grown on
    demand. Rows are plain lists, not numpy arrays, because the simulator
    increments one element per cycle, which is several times cheaper on a
    list. ``rows`` is only ever appended to, so a caller may hold it across
    a :meth:`row` call.
    """

    __slots__ = ("window", "width", "rows")

    def __init__(self, window: int, width: int):
        if window <= 0:
            raise ValueError("window must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        self.window = int(window)
        self.width = int(width)
        self.rows: list[list[int]] = []

    def row(self, cycle: int) -> list[int]:
        """The row of ``cycle``'s window, extending ``rows`` up to it."""
        index = cycle // self.window
        rows = self.rows
        while len(rows) <= index:
            rows.append([0] * self.width)
        return rows[index]

    def add_span(self, start: int, stop: int, column: int,
                 weight: int = 1) -> None:
        """Add ``weight`` to ``column`` for every cycle of [start, stop).

        Equal to ``row(cycle)[column] += weight`` for each cycle of the
        span, without the loop, so the fast clock's span credits match the
        exact clock's per-cycle adds.
        """
        if stop <= start:
            return
        window = self.window
        first = start // window
        last = (stop - 1) // window
        rows = self.rows
        if last >= len(rows):
            self.row(stop - 1)
        if first == last:
            rows[first][column] += (stop - start) * weight
            return
        rows[first][column] += ((first + 1) * window - start) * weight
        for index in range(first + 1, last):
            rows[index][column] += window * weight
        rows[last][column] += (stop - last * window) * weight

    def merge(self, other: "WindowCounters") -> None:
        """Add another table of the same window and width into this one."""
        if other.window != self.window or other.width != self.width:
            raise ValueError(
                f"cannot merge {other.window}-cycle x {other.width} counters "
                f"into {self.window}-cycle x {self.width} counters")
        if other.rows:
            self.row((len(other.rows) - 1) * self.window)
        for mine, theirs in zip(self.rows, other.rows):
            for column, count in enumerate(theirs):
                mine[column] += count

    def totals(self) -> list[int]:
        """Whole-run sum of every column."""
        sums = [0] * self.width
        for row in self.rows:
            for column, count in enumerate(row):
                sums[column] += count
        return sums

    def array(self) -> np.ndarray:
        """The rows as an int64 (windows x width) array (a copy)."""
        return np.array(self.rows, dtype=np.int64).reshape(-1, self.width)


class DivergenceSampler(WindowCounters):
    """Time-bucketed warp-occupancy histogram (Figures 3, 7 and 9).

    A :class:`WindowCounters` of ``window`` cycles per row whose columns
    are the W buckets, then idle (cycles with no issue) and stall (cycles
    the issue port was blocked by bank-conflict serialization).
    """

    __slots__ = ("warp_size", "_per_bucket")

    def __init__(self, warp_size: int = 32, window: int = 1000):
        super().__init__(window, NUM_W_BUCKETS + 2)
        self.warp_size = warp_size
        self._per_bucket = _lanes_per_bucket(warp_size)

    # -- recording (hot path: one row increment each) -------------------------

    def record_issue(self, cycle: int, active: int) -> None:
        # Inlined w_bucket: the executor guarantees
        # 1 <= active <= warp_size for every issued instruction.
        bucket = (active - 1) // self._per_bucket
        if bucket >= NUM_W_BUCKETS:
            bucket = NUM_W_BUCKETS - 1
        rows = self.rows
        index = cycle // self.window
        if index >= len(rows):
            self.row(cycle)
        rows[index][bucket] += 1

    def record_idle(self, cycle: int) -> None:
        rows = self.rows
        index = cycle // self.window
        if index >= len(rows):
            self.row(cycle)
        rows[index][_IDLE] += 1

    def record_stall(self, cycle: int) -> None:
        rows = self.rows
        index = cycle // self.window
        if index >= len(rows):
            self.row(cycle)
        rows[index][_STALL] += 1

    def record_idle_span(self, start: int, stop: int) -> None:
        """Credit every cycle of [start, stop) as idle (fast-forward)."""
        self.add_span(start, stop, _IDLE)

    def record_stall_span(self, start: int, stop: int) -> None:
        """Credit every cycle of [start, stop) as stalled (fast-forward)."""
        self.add_span(start, stop, _STALL)

    # -- the RunStats document ------------------------------------------------

    @property
    def issues(self) -> list[list[int]]:
        """Per-window W-bucket issue counts."""
        return [row[:NUM_W_BUCKETS] for row in self.rows]

    @property
    def idle(self) -> list[int]:
        """Per-window idle cycles."""
        return [row[_IDLE] for row in self.rows]

    @property
    def stall(self) -> list[int]:
        """Per-window stall cycles."""
        return [row[_STALL] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-compatible snapshot (inverse of :meth:`from_dict`)."""
        return {
            "warp_size": self.warp_size,
            "window": self.window,
            "issues": self.issues,
            "idle": self.idle,
            "stall": self.stall,
        }

    @staticmethod
    def from_dict(data: dict) -> "DivergenceSampler":
        sampler = DivergenceSampler(warp_size=data["warp_size"],
                                    window=data["window"])
        sampler.rows = [list(issues) + [idle, stall] for issues, idle, stall
                        in zip(data["issues"], data["idle"], data["stall"])]
        return sampler

    # -- reading --------------------------------------------------------------

    def labels(self) -> list[str]:
        """Column labels: the W buckets, then idle and stall."""
        return w_labels(self.warp_size) + ["idle", "stall"]

    def totals(self) -> np.ndarray:
        """Whole-run issue counts per W bucket."""
        return np.array(super().totals()[:NUM_W_BUCKETS], dtype=np.int64)

    def fractions_over_time(self) -> np.ndarray:
        """(num_windows, NUM_W_BUCKETS+2) rows: [W buckets..., idle, stall].

        Each row is normalized by its window's total cycles accounted, so
        rows are directly comparable to the AerialVision stacked plots.
        """
        return row_fractions(self.array())

    def mean_active_lanes(self) -> float:
        """Average active lanes per issued instruction (bucket midpoints)."""
        totals = self.totals()
        if totals.sum() == 0:
            return 0.0
        per_bucket = self._per_bucket
        midpoints = np.array([
            (b * per_bucket + 1
             + max(b * per_bucket + 1,
                   min((b + 1) * per_bucket, self.warp_size))) / 2.0
            for b in range(NUM_W_BUCKETS)])
        return float((totals * midpoints).sum() / totals.sum())

    def category_share(self, label: str) -> float:
        """Whole-run issue share of one W category."""
        totals = self.totals()
        total = totals.sum()
        index = w_labels(self.warp_size).index(label)
        return float(totals[index] / total) if total else 0.0

    def high_occupancy_share(self, buckets: int = 2) -> float:
        """Issue share of the top ``buckets`` occupancy categories."""
        totals = self.totals()
        total = totals.sum()
        return float(totals[-buckets:].sum() / total) if total else 0.0

    def low_occupancy_share(self, buckets: int = 2) -> float:
        """Issue share of the bottom ``buckets`` occupancy categories."""
        totals = self.totals()
        total = totals.sum()
        return float(totals[:buckets].sum() / total) if total else 0.0


@dataclass
class SMStats:
    """Per-SM counters (merged into machine totals by the GPU)."""

    cycles: int = 0
    issued_instructions: int = 0
    committed_thread_instructions: int = 0
    idle_cycles: int = 0
    stall_cycles: int = 0
    warps_launched: int = 0
    warps_completed: int = 0
    threads_launched: int = 0
    threads_exited: int = 0
    spawn_instructions: int = 0
    threads_spawned: int = 0
    full_warps_formed: int = 0
    partial_warps_flushed: int = 0
    uniform_spawn_branches: int = 0
    bank_conflict_cycles: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    dram_transactions: int = 0
    onchip_read_words: int = 0
    onchip_write_words: int = 0
    rays_completed: int = 0

    def ipc(self) -> float:
        """Committed thread-instructions per cycle for this SM."""
        return (self.committed_thread_instructions / self.cycles
                if self.cycles else 0.0)

    def to_dict(self) -> dict:
        """JSON-compatible snapshot (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "SMStats":
        return SMStats(**data)

    def merge(self, other: "SMStats") -> None:
        self.cycles = max(self.cycles, other.cycles)
        for name in ("issued_instructions", "committed_thread_instructions",
                     "idle_cycles", "stall_cycles", "warps_launched",
                     "warps_completed", "threads_launched", "threads_exited",
                     "spawn_instructions", "threads_spawned",
                     "full_warps_formed", "partial_warps_flushed",
                     "uniform_spawn_branches",
                     "bank_conflict_cycles", "dram_read_bytes",
                     "dram_write_bytes", "dram_transactions",
                     "onchip_read_words", "onchip_write_words",
                     "rays_completed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
