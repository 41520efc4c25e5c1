"""PDOM reconvergence stack (SIMT stack).

Implements the post-dominator reconvergence mechanism of §II / Figure 2:
when the lanes of a warp disagree at a branch, the current stack entry's PC
is set to the branch's immediate post-dominator (keeping the pre-divergence
mask) and one entry per outgoing path is pushed. Execution always proceeds
from the top entry; when its PC reaches its reconvergence PC the entry pops
and the lanes merge back into the entry below.

Each entry caches its active-lane count so the issue path never needs a
numpy reduction to know whether a path is live — the count is maintained at
the only two mutation points (entry creation and :meth:`retire_lanes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.isa.cfg import RECONV_AT_EXIT


@dataclass
class StackEntry:
    """One control-flow path: next PC, lanes on it, reconvergence PC."""

    pc: int
    mask: np.ndarray
    reconv_pc: int = RECONV_AT_EXIT
    count: int = field(default=-1)
    """Cached ``mask.sum()``; kept in sync by the stack's mutators."""

    def __post_init__(self) -> None:
        if self.count < 0:
            self.count = int(self.mask.sum())


@dataclass
class ReconvergenceStack:
    """The per-warp SIMT stack."""

    entries: list[StackEntry] = field(default_factory=list)
    pushes: int = 0
    pops: int = 0
    """Lifetime entry-creation/removal counts. A warp that has fully
    retired must satisfy ``pushes == pops`` — the conformance fuzzer
    checks this structural invariant on every finished warp."""

    @staticmethod
    def initial(pc: int, mask: np.ndarray) -> "ReconvergenceStack":
        return ReconvergenceStack(
            [StackEntry(pc, mask.copy(), RECONV_AT_EXIT)], pushes=1)

    @property
    def top(self) -> StackEntry:
        if not self.entries:
            raise ExecutionError("reconvergence stack underflow")
        return self.entries[-1]

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries or self.entries[-1].count == 0

    def active_mask(self) -> np.ndarray:
        return self.top.mask

    def active_count(self) -> int:
        return self.top.count

    def advance(self, next_pc: int) -> None:
        """Move the top entry to ``next_pc`` and pop on reconvergence."""
        entries = self.entries
        top = entries[-1]
        top.pc = next_pc
        if len(entries) > 1 and (next_pc == top.reconv_pc or top.count == 0):
            self._pop_reconverged()

    def _pop_reconverged(self) -> None:
        entries = self.entries
        while (len(entries) > 1
               and (entries[-1].pc == entries[-1].reconv_pc
                    or entries[-1].count == 0)):
            entries.pop()
            self.pops += 1

    def diverge(self, taken_mask: np.ndarray, not_taken_mask: np.ndarray,
                target_pc: int, fallthrough_pc: int, reconv_pc: int) -> None:
        """Split the top entry at a divergent branch.

        The top entry keeps the union mask and waits at ``reconv_pc``;
        the not-taken then taken paths are pushed (taken executes first,
        matching PDOM's serialization of control paths).
        """
        top = self.top
        top.pc = reconv_pc if reconv_pc != RECONV_AT_EXIT else fallthrough_pc
        if reconv_pc == RECONV_AT_EXIT:
            # Paths only meet at exit: replace top with the two paths.
            self.entries.pop()
            self.pops += 1
        if not_taken_mask.any():
            self.entries.append(
                StackEntry(fallthrough_pc, not_taken_mask.copy(), reconv_pc))
            self.pushes += 1
        if taken_mask.any():
            self.entries.append(
                StackEntry(target_pc, taken_mask.copy(), reconv_pc))
            self.pushes += 1
        if not self.entries:
            raise ExecutionError("divergence produced an empty stack")
        # A path that starts at the reconvergence point has not really
        # diverged: merge it immediately so it waits for the other path.
        self._pop_reconverged()

    def retire_lanes(self, exit_mask: np.ndarray) -> None:
        """Remove exiting lanes from every entry and drop empty entries."""
        survivors = []
        for entry in self.entries:
            entry.mask = entry.mask & ~exit_mask
            entry.count = int(entry.mask.sum())
            if entry.count:
                survivors.append(entry)
        self.pops += len(self.entries) - len(survivors)
        self.entries = survivors
