"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the assembler, simulator, and rendering layers.
"""

from __future__ import annotations

import difflib


def did_you_mean(name: str, options) -> str:
    """`` Did you mean 'x'?`` suffix for an unknown-name error, or ``""``.

    Append to the message of a :class:`ConfigError` (or similar) raised for
    an unrecognized keyword so typos get an actionable fix instead of a
    bare rejection.
    """
    matches = difflib.get_close_matches(str(name), [str(o) for o in options],
                                        n=1)
    return f" Did you mean {matches[0]!r}?" if matches else ""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent simulator configuration."""


class AssemblerError(ReproError):
    """A syntax or semantic error while assembling kernel text."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ProgramError(ReproError):
    """A structurally invalid program (bad label, missing kernel, ...)."""


class ExecutionError(ReproError):
    """A fault raised while functionally executing an instruction."""

    def __init__(self, message: str, pc: int | None = None):
        if pc is not None:
            message = f"pc={pc}: {message}"
        super().__init__(message)
        self.pc = pc


class MemoryError_(ReproError):
    """An out-of-range or malformed simulated memory access."""


class SchedulingError(ReproError):
    """The SM scheduler reached an inconsistent state (e.g. deadlock).

    A deadlock diagnosis carries the simulated ``cycle`` it was raised at;
    other scheduling errors leave it None.
    """

    def __init__(self, message: str, cycle: int | None = None):
        super().__init__(message)
        self.cycle = cycle


class SweepError(ReproError):
    """One or more sweep jobs permanently failed in ``strict`` mode.

    Carries the :class:`repro.harness.sweep.FailedJob` records as
    ``failures`` so callers that want the partial results anyway can
    re-run with ``strict=False`` instead of parsing the message.
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class ServeError(ReproError):
    """A job-service failure: a rejected request, a dead daemon, or an
    HTTP error answer from ``repro serve``.

    Carries the HTTP ``status`` (0 when the daemon was unreachable) so
    clients can distinguish "bad request" from "service down" without
    string-matching the message.
    """

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


class FaultInjectionError(ReproError):
    """An error raised deliberately by the test fault injector.

    Never raised in production runs — only when ``REPRO_FAULT_SPEC`` (or an
    explicit :class:`repro.harness.sweep.FaultInjector`) asks a sweep job
    to fail, so the retry/quarantine/resume machinery can be exercised
    deterministically in CI.
    """


class SceneError(ReproError):
    """Invalid scene or acceleration-structure construction parameters."""
