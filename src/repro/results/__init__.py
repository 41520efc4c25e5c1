"""Results warehouse: an append-only, cross-run store of completed runs.

A sweep manifest records one sweep; this package answers the cross-run
question "did revision B get slower than revision A on the same
configuration?":

- :mod:`repro.results.store` — the ``repro-results/1`` JSONL store: one
  record per completed :class:`~repro.harness.runner.RunResult`, keyed
  by the job's ``config_digest`` plus a ``run_stats_digest`` fingerprint,
  stamped with git revision, a working-tree ``dirty`` flag, and a
  timestamp. Setting
  ``REPRO_RESULTS_DIR`` opts every execution path in —
  ``api.simulate``, ``api.sweep``/``repro experiments`` (serial sweeps
  record in the driver, parallel ones in each ``repro worker``
  process), and the serve daemon all record through one hook;
- :mod:`repro.results.compare` — run-vs-run and rev-vs-rev regression
  tables with a configurable tolerance, behind the ``repro compare`` CLI;
- :mod:`repro.results.frame` — a tidy one-row-per-run table, optionally
  as a pandas ``DataFrame`` (pandas is an optional dependency; the pure
  Python :func:`~repro.results.frame.tidy_rows` needs nothing extra).
"""

from repro.results.compare import (
    DEFAULT_METRICS,
    DEFAULT_TOLERANCE,
    compare_records,
    compare_revisions,
    latest_by_key,
    render_comparison,
    revisions_in,
)
from repro.results.frame import frame, tidy_rows
from repro.results.store import (
    RESULTS_SCHEMA,
    ResultsStore,
    default_store,
    git_provenance,
    maybe_record,
    run_record,
    stats_fingerprint,
)

__all__ = [
    "DEFAULT_METRICS",
    "DEFAULT_TOLERANCE",
    "RESULTS_SCHEMA",
    "ResultsStore",
    "compare_records",
    "compare_revisions",
    "default_store",
    "frame",
    "git_provenance",
    "latest_by_key",
    "maybe_record",
    "render_comparison",
    "revisions_in",
    "run_record",
    "stats_fingerprint",
    "tidy_rows",
]
