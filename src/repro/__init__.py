"""Dynamic µ-kernels for SIMT global rendering (MICRO 2010 reproduction).

Top-level convenience exports; see the subpackages for the full API:

- :mod:`repro.config` — machine configuration (paper Table I),
- :mod:`repro.isa` — the PTX-flavoured ISA, assembler, CFG analysis,
- :mod:`repro.simt` — the cycle-level SIMT simulator + spawn hardware,
- :mod:`repro.rt` — ray-tracing substrate (kd-tree, Wald, scenes),
- :mod:`repro.kernels` — the benchmark kernels and memory layout,
- :mod:`repro.analysis` — divergence breakdowns, bandwidth model,
- :mod:`repro.obs` — cycle-attribution probes and trace exporters,
- :mod:`repro.harness` — presets, runner, per-figure experiments,
- :mod:`repro.api` — the stable façade (``simulate``/``sweep``),
- :mod:`repro.serve` — the job daemon, wire schema, and the sweep
  manifest that worker processes claim jobs from.
"""

from repro.config import GPUConfig, paper_config, scaled_config
from repro.errors import ReproError

__version__ = "1.0.0"

#: Façade names resolved lazily (PEP 562) so ``import repro`` stays cheap
#: and free of the harness's heavier imports until they are needed.
_API_EXPORTS = ("simulate", "sweep", "RunResult", "SweepJob", "SweepResults",
                "RetryPolicy", "FailedJob", "TraceSession", "MODES")


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_API_EXPORTS))


__all__ = [
    "FailedJob",
    "GPUConfig",
    "MODES",
    "ReproError",
    "RetryPolicy",
    "RunResult",
    "SweepJob",
    "SweepResults",
    "TraceSession",
    "__version__",
    "paper_config",
    "scaled_config",
    "simulate",
    "sweep",
]
