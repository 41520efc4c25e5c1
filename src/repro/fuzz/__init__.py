"""Generative differential conformance testing for the SIMT models.

A seeded random µ-kernel program generator (:mod:`repro.fuzz.generator`)
produces small programs with data-dependent loops, predicated branches,
multi-target spawns, shared/banked memory traffic, and barriers. Each
program is executed on a scalar MIMD reference interpreter
(:mod:`repro.fuzz.reference`) and on the SIMT execution models; the
oracle (:mod:`repro.fuzz.oracle`) asserts functional equivalence of the
final memory images and register files, metamorphic invariance across
warp size / scheduler order / clock mode, and the structural counter
identities of :mod:`repro.obs.invariants`. Failing cases are reduced by
:mod:`repro.fuzz.shrink` and persisted to a JSON regression corpus
(:mod:`repro.fuzz.corpus`) that the test suite replays.

Entry points: ``repro fuzz`` on the command line, or
:func:`repro.fuzz.run_fuzz` / :func:`repro.fuzz.run_case` from Python.
"""

from repro.fuzz.corpus import (
    CASE_SCHEMA,
    case_from_dict,
    case_from_json,
    case_to_dict,
    case_to_json,
    load_case,
    load_corpus,
    save_case,
)
from repro.fuzz.generator import CASE_KINDS, Case, make_case
from repro.fuzz.oracle import (
    FUZZ_MODELS,
    CaseResult,
    FuzzReport,
    models_for,
    run_case,
    run_fuzz,
    run_model,
)
from repro.fuzz.reference import ReferenceLimitError, run_reference
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CASE_KINDS",
    "CASE_SCHEMA",
    "FUZZ_MODELS",
    "Case",
    "CaseResult",
    "FuzzReport",
    "ReferenceLimitError",
    "case_from_dict",
    "case_from_json",
    "case_to_dict",
    "case_to_json",
    "load_case",
    "load_corpus",
    "make_case",
    "models_for",
    "run_case",
    "run_fuzz",
    "run_model",
    "run_reference",
    "save_case",
    "shrink_case",
]
