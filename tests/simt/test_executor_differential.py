"""Differential testing: the warp executor vs an independent interpreter.

Hypothesis generates random straight-line programs over a small register
file (arithmetic, comparisons, selects, predication). Each program runs
two ways — lane-vectorized on the simulator's executor, and scalar
per-lane on a deliberately simple reference interpreter written here with
plain Python floats — and the resulting register files must match
bit-for-bit (both are IEEE double).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.isa import assemble
from repro.isa.cfg import reconvergence_table
from repro.simt.executor import MachineState, execute
from repro.simt.memory import GlobalMemory
from repro.simt.warp import Warp

WARP = 8
NUM_REGS = 6
NUM_PREDS = 2

BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")
UNARY_OPS = ("mov", "neg", "abs", "floor")
CMPS = ("lt", "le", "gt", "ge", "eq", "ne")


def _interp_binary(op: str, a: float, b: float) -> float:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        # Operands are numpy float64 scalars, so plain division follows
        # IEEE-754 (x / -0.0 == -inf, 0/0 == nan) — exactly the executor's
        # semantics. (A hand-written b == 0 special case here once dropped
        # the zero's sign; hypothesis found it.)
        return a / b
    # The executor's np.minimum/np.maximum: NaN when either operand is
    # NaN, the second operand when they compare equal (0.0 and -0.0).
    # Python's min/max return the first operand in both cases, which
    # hypothesis found as min(0.0, nan) == 0.0.
    if op == "min":
        if math.isnan(a) or math.isnan(b):
            return math.nan
        return a if a < b else b
    if op == "max":
        if math.isnan(a) or math.isnan(b):
            return math.nan
        return a if a > b else b
    raise AssertionError(op)


def _interp_unary(op: str, a: float) -> float:
    if op == "mov":
        return a
    if op == "neg":
        return -a
    if op == "abs":
        return abs(a)
    if op == "floor":
        # math.floor raises on nan/inf; the executor's np.floor follows
        # IEEE-754 and propagates them unchanged.
        if math.isnan(a) or math.isinf(a):
            return a
        return float(math.floor(a))
    raise AssertionError(op)


def _interp_cmp(cmp: str, a: float, b: float) -> bool:
    return {"lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b,
            "eq": a == b, "ne": a != b}[cmp]


def reference_run(lines: list[tuple], initial: np.ndarray) -> np.ndarray:
    """Scalar per-lane interpretation of the generated program."""
    regs = initial.copy()
    preds = np.zeros((NUM_PREDS, WARP), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _interpret(lines, regs, preds)
    return regs


def _interpret(lines, regs, preds) -> None:
    for line in lines:
        kind = line[0]
        for lane in range(WARP):
            if kind == "bin":
                _, op, d, a, b, guard = line
                if guard is not None and not preds[guard][lane]:
                    continue
                regs[d][lane] = _interp_binary(op, regs[a][lane], regs[b][lane])
            elif kind == "un":
                _, op, d, a, guard = line
                if guard is not None and not preds[guard][lane]:
                    continue
                regs[d][lane] = _interp_unary(op, regs[a][lane])
            elif kind == "imm":
                _, d, value, guard = line
                if guard is not None and not preds[guard][lane]:
                    continue
                regs[d][lane] = value
            elif kind == "setp":
                _, cmp, p, a, b = line
                preds[p][lane] = _interp_cmp(cmp, regs[a][lane], regs[b][lane])
            elif kind == "selp":
                _, d, a, b, p = line
                regs[d][lane] = (regs[a][lane] if preds[p][lane]
                                 else regs[b][lane])


def to_assembly(lines: list[tuple]) -> str:
    out = [".kernel main regs=8", "main:"]
    for line in lines:
        kind = line[0]
        if kind == "bin":
            _, op, d, a, b, guard = line
            prefix = f"@p{guard} " if guard is not None else ""
            out.append(f"    {prefix}{op} r{d}, r{a}, r{b};")
        elif kind == "un":
            _, op, d, a, guard = line
            prefix = f"@p{guard} " if guard is not None else ""
            out.append(f"    {prefix}{op} r{d}, r{a};")
        elif kind == "imm":
            _, d, value, guard = line
            prefix = f"@p{guard} " if guard is not None else ""
            out.append(f"    {prefix}mov r{d}, {value!r};")
        elif kind == "setp":
            _, cmp, p, a, b = line
            out.append(f"    setp.{cmp} p{p}, r{a}, r{b};")
        elif kind == "selp":
            _, d, a, b, p = line
            out.append(f"    selp r{d}, r{a}, r{b}, p{p};")
    out.append("    exit;")
    return "\n".join(out)


def simulator_run(lines: list[tuple], initial: np.ndarray) -> np.ndarray:
    program = assemble(to_assembly(lines))
    machine = MachineState(
        program=program, global_mem=GlobalMemory(16),
        const_mem=np.zeros(4),
        reconv_table=reconvergence_table(program))
    warp = Warp.launch(0, WARP, 8, 0, np.arange(WARP),
                       np.ones(WARP, dtype=bool))
    warp.regs[:NUM_REGS] = initial
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while not warp.done:
            execute(warp, machine)
    return warp.regs[:NUM_REGS]


reg_index = st.integers(0, NUM_REGS - 1)
pred_index = st.integers(0, NUM_PREDS - 1)
maybe_guard = st.one_of(st.none(), pred_index)
value = st.floats(min_value=-100, max_value=100, allow_nan=False)

instruction = st.one_of(
    st.tuples(st.just("bin"), st.sampled_from(BINARY_OPS), reg_index,
              reg_index, reg_index, maybe_guard),
    st.tuples(st.just("un"), st.sampled_from(UNARY_OPS), reg_index,
              reg_index, maybe_guard),
    st.tuples(st.just("imm"), reg_index, value, maybe_guard),
    st.tuples(st.just("setp"), st.sampled_from(CMPS), pred_index,
              reg_index, reg_index),
    st.tuples(st.just("selp"), reg_index, reg_index, reg_index, pred_index),
)

programs = st.lists(instruction, min_size=1, max_size=25)
initials = st.lists(value, min_size=NUM_REGS * WARP,
                    max_size=NUM_REGS * WARP)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(programs, initials)
    # min(0.0, 0/0): NaN in the executor, 0.0 under Python's min.
    @example(lines=[("bin", "add", 0, 0, 0, None),
                    ("bin", "div", 1, 0, 0, None),
                    ("bin", "min", 0, 0, 1, None)],
             initial_values=[0.0] * (NUM_REGS * WARP))
    def test_executor_matches_reference(self, lines, initial_values):
        initial = np.array(initial_values).reshape(NUM_REGS, WARP)
        expected = reference_run([tuple(l) for l in lines], initial)
        actual = simulator_run([tuple(l) for l in lines], initial)
        # Bit-exact comparison; NaNs must match positionally too.
        assert np.array_equal(np.isnan(expected), np.isnan(actual))
        mask = ~np.isnan(expected)
        assert np.array_equal(expected[mask], actual[mask])

    def test_guarded_divide_by_zero(self):
        lines = [
            ("imm", 0, 0.0, None),
            ("imm", 1, 5.0, None),
            ("setp", "gt", 0, 1, 0),
            ("bin", "div", 2, 1, 0, 0),
        ]
        initial = np.zeros((NUM_REGS, WARP))
        expected = reference_run(lines, initial)
        actual = simulator_run(lines, initial)
        assert np.array_equal(np.isinf(expected), np.isinf(actual))
