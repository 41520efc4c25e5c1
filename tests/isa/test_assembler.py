"""Assembler / disassembler tests."""

import dataclasses
import pathlib
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AssemblerError
from repro.fuzz.corpus import load_case
from repro.fuzz.generator import make_case
from repro.isa import assemble, disassemble

MINIMAL = """
.kernel main regs=4
main:
    exit;
"""


def one(op_text: str):
    """Assemble a single instruction inside a trivial kernel."""
    program = assemble(f".kernel main regs=8\nmain:\n    {op_text}\n    exit;\n")
    return program[0]


class TestParsingForms:
    def test_minimal_program(self):
        program = assemble(MINIMAL)
        assert len(program) == 1
        assert program.kernels["main"].registers == 4

    def test_arith(self):
        inst = one("add r1, r2, 3.5;")
        assert inst.op == "add"
        assert inst.dst.value == 1
        assert inst.srcs[1].value == 3.5

    def test_rd_alias(self):
        inst = one("mov rd4, r4;")
        assert inst.dst.value == 4 and inst.srcs[0].value == 4

    def test_mad(self):
        inst = one("mad r1, r2, r3, r4;")
        assert inst.op == "mad" and len(inst.srcs) == 3

    def test_setp_with_type_suffix(self):
        inst = one("setp.lt.f32 p1, r2, 0;")
        assert inst.op == "setp" and inst.cmp == "lt"
        assert inst.dst.kind == "p"

    def test_selp(self):
        inst = one("selp r1, r2, 3, p0;")
        assert inst.op == "selp" and inst.srcs[2].kind == "p"

    def test_ld_scalar(self):
        inst = one("ld.global r1, [r2+8];")
        assert inst.space == "global" and inst.offset == 8 and inst.width == 1

    def test_ld_vector(self):
        inst = one("ld.global.v4 r4, [r2-4];")
        assert inst.width == 4 and inst.offset == -4

    def test_spawnmem_alias(self):
        inst = one("st.spawnMem [r1+0], r2;")
        assert inst.space == "spawn"

    def test_st_immediate_source(self):
        inst = one("st.shared [r1+2], 7;")
        assert inst.srcs[1].kind == "imm"

    def test_guarded(self):
        inst = one("@p2 exit;")
        assert inst.pred.value == 2 and not inst.pred_neg

    def test_negated_guard(self):
        inst = one("@!p0 bra main;")
        assert inst.pred_neg

    def test_sreg(self):
        inst = one("mov r1, SREG.spawnMemAddr;")
        assert inst.srcs[0].kind == "sreg"

    def test_hex_immediate(self):
        inst = one("and r1, r2, 0x1F;")
        assert inst.srcs[1].value == 31.0

    def test_infinity_immediates(self):
        inst = one("mov r1, inf;")
        assert inst.srcs[0].value == float("inf")
        inst = one("mov r1, -inf;")
        assert inst.srcs[0].value == float("-inf")

    def test_comments_stripped(self):
        program = assemble("""
.kernel main regs=2
# full line comment
main:
    exit;  // trailing comment
""")
        assert len(program) == 1

    def test_spawn(self):
        source = """
.kernel main regs=2 state=4
.kernel child regs=2 state=4
main:
    spawn $child, r1;
    exit;
child:
    exit;
"""
        program = assemble(source)
        assert program[0].op == "spawn"
        assert program[0].target == program.kernels["child"].entry_pc


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(AssemblerError):
            one("frobnicate r1;")

    def test_bad_operand_count(self):
        with pytest.raises(AssemblerError):
            one("add r1, r2;")

    def test_malformed_memref(self):
        with pytest.raises(AssemblerError):
            one("ld.global r1, [+4];")

    def test_undefined_label(self):
        with pytest.raises(AssemblerError):
            assemble(".kernel main regs=2\nmain:\n    bra NOWHERE;\n    exit;")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError):
            assemble(".kernel main regs=2\nmain:\nmain:\n    exit;")

    def test_kernel_without_label(self):
        with pytest.raises(AssemblerError):
            assemble(".kernel ghost regs=2\nmain:\n    exit;")

    def test_spawn_to_non_kernel(self):
        with pytest.raises(AssemblerError):
            assemble("""
.kernel main regs=2
main:
    spawn $other, r1;
    exit;
other:
    exit;
""")

    def test_program_must_end_in_exit(self):
        with pytest.raises(AssemblerError):
            assemble(".kernel main regs=2\nmain:\n    mov r1, 2;")

    def test_unknown_suffix(self):
        with pytest.raises(AssemblerError):
            one("add.vec9 r1, r2, r3;")

    def test_error_reports_line_number(self):
        try:
            assemble(".kernel main regs=2\nmain:\n    bogus r1;\n    exit;")
        except AssemblerError as error:
            assert "line 3" in str(error)
        else:
            pytest.fail("expected AssemblerError")

    def test_setp_dst_must_be_predicate(self):
        with pytest.raises(AssemblerError):
            one("setp.lt r1, r2, r3;")


class TestRoundTrip:
    def test_traditional_kernel_round_trips(self):
        from repro.kernels.traditional import traditional_source
        program = assemble(traditional_source())
        text = disassemble(program)
        again = assemble(text)
        assert disassemble(again) == text

    def test_microkernel_round_trips(self):
        from repro.kernels.microkernels import microkernel_source
        program = assemble(microkernel_source())
        text = disassemble(program)
        again = assemble(text)
        assert disassemble(again) == text

    def test_round_trip_preserves_semantics(self):
        source = """
.kernel main regs=8 state=2
main:
    mov r0, SREG.tid;
    setp.ge p0, r0, 4;
    @p0 bra SKIP;
    add r1, r0, 1.25;
SKIP:
    st.global [r0+16], r1;
    exit;
"""
        program = assemble(source)
        again = assemble(disassemble(program))
        assert len(program) == len(again)
        for a, b in zip(program.instructions, again.instructions):
            assert a.op == b.op
            assert a.target == b.target
            assert a.offset == b.offset


def bit_exact(program):
    """``program`` as comparable values, each immediate by its bits:
    under ``==``, ``-0.0`` equals ``0.0`` and NaN equals nothing."""
    def operand(op):
        if op is not None and op.kind == "imm":
            return ("imm", struct.pack("<d", op.value))
        return op

    instructions = [
        dataclasses.replace(inst, dst=None, srcs=())
        for inst in program.instructions]
    operands = [(operand(inst.dst), tuple(map(operand, inst.srcs)))
                for inst in program.instructions]
    return instructions, operands, program.labels, program.kernels


NEGATIVE_ZERO_CASE = (pathlib.Path(__file__).parents[1] / "fuzz" / "corpus"
                      / "negative-zero-immediate.json")


class TestRoundTripBitExact:
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=161)  # a ``mul r7, r2, -0.0``
    @settings(max_examples=60, deadline=None)
    def test_fuzzer_programs_round_trip(self, seed):
        program = make_case(seed).program
        assert bit_exact(assemble(disassemble(program))) \
            == bit_exact(program)

    def test_negative_zero_divisor_keeps_its_sign(self):
        program = load_case(str(NEGATIVE_ZERO_CASE)).program
        assert "div r4, 1, -0.0;" in disassemble(program)
        assert bit_exact(assemble(disassemble(program))) \
            == bit_exact(program)
