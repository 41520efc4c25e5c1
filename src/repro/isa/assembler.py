"""Text assembler and disassembler for the repro ISA.

The syntax is PTX-flavoured, matching the paper's Example 2:

.. code-block:: text

    .kernel microKernel regs=20 state=12 shared=56 local=384 const=24
    microKernel:
        mov rd1, SREG.spawnMemAddr;        # special register read
        ld.spawnMem r1, [rd1+0];           # scalar spawn-memory load
        ld.global.v4 r4, [r2+8];           # 4-wide vector load
        setp.lt p0, r1, r2;                # predicate set
        @p0 bra LOOP;                      # predicated branch
        @p0 spawn $microKernel_option_1, rd1;
        @p0 exit;
        st.spawnMem [rd1+4], r2;
        exit;

Register tokens ``r<N>`` and ``rd<N>`` share one namespace (``rd`` is
PTX's 64-bit flavour; our simulator registers are 64-bit lanes already).
Comments start with ``#`` or ``//``; trailing semicolons are optional.
"""

from __future__ import annotations

import math
import re

from repro.errors import AssemblerError
from repro.isa.instructions import (
    ARITH_OPS,
    ATOMIC_OPS,
    CMP_OPS,
    MEMORY_SPACES,
    SPECIAL_REGISTERS,
    UNARY_OPS,
    Instruction,
    Operand,
    imm,
    preg,
    reg,
    sreg,
)
from repro.isa.program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_][\w.$]*):$")
_KERNEL_RE = re.compile(r"^\.kernel\s+([A-Za-z_][\w.$]*)\s*(.*)$")
_KV_RE = re.compile(r"([a-z_]+)\s*=\s*(\d+)")
_GUARD_RE = re.compile(r"^@(!?)p(\d+)\s+(.*)$")
_MEM_RE = re.compile(r"^\[\s*(rd?\d+)\s*([+-]\s*\d+)?\s*\]$")

#: Accepted aliases for memory spaces in opcode suffixes.
_SPACE_ALIASES = {
    "global": "global", "local": "local", "const": "const",
    "shared": "shared", "spawn": "spawn", "spawnmem": "spawn",
}


def _parse_operand(token: str, line_number: int) -> Operand:
    token = token.strip()
    match = re.fullmatch(r"rd?(\d+)", token)
    if match:
        return reg(int(match.group(1)))
    match = re.fullmatch(r"p(\d+)", token)
    if match:
        return preg(int(match.group(1)))
    if token.startswith("SREG."):
        name = token[len("SREG."):]
        if name not in SPECIAL_REGISTERS:
            raise AssemblerError(f"unknown special register {name!r}", line_number)
        return sreg(name)
    try:
        return imm(float(int(token, 0)))
    except ValueError:
        pass
    try:
        return imm(float(token))
    except ValueError:
        raise AssemblerError(f"cannot parse operand {token!r}", line_number) from None


def _parse_memref(token: str, line_number: int) -> tuple[Operand, int]:
    match = _MEM_RE.match(token.strip())
    if not match:
        raise AssemblerError(f"malformed memory reference {token!r}", line_number)
    base = _parse_operand(match.group(1), line_number)
    offset = int(match.group(2).replace(" ", "")) if match.group(2) else 0
    return base, offset


def _split_operands(text: str) -> list[str]:
    """Split on commas not inside brackets."""
    parts, depth, current = [], 0, []
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_opcode(word: str, line_number: int) -> tuple[str, str | None, int, str | None]:
    """Return (op, space, width, cmp) from a dotted opcode token."""
    parts = word.split(".")
    op = parts[0]
    space: str | None = None
    width = 1
    cmp: str | None = None
    for suffix in parts[1:]:
        lowered = suffix.lower()
        if lowered in _SPACE_ALIASES:
            space = _SPACE_ALIASES[lowered]
        elif lowered in CMP_OPS or (op == "atom" and lowered in ATOMIC_OPS):
            cmp = lowered
        elif re.fullmatch(r"v[124]", lowered):
            width = int(lowered[1])
        elif lowered in ("f32", "f64", "s32", "u32", "s64", "u64", "pred"):
            continue  # type suffixes are accepted and ignored
        else:
            raise AssemblerError(f"unknown opcode suffix {suffix!r}", line_number)
    return op, space, width, cmp


def _parse_instruction(text: str, line_number: int) -> Instruction:
    pred = None
    pred_neg = False
    guard = _GUARD_RE.match(text)
    if guard:
        pred_neg = guard.group(1) == "!"
        pred = preg(int(guard.group(2)))
        text = guard.group(3)
    pieces = text.split(None, 1)
    opcode_word = pieces[0]
    operand_text = pieces[1] if len(pieces) > 1 else ""
    op, space, width, cmp = _parse_opcode(opcode_word, line_number)
    operands = _split_operands(operand_text)
    common = dict(pred=pred, pred_neg=pred_neg)

    try:
        if op in ("exit", "nop", "bar"):
            if operands:
                raise AssemblerError(f"{op} takes no operands", line_number)
            if op == "bar" and pred is not None:
                raise AssemblerError("bar cannot be predicated (all "
                                     "threads must reach it)", line_number)
            return Instruction(op, **common)
        if op == "bra":
            if len(operands) != 1:
                raise AssemblerError("bra takes one label", line_number)
            return Instruction(op, label=operands[0].lstrip("$"), **common)
        if op == "spawn":
            if len(operands) != 2:
                raise AssemblerError("spawn takes a label and a register", line_number)
            pointer = _parse_operand(operands[1], line_number)
            return Instruction(op, label=operands[0].lstrip("$"),
                               srcs=(pointer,), **common)
        if op == "ld":
            if len(operands) != 2:
                raise AssemblerError("ld takes dst and [addr]", line_number)
            dst = _parse_operand(operands[0], line_number)
            base, offset = _parse_memref(operands[1], line_number)
            return Instruction(op, dst=dst, srcs=(base,), space=space,
                               width=width, offset=offset, **common)
        if op == "st":
            if len(operands) != 2:
                raise AssemblerError("st takes [addr] and src", line_number)
            base, offset = _parse_memref(operands[0], line_number)
            src = _parse_operand(operands[1], line_number)
            return Instruction(op, srcs=(base, src), space=space,
                               width=width, offset=offset, **common)
        if op == "atom":
            if len(operands) != 3:
                raise AssemblerError("atom takes dst, [addr], src",
                                     line_number)
            dst = _parse_operand(operands[0], line_number)
            base, offset = _parse_memref(operands[1], line_number)
            src = _parse_operand(operands[2], line_number)
            return Instruction(op, dst=dst, srcs=(base, src),
                               space=space or "global", cmp=cmp,
                               offset=offset, **common)
        if op == "setp":
            if len(operands) != 3:
                raise AssemblerError("setp takes pdst, a, b", line_number)
            dst = _parse_operand(operands[0], line_number)
            if dst.kind != "p":
                raise AssemblerError("setp destination must be a predicate", line_number)
            a = _parse_operand(operands[1], line_number)
            b = _parse_operand(operands[2], line_number)
            return Instruction(op, dst=dst, srcs=(a, b), cmp=cmp, **common)
        if op == "selp":
            if len(operands) != 4:
                raise AssemblerError("selp takes dst, a, b, p", line_number)
            parsed = [_parse_operand(token, line_number) for token in operands]
            return Instruction(op, dst=parsed[0], srcs=tuple(parsed[1:]), **common)
        if op == "mad":
            if len(operands) != 4:
                raise AssemblerError("mad takes dst, a, b, c", line_number)
            parsed = [_parse_operand(token, line_number) for token in operands]
            return Instruction(op, dst=parsed[0], srcs=tuple(parsed[1:]), **common)
        if op in ARITH_OPS:
            if len(operands) != 3:
                raise AssemblerError(f"{op} takes dst, a, b", line_number)
            parsed = [_parse_operand(token, line_number) for token in operands]
            return Instruction(op, dst=parsed[0], srcs=tuple(parsed[1:]), **common)
        if op in UNARY_OPS:
            if len(operands) != 2:
                raise AssemblerError(f"{op} takes dst, a", line_number)
            dst = _parse_operand(operands[0], line_number)
            src = _parse_operand(operands[1], line_number)
            return Instruction(op, dst=dst, srcs=(src,), **common)
    except ValueError as exc:
        raise AssemblerError(str(exc), line_number) from exc
    raise AssemblerError(f"unknown opcode {op!r}", line_number)


def assemble(source: str) -> Program:
    """Assemble ``source`` text into a finalized :class:`Program`."""
    program = Program()
    kernel_directives: list[tuple[str, dict[str, int], int]] = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].split("//", 1)[0].strip()
        if line.endswith(";"):
            line = line[:-1].rstrip()
        if not line:
            continue
        kernel_match = _KERNEL_RE.match(line)
        if kernel_match:
            name = kernel_match.group(1)
            params = {key: int(value) for key, value in _KV_RE.findall(kernel_match.group(2))}
            kernel_directives.append((name, params, line_number))
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            try:
                program.add_label(label_match.group(1))
            except Exception as exc:
                raise AssemblerError(str(exc), line_number) from exc
            continue
        program.add(_parse_instruction(line, line_number))
    for name, params, line_number in kernel_directives:
        if name not in program.labels:
            raise AssemblerError(f".kernel {name!r} has no matching label", line_number)
        program.add_kernel(
            name,
            registers=params.get("regs", 16),
            state_words=params.get("state", 0),
            shared_bytes=params.get("shared", 0),
            local_bytes=params.get("local", 0),
            const_bytes=params.get("const", 0),
        )
    try:
        return program.finalize()
    except Exception as exc:
        raise AssemblerError(str(exc)) from exc


def _format_operand(operand: Operand) -> str:
    if operand.kind == "r":
        return f"r{operand.value}"
    if operand.kind == "p":
        return f"p{operand.value}"
    if operand.kind == "sreg":
        return f"SREG.{operand.value}"
    value = float(operand.value)
    # -0.0 is integral too, but "0" would reassemble as +0.0.
    negative_zero = value == 0.0 and math.copysign(1.0, value) < 0.0
    if value.is_integer() and not negative_zero:
        return str(int(value))
    return repr(value)


def disassemble(program: Program) -> str:
    """Render a program back to assembly text.

    ``assemble(disassemble(p))`` rebuilds ``p``, immediates bit for bit
    (``-0.0``, ``nan`` and ``inf`` included).
    """
    pc_labels: dict[int, list[str]] = {}
    for name, pc in program.labels.items():
        pc_labels.setdefault(pc, []).append(name)
    lines: list[str] = []
    for info in sorted(program.kernels.values(), key=lambda k: k.entry_pc):
        lines.append(
            f".kernel {info.name} regs={info.registers} state={info.state_words} "
            f"shared={info.shared_bytes} local={info.local_bytes} "
            f"const={info.const_bytes}")
    for pc, inst in enumerate(program.instructions):
        for name in pc_labels.get(pc, ()):
            lines.append(f"{name}:")
        lines.append("    " + _format_instruction(inst))
    for name in pc_labels.get(len(program.instructions), ()):
        lines.append(f"{name}:")
    return "\n".join(lines) + "\n"


def _format_instruction(inst: Instruction) -> str:
    guard = inst.guard_repr()
    op = inst.op
    if inst.cmp:
        op += f".{inst.cmp}"
    if inst.space:
        op += f".{inst.space}"
    if inst.width > 1:
        op += f".v{inst.width}"
    if inst.op in ("exit", "nop", "bar"):
        return f"{guard}{op};"
    if inst.op == "bra":
        return f"{guard}{op} {inst.label};"
    if inst.op == "spawn":
        return f"{guard}{op} ${inst.label}, {_format_operand(inst.srcs[0])};"
    if inst.op == "ld":
        addr = f"[{_format_operand(inst.srcs[0])}{inst.offset:+d}]"
        return f"{guard}{op} {_format_operand(inst.dst)}, {addr};"
    if inst.op == "st":
        addr = f"[{_format_operand(inst.srcs[0])}{inst.offset:+d}]"
        return f"{guard}{op} {addr}, {_format_operand(inst.srcs[1])};"
    if inst.op == "atom":
        addr = f"[{_format_operand(inst.srcs[0])}{inst.offset:+d}]"
        return (f"{guard}{op} {_format_operand(inst.dst)}, {addr}, "
                f"{_format_operand(inst.srcs[1])};")
    parts = [_format_operand(inst.dst)] + [_format_operand(s) for s in inst.srcs]
    return f"{guard}{op} {', '.join(parts)};"
