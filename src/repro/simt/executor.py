"""Functional execution of one warp instruction (lane-vectorized).

The executor applies an instruction to every active lane of a warp using
masked numpy operations, updates the SIMT stack for control flow, and
returns an :class:`IssueResult` describing the timing-relevant side effects
(memory addresses to coalesce, bank-conflict penalties, spawn requests,
lane exits). :func:`ready_cycle` turns a result into latency, for the SM
and for the DWF core alike.

Decode happens once per static instruction, not once per issue: the first
time a PC is executed the instruction is *compiled* into a closure (a
"plan") that has already resolved the opcode dispatch, operand fetchers,
guard predicate, and reconvergence metadata. Plans are cached on the
:class:`MachineState` (indexed by PC, looked up through
:meth:`MachineState.plan_at`) so the per-issue cost is just the closure
call plus the numpy work itself. A GPU builds one machine state and hands
it to every SM, so each PC is compiled once per launch however many SMs
run it. A plan therefore captures nothing of one SM: on-chip ``ld``/``st``
plans reach the issuing SM's shared and spawn memory through the warp
(:attr:`Warp.shared_mem`, :attr:`Warp.spawn_mem`), bound once when the SM
admits it. Immediate operands are served
from a process-wide read-only array cache keyed by (type, value, width) —
warp widths vary between machines: the SM's warps are ``warp_size`` lanes
wide, DWF's single lane view (:mod:`repro.simt.dwf`) one lane per thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.isa.instructions import Instruction
from repro.simt.warp import FINISHED, Warp

#: IssueResult.kind values.
ALU = "alu"
OFFCHIP = "offchip"
ONCHIP = "onchip"
SPAWN = "spawn"
CONTROL = "control"
BARRIER = "barrier"

#: Every kind, in instruction-mix reporting order (see repro.obs).
ISSUE_KINDS = (ALU, CONTROL, ONCHIP, OFFCHIP, SPAWN, BARRIER)

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)


@dataclass(slots=True)
class SpawnRequest:
    """Active lanes asking to create children for one µ-kernel."""

    kernel_name: str
    target_pc: int
    pointers: np.ndarray  # spawn-memory pointers, one per spawning lane


@dataclass(slots=True)
class IssueResult:
    """Timing-relevant outcome of issuing one warp instruction."""

    kind: str
    active: int
    addresses: np.ndarray | None = None
    is_store: bool = False
    conflict_penalty: int = 0
    spawn: SpawnRequest | None = None
    completions: int = 0
    exited_lanes: int = 0
    warp_finished: bool = False
    onchip_words: int = 0
    freed_data_addresses: np.ndarray = field(
        default_factory=lambda: _EMPTY_I64)
    """Spawn-memory thread-data slots released by exiting thread chains
    (threads that exit without having spawned a child; paper §IV-A1)."""
    simple: bool = False
    """True for the shared cached ALU/CONTROL results: the only effect on
    the SM is ``ready_at = cycle + alu_latency`` (no exits, completions,
    freed slots, stalls, or retirement), letting the issue path skip the
    side-effect bookkeeping entirely."""


class MachineState:
    """What every core of one machine shares: the program, global and
    constant memory, the reconvergence table, the per-PC compiled plan
    cache (see module docstring) and the snapshot hook.

    A :class:`~repro.simt.gpu.GPU` builds one and hands it to all of its
    SMs; a DWF run builds one for its core. On-chip memories belong to
    each core and are not held here: a warp carries its core's."""

    def __init__(self, program, global_mem, const_mem, reconv_table):
        self.program = program
        self.global_mem = global_mem
        self.const_mem = const_mem
        self.reconv_table = reconv_table
        self.plans: list = [None] * len(program)
        self.snapshot = None
        """Optional architectural-state snapshot hook (see
        :class:`repro.simt.snapshot.SnapshotRecorder`). When attached, the
        exit plan reports each retiring lane's final register file and the
        finished warp's stack counters; None (the default) keeps the hot
        path branch-predictable and allocation-free. Exit plans read the
        hook when they are compiled, so attach it before the run."""

    def plan_at(self, pc: int):
        """The compiled plan of the instruction at ``pc``, compiled on first
        use; a PC outside the program raises :class:`ExecutionError`."""
        plans = self.plans
        if not 0 <= pc < len(plans):
            raise ExecutionError("PC outside program", pc=pc)
        plan = plans[pc]
        if plan is None:
            plan = plans[pc] = _compile(self.program[pc], self)
        return plan


def _int64(values: np.ndarray) -> np.ndarray:
    return values.astype(np.int64)


def _op_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def _op_rem(a, b):
    ib = _int64(b)
    safe = np.where(ib == 0, 1, ib)
    return np.where(ib == 0, 0, _int64(a) % safe).astype(np.float64)


def _op_and(a, b):
    return (_int64(a) & _int64(b)).astype(np.float64)


def _op_or(a, b):
    return (_int64(a) | _int64(b)).astype(np.float64)


def _op_xor(a, b):
    return (_int64(a) ^ _int64(b)).astype(np.float64)


def _op_shl(a, b):
    return (_int64(a) << _int64(b)).astype(np.float64)


def _op_shr(a, b):
    return (_int64(a) >> _int64(b)).astype(np.float64)


_BINARY_OPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _op_div,
    "min": np.minimum, "max": np.maximum, "rem": _op_rem, "and": _op_and,
    "or": _op_or, "xor": _op_xor, "shl": _op_shl, "shr": _op_shr,
}


def _op_mov(a):
    return a


def _op_not(a):
    return (~_int64(a)).astype(np.float64)


def _op_rcp(a):
    with np.errstate(divide="ignore"):
        return 1.0 / a


def _op_sqrt(a):
    with np.errstate(invalid="ignore"):
        return np.sqrt(a)


def _op_rsqrt(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / np.sqrt(a)


_UNARY_OPS = {
    "mov": _op_mov, "neg": np.negative, "abs": np.abs, "not": _op_not,
    "rcp": _op_rcp, "sqrt": _op_sqrt, "rsqrt": _op_rsqrt, "floor": np.floor,
    "cvt": np.trunc,
}


_COMPARES = {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}

#: Read-only replicated immediates keyed by (type, value, width); typed so
#: ``np.full(n, 1)`` (int64) and ``np.full(n, 1.0)`` (float64) stay distinct.
#: Float zeros additionally key on their sign: ``-0.0 == 0.0`` (same hash),
#: but ``1.0 / -0.0`` is ``-inf`` while ``1.0 / 0.0`` is ``+inf``, so letting
#: the two zeros share a cache slot would make results depend on which sign
#: was interned first.
_IMM_CACHE: dict = {}


def _imm_array(value, size: int) -> np.ndarray:
    key = (type(value), value, size)
    if isinstance(value, float) and value == 0.0:
        key += (math.copysign(1.0, value),)
    arr = _IMM_CACHE.get(key)
    if arr is None:
        arr = np.full(size, value)
        arr.setflags(write=False)
        _IMM_CACHE[key] = arr
    return arr


def _replicated_fetch(value):
    """Per-plan inline cache of a replicated constant; keyed only on the
    warp width (constant for a GPU run and for a DWF run, whose one warp
    has a lane per thread)."""
    last_size = -1
    last_arr = None

    def fetch(warp: Warp) -> np.ndarray:
        nonlocal last_size, last_arr
        size = warp.warp_size
        if size != last_size:
            last_arr = np.full(size, value)
            last_arr.setflags(write=False)
            last_size = size
        return last_arr
    return fetch


def _compile_fetch(operand):
    """Resolve an operand into a ``fetch(warp) -> ndarray`` closure."""
    kind = operand.kind
    if kind == "r":
        index = operand.value
        return lambda warp: warp.reg_rows[index]
    if kind == "imm":
        return _replicated_fetch(operand.value)
    if kind == "p":
        index = operand.value
        return lambda warp: warp.pred_rows[index].astype(np.float64)
    if kind == "sreg":
        name = operand.value
        if name == "tid":
            return lambda warp: warp.tids.astype(np.float64)
        if name == "spawnMemAddr":
            return lambda warp: warp.spawn_addr.astype(np.float64)
        if name == "warpid":
            return lambda warp: _imm_array(float(warp.warp_id),
                                           warp.warp_size)
        if name == "ntid":
            return lambda warp: _imm_array(float(warp.warp_size),
                                           warp.warp_size)
        if name == "smid":
            return _replicated_fetch(0.0)
    raise ExecutionError(f"cannot fetch operand {operand!r}")


class _ResultCache(dict):
    """Shared immutable IssueResults keyed by active count, filled on first
    miss. An ALU or control result depends only on the count, so plans index
    these dicts directly (``_ALU_RESULTS[count]``) with no helper call.
    Treat cached instances as frozen — the SM only ever reads them."""

    def __init__(self, kind: str):
        super().__init__()
        self._kind = kind

    def __missing__(self, count: int) -> IssueResult:
        result = self[count] = IssueResult(kind=self._kind, active=count,
                                           simple=True)
        return result


_ALU_RESULTS = _ResultCache(ALU)
_CONTROL_RESULTS = _ResultCache(CONTROL)


def _compile_guard(inst: Instruction):
    """Guard-predicate closure, or None when the instruction is unguarded
    (callers then use the active mask directly, saving an allocation)."""
    if inst.pred is None:
        return None
    index = inst.pred.value
    if inst.pred_neg:
        return lambda warp, active: active & ~warp.pred_rows[index]
    return lambda warp, active: active & warp.pred_rows[index]


def execute(warp: Warp, machine: MachineState) -> IssueResult:
    """Execute the instruction at the warp's PC; returns its IssueResult."""
    entries = warp.stack.entries
    if not entries:
        raise ExecutionError("reconvergence stack underflow")
    top = entries[-1]
    pc = top.pc
    plan = machine.plan_at(pc)
    if warp.status == FINISHED or top.count == 0:
        raise ExecutionError("issued a warp with no active lanes", pc=pc)
    # Batched per-lane commit accounting: consecutive issues under the
    # same mask object fold into one count (see Warp.lane_commits).
    mask = top.mask
    if mask is warp._commit_mask:
        warp._commit_count += 1
    else:
        warp.flush_commits()
        warp._commit_mask = mask
        warp._commit_count = 1
    return plan(warp, top)


def ready_cycle(result: IssueResult, cycle: int, config, dram) -> int:
    """The cycle at which the lanes that issued ``result`` at ``cycle`` may
    issue again: the one latency rule of the SM and the DWF core.

    On-chip accesses take ``config.onchip_latency`` plus their bank-conflict
    penalty; off-chip accesses with addresses complete when ``dram`` (a
    :class:`~repro.simt.memory.DRAM`, queued here) delivers them, plus the
    atomic serialization penalty; everything else takes
    ``config.alu_latency``.
    """
    kind = result.kind
    if kind == ONCHIP:
        return cycle + config.onchip_latency + result.conflict_penalty
    if kind == OFFCHIP:
        addresses = result.addresses
        if addresses is not None and addresses.size:
            return (dram.access(cycle, addresses, result.is_store)
                    + result.conflict_penalty)
    return cycle + config.alu_latency


# -- plan compilation ---------------------------------------------------------


def _compile(inst: Instruction, machine: MachineState):
    """Build the issue closure for one static instruction."""
    op = inst.op
    if op == "bra":
        return _compile_branch(inst, machine)
    if op == "exit":
        return _compile_exit(inst, machine)
    if op in ("ld", "st"):
        return _compile_memory(inst, machine)
    if op == "atom":
        return _compile_atomic(inst, machine)
    if op == "bar":
        return _compile_bar(inst)
    if op == "spawn":
        return _compile_spawn(inst, machine)
    return _compile_alu(inst)


def _compile_alu(inst: Instruction):
    next_pc = inst.pc + 1
    guard = _compile_guard(inst)
    write = _compile_write(inst)

    # An unguarded full warp writes with where=True: every lane, and no
    # mask for the ufunc to test. NaN comparisons are quiet because both
    # run loops (GPU and DWF) execute plans under a blanket
    # np.errstate(invalid="ignore").
    def plan(warp: Warp, top) -> IssueResult:
        count = top.count
        if guard is not None:
            where = guard(warp, top.mask)
        elif count == warp.warp_size:
            where = True
        else:
            where = top.mask
        write(warp, where)
        top.pc = next_pc
        if next_pc == top.reconv_pc and len(warp.stack.entries) > 1:
            warp.stack._pop_reconverged()
        return _ALU_RESULTS[count]
    return plan


def _compile_write(inst: Instruction):
    """The ``write(warp, where)`` closure of an ALU instruction: compute
    the result and store it into the destination row's ``where`` lanes
    (``True`` for all of them). Masked-out lanes keep their value."""
    op = inst.op
    if op == "nop":
        return lambda warp, where: None
    dst = inst.dst.value
    fetch_a = _compile_fetch(inst.srcs[0])
    if op == "setp":
        fetch_b = _compile_fetch(inst.srcs[1])
        compare = _COMPARES[inst.cmp]

        def write(warp: Warp, where) -> None:
            compare(fetch_a(warp), fetch_b(warp), out=warp.pred_rows[dst],
                    where=where)
        return write
    to_reg = inst.dst.kind != "p"
    if op == "selp":
        fetch_b = _compile_fetch(inst.srcs[1])
        chooser = inst.srcs[2].value
        if to_reg and inst.srcs[0] != inst.dst:
            # Fused select on a full write: copy the not-taken value, then
            # overwrite the taken lanes, skipping np.where's temporary. The
            # first source is read second, so it must not be the
            # destination.
            def write(warp: Warp, where) -> None:
                dest = warp.reg_rows[dst]
                pred = warp.pred_rows[chooser]
                if where is True:
                    np.copyto(dest, fetch_b(warp))
                    np.copyto(dest, fetch_a(warp), where=pred)
                else:
                    np.copyto(dest, np.where(pred, fetch_a(warp),
                                             fetch_b(warp)), where=where)
            return write

        def compute(warp: Warp) -> np.ndarray:
            return np.where(warp.pred_rows[chooser], fetch_a(warp),
                            fetch_b(warp))
    elif op == "mad":
        fetch_b = _compile_fetch(inst.srcs[1])
        fetch_c = _compile_fetch(inst.srcs[2])
        if to_reg:
            # Fused masked update: the ufunc computes straight into the
            # destination row, skipping the temporary + copyto.
            def write(warp: Warp, where) -> None:
                np.add(fetch_a(warp) * fetch_b(warp), fetch_c(warp),
                       out=warp.reg_rows[dst], where=where)
            return write

        def compute(warp: Warp) -> np.ndarray:
            return fetch_a(warp) * fetch_b(warp) + fetch_c(warp)
    elif len(inst.srcs) == 2:
        fetch_b = _compile_fetch(inst.srcs[1])
        fn2 = _BINARY_OPS.get(op)
        if fn2 is None:
            raise ExecutionError(f"unhandled binary op {op!r}")
        if to_reg and isinstance(fn2, np.ufunc):
            def write(warp: Warp, where) -> None:
                fn2(fetch_a(warp), fetch_b(warp), out=warp.reg_rows[dst],
                    where=where)
            return write

        def compute(warp: Warp) -> np.ndarray:
            return fn2(fetch_a(warp), fetch_b(warp))
    else:
        fn1 = _UNARY_OPS.get(op)
        if fn1 is None:
            raise ExecutionError(f"unhandled unary op {op!r}")
        if to_reg and fn1 is _op_mov:
            def write(warp: Warp, where) -> None:
                np.copyto(warp.reg_rows[dst], fetch_a(warp), where=where)
            return write
        if to_reg and isinstance(fn1, np.ufunc):
            def write(warp: Warp, where) -> None:
                fn1(fetch_a(warp), out=warp.reg_rows[dst], where=where)
            return write

        def compute(warp: Warp) -> np.ndarray:
            return fn1(fetch_a(warp))

    if to_reg:
        def write(warp: Warp, where) -> None:
            np.copyto(warp.reg_rows[dst], compute(warp), where=where)
    else:
        def write(warp: Warp, where) -> None:
            np.copyto(warp.pred_rows[dst], compute(warp) != 0.0, where=where)
    return write


def _compile_branch(inst: Instruction, machine: MachineState):
    pc = inst.pc
    next_pc = pc + 1
    target = inst.target

    if inst.pred is None:
        def plan(warp: Warp, top) -> IssueResult:
            top.pc = target
            if target == top.reconv_pc and len(warp.stack.entries) > 1:
                warp.stack._pop_reconverged()
            return _CONTROL_RESULTS[top.count]
        return plan

    guard = _compile_guard(inst)
    reconv = machine.reconv_table.get(pc)

    def plan(warp: Warp, top) -> IssueResult:
        active = top.mask
        count = top.count
        taken = guard(warp, active)
        # One reduction decides uniformity: taken is a subset of active,
        # so "no lane falls through" is exactly taken_count == count.
        taken_count = int(taken.sum())
        if taken_count == 0:
            top.pc = next_pc
            if next_pc == top.reconv_pc and len(warp.stack.entries) > 1:
                warp.stack._pop_reconverged()
        elif taken_count == count:
            top.pc = target
            if target == top.reconv_pc and len(warp.stack.entries) > 1:
                warp.stack._pop_reconverged()
        else:
            if reconv is None:
                raise ExecutionError("divergent branch missing reconvergence "
                                     "point", pc=pc)
            warp.stack.diverge(taken, active & ~taken, target, next_pc,
                               reconv)
        return _CONTROL_RESULTS[count]
    return plan


def _compile_exit(inst: Instruction, machine: MachineState):
    pc = inst.pc
    next_pc = pc + 1
    guard = _compile_guard(inst)
    snapshot = machine.snapshot

    def plan(warp: Warp, top) -> IssueResult:
        active_count = top.count
        if guard is None:
            mask = top.mask
            exiting = active_count
        else:
            mask = guard(warp, top.mask)
            exiting = int(mask.sum())
        if exiting == 0:
            warp.stack.advance(next_pc)
            return _CONTROL_RESULTS[active_count]
        executing_entry = top
        if snapshot is not None:
            snapshot.on_exit(warp, mask)
        ends_chain = mask & ~warp.spawned_flag & (warp.data_slot_addr >= 0)
        freed = warp.data_slot_addr[ends_chain]
        warp.data_slot_addr[mask] = -1
        warp.stack.retire_lanes(mask)
        finished = warp.finish_if_empty()
        if snapshot is not None and finished:
            snapshot.on_warp_finished(warp)
        entries = warp.stack.entries
        if not finished and entries and entries[-1] is executing_entry:
            warp.stack.advance(next_pc)
        return IssueResult(kind=CONTROL, active=active_count,
                           exited_lanes=exiting, warp_finished=finished,
                           freed_data_addresses=freed)
    return plan


def _compile_bar(inst: Instruction):
    pc = inst.pc
    next_pc = pc + 1

    def plan(warp: Warp, top) -> IssueResult:
        if warp.stack.depth != 1:
            raise ExecutionError(
                "bar reached with divergent control flow; all threads of "
                "the block must reach the barrier together", pc=pc)
        warp.stack.advance(next_pc)
        return IssueResult(kind=BARRIER, active=top.count)
    return plan


def _compile_spawn(inst: Instruction, machine: MachineState):
    next_pc = inst.pc + 1
    guard = _compile_guard(inst)
    pointer_reg = inst.srcs[0].value
    kernel_name = inst.label
    info = machine.program.kernels[kernel_name]
    target_pc = info.entry_pc

    def plan(warp: Warp, top) -> IssueResult:
        mask = top.mask if guard is None else guard(warp, top.mask)
        pointers = _int64(warp.reg_rows[pointer_reg][mask])
        warp.spawned_flag |= mask
        warp.stack.advance(next_pc)
        return IssueResult(
            kind=SPAWN, active=top.count,
            spawn=SpawnRequest(kernel_name=kernel_name,
                               target_pc=target_pc, pointers=pointers))
    return plan


def _compile_memory(inst: Instruction, machine: MachineState):
    next_pc = inst.pc + 1
    guard = _compile_guard(inst)
    base_reg = inst.srcs[0].value
    offset = inst.offset
    width = inst.width
    word_offsets = np.arange(width)[None, :]
    space = inst.space
    is_store = inst.op == "st"

    if space == "const" and is_store:
        raise ExecutionError("constant memory is read-only", pc=inst.pc)

    if is_store:
        src = inst.srcs[1]
        store_imm = src.value if src.kind == "imm" else None
        store_reg = src.value if src.kind != "imm" else None
    load_reg = inst.dst.value if not is_store else None

    # ``lanes is None`` means every lane of the warp is active (the common
    # fully-converged case): the helpers then skip np.nonzero and the fancy
    # gather/scatter indexing in favour of whole-row operations.

    def active_lanes(warp: Warp, top):
        if guard is None:
            if top.count == warp.warp_size:
                return None, top.count
            lanes = np.nonzero(top.mask)[0]
        else:
            lanes = np.nonzero(guard(warp, top.mask))[0]
        return lanes, lanes.size

    def gather_addresses(warp: Warp, lanes) -> np.ndarray:
        row = warp.reg_rows[base_reg]
        base = _int64(row if lanes is None else row[lanes]) + offset
        if width == 1:
            return base
        # Column-major stacking keeps per-lane words adjacent for
        # coalescing.
        return (base[:, None] + word_offsets).reshape(-1)

    def store_values(warp: Warp, lanes, n: int) -> np.ndarray:
        if store_imm is not None:
            return np.full(n * width, store_imm)
        if width == 1:
            row = warp.reg_rows[store_reg]
            return row if lanes is None else row[lanes]
        # One 2D block read instead of per-word row gathers; the
        # transpose keeps the same per-lane word adjacency as stacking
        # the rows column-wise.
        block = warp.regs[store_reg:store_reg + width]
        if lanes is not None:
            block = block[:, lanes]
        return block.T.reshape(-1)

    def load_values(warp: Warp, lanes, n: int, values: np.ndarray) -> None:
        if width == 1:
            if lanes is None:
                np.copyto(warp.reg_rows[load_reg], values)
            else:
                warp.reg_rows[load_reg][lanes] = values
            return
        grid = values.reshape(n, width)
        if lanes is None:
            np.copyto(warp.regs[load_reg:load_reg + width], grid.T)
        else:
            warp.regs[load_reg:load_reg + width, lanes] = grid.T

    if space in ("global", "local"):
        memory = machine.global_mem

        def plan(warp: Warp, top) -> IssueResult:
            lanes, n = active_lanes(warp, top)
            if n == 0:
                warp.stack.advance(next_pc)
                return _ALU_RESULTS[top.count]
            all_addresses = gather_addresses(warp, lanes)
            completions = 0
            if is_store:
                completions = memory.write(all_addresses,
                                           store_values(warp, lanes, n))
            else:
                load_values(warp, lanes, n, memory.read(all_addresses))
            warp.stack.advance(next_pc)
            return IssueResult(kind=OFFCHIP, active=top.count,
                               addresses=all_addresses, is_store=is_store,
                               completions=completions)
        return plan

    if space == "const":
        const_mem = machine.const_mem

        def plan(warp: Warp, top) -> IssueResult:
            lanes, n = active_lanes(warp, top)
            if n == 0:
                warp.stack.advance(next_pc)
                return _ALU_RESULTS[top.count]
            all_addresses = gather_addresses(warp, lanes)
            load_values(warp, lanes, n, const_mem[all_addresses])
            warp.stack.advance(next_pc)
            # The constant cache (present on the modelled GT200 even though
            # Table I disables L1/L2 data caches) makes uniform constant
            # reads an on-chip broadcast: low latency, no DRAM traffic.
            return IssueResult(kind=ONCHIP, active=top.count,
                               addresses=all_addresses, is_store=False,
                               onchip_words=int(all_addresses.size))
        return plan

    # On-chip memory is the issuing core's own, so the plan finds it on the
    # warp rather than capturing one core's memory.
    is_shared = space == "shared"

    def plan(warp: Warp, top) -> IssueResult:
        lanes, n = active_lanes(warp, top)
        if n == 0:
            warp.stack.advance(next_pc)
            return _ALU_RESULTS[top.count]
        all_addresses = gather_addresses(warp, lanes)
        onchip = warp.shared_mem if is_shared else warp.spawn_mem
        if is_store:
            penalty = onchip.write(all_addresses,
                                   store_values(warp, lanes, n))
        else:
            values, penalty = onchip.read(all_addresses)
            load_values(warp, lanes, n, values)
        warp.stack.advance(next_pc)
        return IssueResult(kind=ONCHIP, active=top.count,
                           addresses=all_addresses, is_store=is_store,
                           conflict_penalty=penalty,
                           onchip_words=int(all_addresses.size))
    return plan


#: Extra serialization cycles per conflicting atomic lane (the paper's
#: related-work note: "atomic instructions result in higher instruction
#: latencies to serialize the instructions operating on the same data").
ATOMIC_SERIALIZATION_CYCLES = 2


def _compile_atomic(inst: Instruction, machine: MachineState):
    """Serialized read-modify-write on global memory, in lane order."""
    next_pc = inst.pc + 1
    guard = _compile_guard(inst)
    address_reg = inst.srcs[0].value
    offset = inst.offset
    operand = inst.srcs[1]
    dst = inst.dst.value
    cmp = inst.cmp
    memory = machine.global_mem

    def plan(warp: Warp, top) -> IssueResult:
        mask = top.mask if guard is None else guard(warp, top.mask)
        lanes = np.nonzero(mask)[0]
        if lanes.size == 0:
            warp.stack.advance(next_pc)
            return _ALU_RESULTS[top.count]
        addresses = _int64(warp.reg_rows[address_reg][lanes]) + offset
        values = (np.full(lanes.size, operand.value)
                  if operand.kind == "imm"
                  else warp.reg_rows[operand.value][lanes])
        memory._check(addresses)
        old = np.empty(lanes.size)
        for index in range(lanes.size):
            address = int(addresses[index])
            current = memory.words[address]
            old[index] = current
            if cmp == "add":
                memory.words[address] = current + values[index]
            elif cmp == "max":
                memory.words[address] = max(current, values[index])
            elif cmp == "min":
                memory.words[address] = min(current, values[index])
            else:  # exch
                memory.words[address] = values[index]
        warp.reg_rows[dst][lanes] = old
        penalty = ATOMIC_SERIALIZATION_CYCLES * (int(lanes.size) - 1)
        warp.stack.advance(next_pc)
        return IssueResult(kind=OFFCHIP, active=top.count,
                           addresses=addresses, is_store=True,
                           conflict_penalty=penalty)
    return plan
