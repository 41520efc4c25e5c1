"""Executor edge cases: vector widths on on-chip spaces, guards, nop."""

import numpy as np
import pytest

from repro.isa import assemble
from repro.isa.cfg import reconvergence_table
from repro.simt.banked import BankedMemory
from repro.simt.executor import MachineState, execute
from repro.simt.memory import GlobalMemory
from repro.simt.warp import Warp

WARP = 8


def machine_for(source: str) -> MachineState:
    program = assemble(source)
    return MachineState(
        program=program, global_mem=GlobalMemory(256),
        const_mem=np.arange(32.0),
        reconv_table=reconvergence_table(program))


def run_warp(source: str, limit=1000) -> tuple[Warp, MachineState]:
    machine = machine_for(source)
    warp = Warp.launch(0, WARP, 48, 0, np.arange(WARP),
                       np.ones(WARP, dtype=bool),
                       shared_mem=BankedMemory(256),
                       spawn_mem=BankedMemory(256))
    steps = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        while not warp.done and steps < limit:
            execute(warp, machine)
            steps += 1
    assert warp.done
    return warp, machine


class TestVectorOnchip:
    def test_v2_shared_roundtrip(self):
        warp, _ = run_warp("""
.kernel main regs=48
main:
    mov r1, SREG.tid;
    mul r1, r1, 2;
    mov r4, 10;
    add r5, r4, 1;
    st.shared.v2 [r1+0], r4;
    ld.shared.v2 r6, [r1+0];
    exit;
""")
        assert np.all(warp.regs[6] == 10)
        assert np.all(warp.regs[7] == 11)

    def test_v4_spawn_roundtrip(self):
        warp, _ = run_warp("""
.kernel main regs=48
main:
    mov r1, SREG.tid;
    mul r1, r1, 4;
    mov r4, 1;
    mov r5, 2;
    mov r6, 3;
    mov r7, 4;
    st.spawnMem.v4 [r1+0], r4;
    ld.spawnMem.v4 r8, [r1+0];
    exit;
""")
        for j in range(4):
            assert np.all(warp.regs[8 + j] == j + 1)

    def test_guarded_vector_store_partial(self):
        warp, _ = run_warp("""
.kernel main regs=48
main:
    mov r1, SREG.tid;
    mul r1, r1, 2;
    mov r4, 7;
    mov r5, 8;
    setp.lt p0, SREG.tid, 2;
    @p0 st.shared.v2 [r1+0], r4;
    exit;
""")
        shared = warp.shared_mem.words
        assert shared[:4].tolist() == [7, 8, 7, 8]
        assert np.all(shared[4:16] == 0)


class TestGuardEdges:
    def test_all_lanes_guarded_off_memory_noop(self):
        warp, machine = run_warp("""
.kernel main regs=48
main:
    mov r1, 0;
    setp.gt p0, r1, 1;
    @p0 st.global [r1+0], 9;
    exit;
""")
        assert machine.global_mem.words[0] == 0.0

    def test_guarded_spawn_with_no_lanes_is_alu(self):
        source = """
.kernel main regs=8 state=2
.kernel child regs=8 state=2
main:
    mov r1, 0;
    setp.gt p0, r1, 1;
    @p0 spawn $child, r1;
    exit;
child:
    exit;
"""
        machine = machine_for(source)
        warp = Warp.launch(0, WARP, 8, 0, np.arange(WARP),
                           np.ones(WARP, dtype=bool))
        execute(warp, machine)
        execute(warp, machine)
        result = execute(warp, machine)
        assert result.spawn is not None
        assert result.spawn.pointers.size == 0

    def test_nop_advances(self):
        warp, _ = run_warp("""
.kernel main regs=4
main:
    nop;
    nop;
    exit;
""")
        assert warp.lane_commits.tolist() == [3] * WARP

    def test_setp_guarded_updates_subset(self):
        warp, _ = run_warp("""
.kernel main regs=8
main:
    mov r1, SREG.tid;
    setp.lt p0, r1, 4;
    @p0 setp.ge p1, r1, 0;
    exit;
""")
        assert warp.preds[1].tolist() == [True] * 4 + [False] * 4


class TestSregEdges:
    def test_ntid(self):
        warp, _ = run_warp("""
.kernel main regs=4
main:
    mov r1, SREG.ntid;
    exit;
""")
        assert np.all(warp.regs[1] == WARP)

    def test_smid_zero(self):
        warp, _ = run_warp("""
.kernel main regs=4
main:
    mov r1, SREG.smid;
    exit;
""")
        assert np.all(warp.regs[1] == 0)
