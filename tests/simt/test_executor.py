"""Functional executor tests: one warp instruction at a time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.isa import assemble
from repro.isa.cfg import reconvergence_table
from repro.simt.banked import BankedMemory
from repro.simt.executor import ALU, CONTROL, OFFCHIP, ONCHIP, SPAWN, MachineState, execute
from repro.simt.memory import GlobalMemory
from repro.simt.warp import Warp

WARP = 8


def machine_for(source: str, mem_words: int = 256,
                const=None) -> MachineState:
    program = assemble(source)
    return MachineState(
        program=program,
        global_mem=GlobalMemory(mem_words),
        const_mem=np.asarray(const if const is not None else np.arange(32.0)),
        reconv_table=reconvergence_table(program),
    )


def fresh_warp(machine: MachineState, entry="main", active=None) -> Warp:
    active = np.ones(WARP, dtype=bool) if active is None else active
    return Warp.launch(0, WARP, 48, machine.program.kernels[entry].entry_pc,
                       np.arange(WARP), active,
                       shared_mem=BankedMemory(128, model_conflicts=False),
                       spawn_mem=BankedMemory(256, model_conflicts=False))


def run_to_completion(machine: MachineState, warp: Warp, limit=10_000):
    steps = 0
    while not warp.done and steps < limit:
        execute(warp, machine)
        steps += 1
    assert warp.done, "warp did not finish"
    return steps


def body(text: str, **kwargs):
    machine = machine_for(f".kernel main regs=48\nmain:\n{text}\n    exit;\n",
                          **kwargs)
    warp = fresh_warp(machine)
    return machine, warp


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 2.0, 3.5, 5.5),
        ("sub", 2.0, 3.5, -1.5),
        ("mul", 2.0, 3.5, 7.0),
        ("div", 7.0, 2.0, 3.5),
        ("min", 2.0, 3.5, 2.0),
        ("max", 2.0, 3.5, 3.5),
        ("rem", 7.0, 4.0, 3.0),
        ("and", 6.0, 3.0, 2.0),
        ("or", 6.0, 3.0, 7.0),
        ("xor", 6.0, 3.0, 5.0),
        ("shl", 3.0, 2.0, 12.0),
        ("shr", 12.0, 2.0, 3.0),
    ])
    def test_binary(self, op, a, b, expected):
        machine, warp = body(f"""
    mov r1, {a};
    mov r2, {b};
    {op} r3, r1, r2;
""")
        for _ in range(3):
            execute(warp, machine)
        assert np.all(warp.regs[3] == expected)

    @pytest.mark.parametrize("op,a,expected", [
        ("mov", -2.5, -2.5),
        ("neg", -2.5, 2.5),
        ("abs", -2.5, 2.5),
        ("rcp", 4.0, 0.25),
        ("sqrt", 9.0, 3.0),
        ("rsqrt", 4.0, 0.5),
        ("floor", 2.75, 2.0),
        ("cvt", -2.75, -2.0),
        ("not", 0.0, -1.0),
    ])
    def test_unary(self, op, a, expected):
        machine, warp = body(f"""
    mov r1, {a};
    {op} r2, r1;
""")
        execute(warp, machine)
        execute(warp, machine)
        assert np.all(warp.regs[2] == expected)

    def test_mad(self):
        machine, warp = body("""
    mov r1, 2;
    mov r2, 3;
    mov r3, 4;
    mad r4, r1, r2, r3;
""")
        for _ in range(4):
            execute(warp, machine)
        assert np.all(warp.regs[4] == 10.0)

    def test_div_by_zero_gives_inf(self):
        machine, warp = body("""
    mov r1, 1;
    mov r2, 0;
    div r3, r1, r2;
""")
        with np.errstate(divide="ignore"):
            for _ in range(3):
                execute(warp, machine)
        assert np.all(np.isinf(warp.regs[3]))

    def test_rem_by_zero_gives_zero(self):
        machine, warp = body("""
    mov r1, 7;
    mov r2, 0;
    rem r3, r1, r2;
""")
        for _ in range(3):
            execute(warp, machine)
        assert np.all(warp.regs[3] == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
           st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_add_matches_numpy(self, a, b):
        machine, warp = body(f"""
    mov r1, {a!r};
    mov r2, {b!r};
    add r3, r1, r2;
""")
        for _ in range(3):
            execute(warp, machine)
        assert np.all(warp.regs[3] == np.float64(a) + np.float64(b))


class TestPredication:
    def test_setp_and_selp(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    setp.lt p0, r1, 4;
    selp r2, 100, 200, p0;
""")
        for _ in range(3):
            execute(warp, machine)
        assert warp.regs[2].tolist() == [100] * 4 + [200] * 4

    def test_guarded_alu_skips_lanes(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    mov r2, -1;
    setp.ge p0, r1, 6;
    @p0 mov r2, 7;
""")
        for _ in range(4):
            execute(warp, machine)
        assert warp.regs[2].tolist() == [-1] * 6 + [7, 7]

    def test_negated_guard(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    setp.ge p0, r1, 6;
    mov r2, 0;
    @!p0 mov r2, 5;
""")
        for _ in range(4):
            execute(warp, machine)
        assert warp.regs[2].tolist() == [5] * 6 + [0, 0]

    @pytest.mark.parametrize("cmp,expected", [
        ("lt", [True, False, False]),
        ("le", [True, True, False]),
        ("gt", [False, False, True]),
        ("ge", [False, True, True]),
        ("eq", [False, True, False]),
        ("ne", [True, False, True]),
    ])
    def test_compare_kinds(self, cmp, expected):
        machine, warp = body(f"""
    mov r1, SREG.tid;
    setp.{cmp} p0, r1, 1;
""")
        execute(warp, machine)
        execute(warp, machine)
        assert warp.preds[0][:3].tolist() == expected


class TestSpecialRegisters:
    def test_tid(self):
        machine, warp = body("    mov r1, SREG.tid;")
        execute(warp, machine)
        assert warp.regs[1].tolist() == list(range(WARP))

    def test_spawn_mem_addr(self):
        machine, warp = body("    mov r1, SREG.spawnMemAddr;")
        warp.spawn_addr[:] = np.arange(WARP) * 12
        execute(warp, machine)
        assert warp.regs[1].tolist() == [i * 12 for i in range(WARP)]

    def test_warpid(self):
        machine, warp = body("    mov r1, SREG.warpid;")
        execute(warp, machine)
        assert np.all(warp.regs[1] == 0)


class TestMemory:
    def test_global_load_store(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    add r2, r1, 100;
    st.global [r1+0], r2;
    ld.global r3, [r1+0];
""")
        for _ in range(4):
            execute(warp, machine)
        assert warp.regs[3].tolist() == [100 + i for i in range(WARP)]

    def test_vector_load(self):
        machine, warp = body("""
    mov r1, 0;
    ld.global.v4 r4, [r1+0];
""")
        machine.global_mem.load_array(0, np.array([9.0, 8.0, 7.0, 6.0]))
        execute(warp, machine)
        execute(warp, machine)
        assert warp.regs[4][0] == 9.0
        assert warp.regs[7][0] == 6.0

    def test_vector_store(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    mul r1, r1, 4;
    mov r4, 1;
    mov r5, 2;
    mov r6, 3;
    mov r7, 4;
    st.global.v4 [r1+0], r4;
""", mem_words=64)
        for _ in range(7):
            execute(warp, machine)
        assert machine.global_mem.words[:8].tolist() == [1, 2, 3, 4, 1, 2, 3, 4]

    def test_masked_load_preserves_inactive(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    mov r2, -5;
    setp.lt p0, r1, 2;
    @p0 ld.global r2, [r1+0];
""")
        machine.global_mem.load_array(0, np.array([42.0, 43.0]))
        for _ in range(4):
            execute(warp, machine)
        assert warp.regs[2].tolist() == [42, 43] + [-5] * 6

    def test_const_is_read_only(self):
        machine, warp = body("    mov r1, 0;\n    ld.const r2, [r1+3];")
        execute(warp, machine)
        result = execute(warp, machine)
        assert result.kind == ONCHIP
        assert np.all(warp.regs[2] == 3.0)

    def test_shared_memory_roundtrip(self):
        machine, warp = body("""
    mov r1, SREG.tid;
    st.shared [r1+0], r1;
    ld.shared r2, [r1+0];
""")
        for _ in range(3):
            execute(warp, machine)
        assert warp.regs[2].tolist() == list(range(WARP))

    def test_out_of_range_raises(self):
        machine, warp = body("""
    mov r1, 99999;
    ld.global r2, [r1+0];
""")
        execute(warp, machine)
        from repro.errors import MemoryError_
        with pytest.raises(MemoryError_):
            execute(warp, machine)

    def test_result_kinds(self):
        machine, warp = body("""
    mov r1, 0;
    ld.global r2, [r1+0];
    ld.shared r3, [r1+0];
    add r4, r2, r3;
""")
        kinds = [execute(warp, machine).kind for _ in range(4)]
        assert kinds == [ALU, OFFCHIP, ONCHIP, ALU]


class TestControlFlow:
    def test_uniform_branch(self):
        machine, warp = body("""
    bra END;
    mov r1, 1;
END:
    mov r2, 2;
""")
        result = execute(warp, machine)
        assert result.kind == CONTROL
        assert warp.pc == machine.program.labels["END"]

    def test_divergent_branch_and_reconvergence(self):
        source = """
.kernel main regs=8
main:
    mov r1, SREG.tid;
    mov r3, 0;
    setp.lt p0, r1, 4;
    @p0 bra THEN;
    mov r3, 10;
    bra JOIN;
THEN:
    mov r3, 20;
JOIN:
    add r3, r3, 1;
    exit;
"""
        machine = machine_for(source)
        warp = fresh_warp(machine)
        run_to_completion(machine, warp)
        assert warp.regs[3].tolist() == [21] * 4 + [11] * 4

    def test_loop_with_varying_trip_counts(self):
        source = """
.kernel main regs=8
main:
    mov r1, SREG.tid;
    mov r2, 0;
LOOP:
    add r2, r2, 1;
    setp.lt p0, r2, r1;
    @p0 bra LOOP;
    exit;
"""
        machine = machine_for(source)
        warp = fresh_warp(machine)
        run_to_completion(machine, warp)
        expected = [max(1, i) for i in range(WARP)]
        assert warp.regs[2].tolist() == expected

    def test_exit_retires_lanes(self):
        source = """
.kernel main regs=8
main:
    mov r1, SREG.tid;
    setp.lt p0, r1, 3;
    @p0 exit;
    mov r2, 9;
    exit;
"""
        machine = machine_for(source)
        warp = fresh_warp(machine)
        execute(warp, machine)
        execute(warp, machine)
        result = execute(warp, machine)
        assert result.exited_lanes == 3
        assert not result.warp_finished
        assert warp.active_count == WARP - 3
        execute(warp, machine)
        result = execute(warp, machine)
        assert result.warp_finished
        assert warp.done

    def test_exit_commits_only_remaining(self):
        source = """
.kernel main regs=8
main:
    mov r1, SREG.tid;
    setp.lt p0, r1, 4;
    @p0 exit;
    mov r2, 1;
    exit;
"""
        machine = machine_for(source)
        warp = fresh_warp(machine)
        run_to_completion(machine, warp)
        assert warp.regs[2][4:].tolist() == [1] * 4
        assert warp.regs[2][:4].tolist() == [0] * 4

    def test_lane_commit_counts(self):
        source = """
.kernel main regs=8
main:
    mov r1, SREG.tid;
    mov r2, 0;
LOOP:
    add r2, r2, 1;
    setp.lt p0, r2, r1;
    @p0 bra LOOP;
    exit;
"""
        machine = machine_for(source)
        warp = fresh_warp(machine)
        run_to_completion(machine, warp)
        # Lane i runs: 2 setup + 3 per iteration + exit.
        expected = [2 + 3 * max(1, i) + 1 for i in range(WARP)]
        assert warp.lane_commits.tolist() == expected

    def test_no_active_lanes_raises(self):
        machine, warp = body("    mov r1, 0;")
        warp.stack.retire_lanes(np.ones(WARP, dtype=bool))
        warp.finish_if_empty()
        with pytest.raises(ExecutionError):
            execute(warp, machine)


class TestSpawnInstruction:
    SOURCE = """
.kernel main regs=8 state=2
.kernel child regs=8 state=2
main:
    mov r1, SREG.tid;
    setp.lt p0, r1, 5;
    @p0 spawn $child, r1;
    exit;
child:
    exit;
"""

    def test_spawn_request_contents(self):
        machine = machine_for(self.SOURCE)
        warp = fresh_warp(machine)
        execute(warp, machine)
        execute(warp, machine)
        result = execute(warp, machine)
        assert result.kind == SPAWN
        assert result.spawn.kernel_name == "child"
        assert result.spawn.pointers.tolist() == [0, 1, 2, 3, 4]
        assert result.spawn.target_pc == machine.program.kernels["child"].entry_pc

    def test_spawn_sets_spawned_flag(self):
        machine = machine_for(self.SOURCE)
        warp = fresh_warp(machine)
        for _ in range(3):
            execute(warp, machine)
        assert warp.spawned_flag.tolist() == [True] * 5 + [False] * 3

    def test_exit_frees_only_unspawned_chains(self):
        machine = machine_for(self.SOURCE)
        warp = fresh_warp(machine)
        warp.data_slot_addr[:] = np.arange(WARP) * 2
        for _ in range(3):
            execute(warp, machine)
        result = execute(warp, machine)  # exit
        assert result.warp_finished
        assert sorted(result.freed_data_addresses.tolist()) == [10, 12, 14]
