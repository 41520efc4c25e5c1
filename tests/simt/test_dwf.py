"""Dynamic warp formation baseline tests."""

import numpy as np
import pytest

from repro.config import SchedulingModel, scaled_config
from repro.errors import ConfigError, SchedulingError
from repro.isa import assemble
from repro.kernels.layout import build_memory_image
from repro.kernels.traditional import traditional_program
from repro.rt import trace_rays
from repro.simt import GlobalMemory
from repro.simt.dwf import DWFCore, run_dwf

LOOP_KERNEL = """
.kernel main regs=8
main:
    mov r0, SREG.tid;
    ld.global r2, [r0+0];
    mov r1, 0;
LOOP:
    add r1, r1, 1;
    setp.lt p0, r1, r2;
    @p0 bra LOOP;
    add r3, r0, 128;
    mul r4, r1, 10;
    st.global [r3+0], r4;
    exit;
"""


def make_core(program, mem, num_threads):
    """A DWF core on ``program`` that the test can step by hand."""
    from repro.isa.cfg import reconvergence_table
    from repro.simt.banked import BankedMemory
    from repro.simt.executor import MachineState
    from repro.simt.memory import DRAM
    config = scaled_config(1)
    machine = MachineState(program=program, global_mem=mem,
                           const_mem=np.zeros(1),
                           reconv_table=reconvergence_table(program))
    return DWFCore(config, machine, DRAM(config.memory), entry_pc=0,
                   num_regs=program.max_register_index() + 1,
                   num_threads=num_threads, shared_mem=BankedMemory(64))


def run_loop(num_threads=64, **overrides):
    program = assemble(LOOP_KERNEL)
    mem = GlobalMemory(512)
    trips = np.arange(1, num_threads + 1)
    mem.load_array(0, trips.astype(float))
    mem.set_result_range(128, num_threads, stride=1)
    overrides.setdefault("max_cycles", 500_000)
    config = scaled_config(1, **overrides)
    result = run_dwf(config, program, "main", mem, np.zeros(1), num_threads)
    return result, mem, trips


class TestLoopKernel:
    def test_results_correct(self):
        result, mem, trips = run_loop()
        assert np.array_equal(mem.words[128:192], trips * 10.0)
        assert result.rays_completed == 64

    def test_all_threads_retire(self):
        result, _, _ = run_loop()
        assert result.stats.threads_exited == 64

    def test_divergence_recorded(self):
        result, _, _ = run_loop()
        assert result.divergence.totals().sum() > 0

    def test_ipc_positive(self):
        result, _, _ = run_loop()
        assert result.ipc > 0
        assert 0 < result.simt_efficiency <= 1.0

    def test_max_cycles_respected(self):
        result, _, _ = run_loop(max_cycles=100)
        assert result.cycles <= 100
        assert result.rays_completed < 64


class TestRegrouping:
    def test_dwf_beats_pdom_on_incoherent_loop(self):
        """The Fung et al. claim: regrouping by PC recovers loop
        divergence that PDOM serializes."""
        from repro.simt import GPU, LaunchSpec
        rng = np.random.default_rng(0)
        trips = rng.integers(1, 40, size=256)
        program = assemble(LOOP_KERNEL)

        def fresh_memory():
            mem = GlobalMemory(512)
            mem.load_array(0, trips.astype(float))
            mem.set_result_range(128, 256, stride=1)
            return mem

        config = scaled_config(1, max_cycles=500_000)
        mem_dwf = fresh_memory()
        dwf = run_dwf(config, program, "main", mem_dwf, np.zeros(1), 256)
        mem_pdom = fresh_memory()
        launch = LaunchSpec(program=program, entry_kernel="main",
                            num_threads=256, registers_per_thread=8,
                            block_size=32)
        gpu = GPU(config, launch, mem_pdom)
        pdom = gpu.run()
        assert np.array_equal(mem_dwf.words[128:384],
                              mem_pdom.words[128:384])
        assert dwf.cycles < pdom.cycles

    def test_majority_pc_grouping(self):
        program = assemble(LOOP_KERNEL)
        mem = GlobalMemory(512)
        mem.load_array(0, np.ones(64))
        core = make_core(program, mem, 64)
        cases = {
            # 40 threads at pc 3 outvote 24 at pc 5; the group is full.
            "majority": ([3] * 40 + [5] * 24, np.arange(32)),
            # Equal ready counts: the lower PC wins, wherever it sits.
            "tie-lowest-pc": ([5, 3] * 32, np.arange(1, 64, 2)),
            # More than warp_size threads at the winning PC: lowest tids.
            "lowest-tids": ([5] * 10 + [3] * 54, np.arange(10, 42)),
        }
        for name, (pcs, expected) in cases.items():
            core.pcs[:] = pcs
            group = core._select_group(0)
            assert np.array_equal(group, expected), name


class TestErrors:
    def test_zero_threads_raises(self):
        program = assemble(LOOP_KERNEL)
        config = scaled_config(1)
        with pytest.raises(ConfigError):
            run_dwf(config, program, "main", GlobalMemory(512),
                    np.zeros(1), 0)

    def test_spawn_program_rejected(self):
        spawn_source = """
.kernel main regs=8 state=2
.kernel child regs=8 state=2
main:
    mov r1, 0;
    spawn $child, r1;
    exit;
child:
    exit;
"""
        bar_source = """
.kernel main regs=8
main:
    mov r1, 0;
    bar;
    exit;
"""
        config = scaled_config(1)
        for source, match in ((spawn_source, r"spawn instructions \(pc=1\)"),
                              (bar_source, r"bar instructions \(pc=1\)")):
            program = assemble(source)
            with pytest.raises(SchedulingError, match=match):
                run_dwf(config, program, "main", GlobalMemory(64),
                        np.zeros(1), 8)


class TestRayTracing:
    def test_matches_reference(self, tiny_tree, tiny_rays):
        origins, directions = tiny_rays
        reference = trace_rays(tiny_tree, origins, directions)
        image = build_memory_image(tiny_tree, origins, directions)
        config = scaled_config(1, max_cycles=5_000_000)
        result = run_dwf(config, traditional_program(), "trace",
                         image.global_mem, image.const_mem,
                         origins.shape[0])
        assert result.rays_completed == origins.shape[0]
        t, tri = image.results()
        assert np.array_equal(tri, reference.triangle)


#: Uniform control flow through the fused ALU plans, a load and a store.
STRAIGHT_KERNEL = """
.kernel main regs=8
main:
    mov r0, SREG.tid;
    ld.global r1, [r0+0];
    mad r2, r1, 3, r0;
    neg r3, r2;
    abs r4, r3;
    setp.lt p0, r1, 4;
    selp r5, r2, r4, p0;
    mul r6, r5, 0.5;
    add r7, r0, 64;
    st.global [r7+0], r6;
    exit;
"""

PARTIAL_EXIT_KERNEL = """
.kernel main regs=4
main:
    mov r0, SREG.tid;
    setp.lt p0, r0, 3;
    @p0 exit;
    add r1, r0, 100;
    st.global [r0+0], r1;
    exit;
"""

NTID_KERNEL = """
.kernel main regs=4
main:
    mov r0, SREG.tid;
    mov r1, SREG.ntid;
    st.global [r0+0], r1;
    exit;
"""


class TestLaneView:
    """Issue groups run on lanes of one persistent, core-wide warp."""

    @pytest.mark.parametrize("num_threads", [8, 32])
    def test_single_group_matches_pdom_warp(self, num_threads):
        """Every instruction issues once for the whole core, so the plans
        take their unmasked whole-row paths; memory matches PDOM."""
        from repro.simt import GPU, LaunchSpec
        program = assemble(STRAIGHT_KERNEL)

        def fresh_memory():
            mem = GlobalMemory(128)
            mem.load_array(0, np.arange(num_threads, dtype=float) * 1.5)
            mem.set_result_range(64, num_threads, stride=1)
            return mem

        mem_dwf = fresh_memory()
        dwf = run_dwf(scaled_config(1), program, "main", mem_dwf,
                      np.zeros(1), num_threads)
        assert dwf.stats.issued_instructions == len(program)
        assert dwf.stats.committed_thread_instructions == (
            len(program) * num_threads)
        mem_pdom = fresh_memory()
        launch = LaunchSpec(program=program, entry_kernel="main",
                            num_threads=num_threads, registers_per_thread=8,
                            block_size=num_threads)
        config = scaled_config(1, scheduling=SchedulingModel.WARP)
        GPU(config, launch, mem_pdom).run()
        assert np.array_equal(mem_dwf.words, mem_pdom.words)

    def test_predicated_exit_retires_part_of_group(self):
        program = assemble(PARTIAL_EXIT_KERNEL)
        exit_pc = 2
        mem = GlobalMemory(16)
        core = make_core(program, mem, 8)
        cycle = 0
        while core.stats.issued_instructions <= exit_pc:
            core.step(cycle)
            cycle += 1
        assert core.stats.threads_exited == 3
        assert core.live == 5
        assert np.all(core.pcs[3:] == exit_pc + 1)
        assert core._select_group(cycle + 10_000).tolist() == [3, 4, 5, 6, 7]
        while not core.done:
            core.step(cycle)
            cycle += 1
        assert core.stats.threads_exited == 8
        assert np.array_equal(mem.words[:8], [0, 0, 0, 103, 104, 105, 106,
                                              107])

    def test_ntid_reads_core_width(self):
        """``SREG.ntid`` is the lane view's width, not the group size."""
        program = assemble(NTID_KERNEL)
        mem = GlobalMemory(64)
        result = run_dwf(scaled_config(1), program, "main", mem,
                         np.zeros(1), 40)
        assert result.stats.issued_instructions == 2 * len(program)
        assert np.all(mem.words[:40] == 40)
