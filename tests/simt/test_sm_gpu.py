"""SM + GPU integration tests: scheduling models, occupancy, end-to-end."""

import dataclasses
import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.config import scaled_config
from repro.errors import ConfigError, SchedulingError
from repro.harness.presets import get_preset
from repro.harness.runner import (
    config_for_mode,
    image_for_workload,
    launch_for_workload,
    prepare_workload,
)
from repro.isa import assemble
from repro.simt import GPU, GlobalMemory, LaunchSpec, executor

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
    mov r5, 0;
    ld.const r5, [r5+0];
    add r3, r0, r5;
    mul r4, r1, 10;
    st.global [r3+0], r4;
    exit;
"""

SPAWN_KERNEL = """
.kernel K0 regs=8 state=4
.kernel K1 regs=8 state=4
K0:
    mov r6, SREG.spawnMemAddr;
    mov r0, SREG.tid;
    ld.global r2, [r0+0];
    mov r1, 0;
    st.spawn [r6+0], r1;
    st.spawn [r6+1], r2;
    st.spawn [r6+2], r0;
    spawn $K1, r6;
    exit;
K1:
    mov r6, SREG.spawnMemAddr;
    ld.spawn r5, [r6+0];
    mov r6, r5;
    ld.spawn r1, [r6+0];
    ld.spawn r2, [r6+1];
    ld.spawn r0, [r6+2];
    add r1, r1, 1;
    setp.lt p0, r1, r2;
    st.spawn [r6+0], r1;
    @p0 spawn $K1, r6;
    @p0 exit;
    mov r7, 0;
    ld.const r7, [r7+0];
    add r3, r0, r7;
    mul r4, r1, 10;
    st.global [r3+0], r4;
    exit;
"""


def trip_count_memory(num_threads, trips):
    """Memory for the loop kernels: thread ``i`` of ``n`` reads its trip
    count from global word ``i`` and stores ten times it at word
    ``n + i``; constant word 0 holds that results base ``n``."""
    mem = GlobalMemory(2 * num_threads)
    mem.load_array(0, np.asarray(trips, dtype=float))
    mem.set_result_range(num_threads, num_threads, stride=1)
    return mem, np.array([float(num_threads)])


def results(mem, num_threads):
    """The loop kernels' result words."""
    return mem.words[num_threads:2 * num_threads]


def run_loop_kernel(num_threads=64, scheduling="warp", num_sms=1,
                    trips=None, **config_overrides):
    program = assemble(LOOP_KERNEL)
    trips = np.arange(1, num_threads + 1) if trips is None else trips
    mem, const = trip_count_memory(num_threads, trips)
    config_overrides.setdefault("max_cycles", 500_000)
    config = scaled_config(num_sms, scheduling=scheduling,
                           **config_overrides)
    launch = LaunchSpec(program=program, entry_kernel="main",
                        num_threads=num_threads, registers_per_thread=8,
                        block_size=64)
    gpu = GPU(config, launch, mem, const)
    stats = gpu.run()
    return gpu, stats, mem, trips


class TestPDOMExecution:
    def test_results_correct(self):
        gpu, stats, mem, trips = run_loop_kernel()
        assert np.array_equal(results(mem, 64), trips * 10.0)

    def test_all_rays_complete(self):
        _, stats, _, _ = run_loop_kernel()
        assert stats.rays_completed == 64

    def test_partial_last_warp(self):
        gpu, stats, mem, trips = run_loop_kernel(num_threads=40)
        assert stats.rays_completed == 40
        assert np.array_equal(results(mem, 40), trips * 10.0)

    def test_divergence_recorded(self):
        _, stats, _, _ = run_loop_kernel()
        totals = stats.divergence.totals()
        assert totals.sum() > 0
        assert totals[:-1].sum() > 0  # the ramp causes partial warps

    def test_uniform_trips_stay_converged(self):
        trips = np.full(64, 5)
        _, stats, _, _ = run_loop_kernel(trips=trips)
        totals = stats.divergence.totals()
        # All issues should be full-warp (highest bucket only).
        assert totals[:-1].sum() == 0
        assert stats.simt_efficiency == 1.0

    def test_multi_sm_distribution(self):
        gpu, stats, mem, trips = run_loop_kernel(num_threads=256, num_sms=2)
        assert stats.rays_completed == 256
        assert np.array_equal(results(mem, 256), trips * 10.0)
        launched = [sm.stats.threads_launched for sm in gpu.sms]
        assert all(count > 0 for count in launched)

    def test_thirty_sms(self):
        """The paper's 30 SMs, one 64-thread block each."""
        trips = 1 + np.arange(1920) % 64
        gpu, stats, mem, _ = run_loop_kernel(num_threads=1920, num_sms=30,
                                             trips=trips)
        assert stats.rays_completed == 1920
        assert np.array_equal(results(mem, 1920), trips * 10.0)
        assert all(sm.stats.threads_launched == 64 for sm in gpu.sms)

    def test_ipc_positive_and_bounded(self):
        _, stats, _, _ = run_loop_kernel()
        assert 0 < stats.ipc <= stats.config.peak_ipc


class TestSchedulingModels:
    def test_block_scheduling_limits_residency(self):
        program = assemble(LOOP_KERNEL)
        config_block = scaled_config(1, scheduling="block")
        config_warp = scaled_config(1, scheduling="warp")
        launch = LaunchSpec(program=program, entry_kernel="main",
                            num_threads=2048, registers_per_thread=20,
                            block_size=64)
        mem = GlobalMemory(4096)
        gpu_b = GPU(config_block, launch, mem)
        gpu_w = GPU(config_warp, launch, GlobalMemory(4096))
        # Block: 8 blocks x 2 warps; warp: register-limited (25 warps).
        assert gpu_b.sms[0].max_warps == 16
        assert gpu_w.sms[0].max_warps == 25

    def test_zero_warps_raises(self):
        program = assemble(LOOP_KERNEL)
        launch = LaunchSpec(program=program, entry_kernel="main",
                            num_threads=64, registers_per_thread=2000,
                            block_size=64)
        with pytest.raises(ConfigError):
            GPU(scaled_config(1), launch, GlobalMemory(512))

    def test_block_mode_completes(self):
        _, stats, mem, trips = run_loop_kernel(scheduling="block")
        assert stats.rays_completed == 64


class TestSpawnExecution:
    def run_spawn(self, num_threads=64, num_sms=1, trips=None, **overrides):
        program = assemble(SPAWN_KERNEL)
        trips = np.arange(1, num_threads + 1) if trips is None else trips
        mem, const = trip_count_memory(num_threads, trips)
        overrides.setdefault("max_cycles", 1_000_000)
        config = scaled_config(num_sms, spawn_enabled=True, **overrides)
        launch = LaunchSpec(program=program, entry_kernel="K0",
                            num_threads=num_threads, registers_per_thread=8,
                            block_size=32, state_words=4)
        gpu = GPU(config, launch, mem, const)
        stats = gpu.run()
        return gpu, stats, mem, trips

    def test_results_correct(self):
        _, stats, mem, trips = self.run_spawn()
        assert np.array_equal(results(mem, 64), trips * 10.0)
        assert stats.rays_completed == 64

    def test_thirty_sms(self):
        trips = 1 + np.arange(1920) % 8
        gpu, stats, mem, _ = self.run_spawn(num_threads=1920, num_sms=30,
                                            trips=trips)
        assert stats.rays_completed == 1920
        assert np.array_equal(results(mem, 1920), trips * 10.0)
        assert stats.sm_stats.threads_spawned == int(trips.sum())
        assert all(sm.stats.threads_launched for sm in gpu.sms)

    def test_spawn_counters(self):
        _, stats, _, trips = self.run_spawn()
        # Each K1 generation is one spawn: sum(trips) total.
        assert stats.sm_stats.threads_spawned == int(trips.sum())

    def test_bank_conflicts_slow_down(self):
        _, fast, _, _ = self.run_spawn()
        _, slow, _, _ = self.run_spawn(spawn_bank_conflicts=True)
        assert slow.sm_stats.bank_conflict_cycles > 0
        assert fast.sm_stats.bank_conflict_cycles == 0
        assert slow.cycles >= fast.cycles

    def test_spawn_without_hardware_raises(self):
        program = assemble(SPAWN_KERNEL)
        mem = GlobalMemory(512)
        mem.load_array(0, np.ones(64))
        launch = LaunchSpec(program=program, entry_kernel="K0",
                            num_threads=64, registers_per_thread=8,
                            block_size=32, state_words=4)
        gpu = GPU(scaled_config(1, max_cycles=100_000), launch, mem)
        with pytest.raises(SchedulingError):
            gpu.run()

    def test_spawn_config_without_targets_raises(self):
        program = assemble(LOOP_KERNEL)
        launch = LaunchSpec(program=program, entry_kernel="main",
                            num_threads=64, registers_per_thread=8,
                            block_size=64, state_words=4)
        with pytest.raises(ConfigError):
            GPU(scaled_config(1, spawn_enabled=True), launch,
                GlobalMemory(512))

    def test_dynamic_warps_have_priority(self):
        gpu, stats, _, _ = self.run_spawn(num_threads=96)
        # Some dynamic warps must have been admitted before all launch
        # warps (otherwise partial flush count explodes); check activity.
        assert stats.sm_stats.full_warps_formed > 0
        assert stats.rays_completed == 96

    def test_max_cycles_caps_run(self):
        gpu, stats, _, _ = self.run_spawn(max_cycles=500)
        assert stats.cycles <= 500
        assert stats.rays_completed < 64


class TestRunStats:
    def test_efficiency_in_unit_range(self):
        _, stats, _, _ = run_loop_kernel()
        assert 0.0 < stats.simt_efficiency <= 1.0

    def test_rays_per_second_scaling(self):
        _, stats, _, _ = run_loop_kernel()
        base = stats.rays_per_second()
        scaled = stats.rays_per_second(scale_to_sms=30)
        assert scaled == pytest.approx(base * 30)

    def test_thread_commits_collected(self):
        _, stats, _, trips = run_loop_kernel()
        assert len(stats.thread_commits) == 64
        # Loop kernel: longer trips mean more committed instructions.
        assert stats.thread_commits[63] > stats.thread_commits[0]

    def test_dram_traffic_counted(self):
        _, stats, _, _ = run_loop_kernel()
        assert stats.dram_read_bytes > 0
        assert stats.dram_write_bytes > 0
        assert stats.dram_transactions > 0


#: Each 64-thread block stores its block number + 1 at the same 64
#: shared-memory addresses, then reads them back into global memory.
SHARED_KERNEL = """
.kernel main regs=8
main:
    mov r0, SREG.tid;
    div r1, r0, 64;
    floor r1, r1;
    add r1, r1, 1;
    rem r2, r0, 64;
    st.shared [r2+0], r1;
    ld.shared r3, [r2+0];
    st.global [r0+0], r3;
    exit;
"""


class TestSharedMachine:
    """One MachineState per GPU: every SM runs the same compiled plans,
    each on its own on-chip memory."""

    def test_every_sm_holds_the_one_machine(self):
        gpu, _, _, _ = run_loop_kernel(num_threads=256, num_sms=4)
        assert {id(sm.machine) for sm in gpu.sms} == {id(gpu.machine)}
        assert len({id(sm.shared_mem) for sm in gpu.sms}) == 4

    @pytest.mark.parametrize("mode", ("pdom_block", "spawn"))
    def test_thirty_sms_compile_each_pc_at_most_once(self, mode,
                                                     monkeypatch):
        """The paper's 30 SMs on the ray-tracing kernels, one 64-thread
        block per SM."""
        compiled = Counter()
        compile_plan = executor._compile

        def counting(inst, machine):
            compiled[inst.pc] += 1
            return compile_plan(inst, machine)

        monkeypatch.setattr(executor, "_compile", counting)
        preset = dataclasses.replace(
            get_preset("tiny"), name="tiny-30sm", num_sms=30,
            image_width=48, image_height=40)
        workload = prepare_workload("conference", preset)
        image = image_for_workload(workload)
        gpu = GPU(config_for_mode(mode, preset),
                  launch_for_workload(mode, workload), image.global_mem,
                  image.const_mem)
        gpu.run(max_cycles=20_000)
        assert all(sm.stats.issued_instructions for sm in gpu.sms)
        assert compiled and max(compiled.values()) == 1
        assert sorted(compiled) == [pc for pc, plan
                                    in enumerate(gpu.machine.plans)
                                    if plan is not None]

    def test_onchip_plans_use_the_issuing_sms_memory(self):
        """Both SMs store to the same shared addresses in lockstep, so a
        plan bound to one SM's memory would hand SM 0 the value SM 1
        stored."""
        mem = GlobalMemory(128)
        launch = LaunchSpec(program=assemble(SHARED_KERNEL),
                            entry_kernel="main", num_threads=128,
                            registers_per_thread=8, block_size=64)
        gpu = GPU(scaled_config(2, scheduling="block"), launch, mem)
        gpu.run()
        assert mem.words[:64].tolist() == [1.0] * 64
        assert mem.words[64:].tolist() == [2.0] * 64
        for sm, value in zip(gpu.sms, (1.0, 2.0)):
            assert sm.shared_mem.words[:64].tolist() == [value] * 64


class TestLifetime:
    @pytest.mark.parametrize("spawn", (False, True))
    def test_dropped_gpu_frees_its_machine_without_the_cycle_collector(
            self, spawn):
        """Compiled plans hold the global and constant memory they touch,
        not the MachineState that caches them, and a warp holds its SM's
        on-chip memories, not the SM. Nothing forms a reference cycle, so
        a machine, one SM or four sharing one MachineState, goes with its
        SMs' memories as soon as the GPU is dropped: after the run, or
        cut off by the cycle cap with warps still resident."""
        run = TestSpawnExecution().run_spawn if spawn else run_loop_kernel
        gc.disable()
        try:
            for num_sms, max_cycles in ((1, None), (4, None), (4, 2_000)):
                gpu, _, _, _ = run(
                    num_threads=64 * num_sms, num_sms=num_sms,
                    max_cycles=max_cycles or 1_000_000)
                case = f"{num_sms} SMs, cap {max_cycles}"
                assert bool(max_cycles) == any(sm.warps for sm in gpu.sms)
                machine = weakref.ref(gpu.machine)
                onchip = [weakref.ref(sm.spawn_mem) for sm in gpu.sms]
                assert any(plan is not None for plan in machine().plans)
                del gpu
                assert machine() is None, case
                assert all(memory() is None for memory in onchip), case
        finally:
            gc.enable()
