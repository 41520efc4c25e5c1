"""GlobalMemory and DRAM timing model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BYTES_PER_WORD, MemoryConfig
from repro.errors import MemoryError_
from repro.simt.memory import DRAM, GlobalMemory


class TestGlobalMemory:
    def test_zero_size_raises(self):
        with pytest.raises(MemoryError_):
            GlobalMemory(0)

    def test_read_write(self):
        mem = GlobalMemory(16)
        mem.write(np.array([1, 3]), np.array([5.0, 7.0]))
        assert mem.read(np.array([3, 1])).tolist() == [7.0, 5.0]

    def test_out_of_range_read(self):
        mem = GlobalMemory(16)
        with pytest.raises(MemoryError_):
            mem.read(np.array([16]))
        with pytest.raises(MemoryError_):
            mem.read(np.array([-1]))

    def test_load_array(self):
        mem = GlobalMemory(16)
        mem.load_array(4, np.arange(6.0).reshape(2, 3))
        assert mem.words[4:10].tolist() == [0, 1, 2, 3, 4, 5]

    def test_load_array_out_of_range(self):
        mem = GlobalMemory(4)
        with pytest.raises(MemoryError_):
            mem.load_array(2, np.zeros(8))

    def test_result_completion_counting(self):
        mem = GlobalMemory(32)
        mem.set_result_range(8, 8, stride=2)
        # Writing ray 0's first word completes it; the second word doesn't.
        assert mem.write(np.array([8]), np.array([1.0])) == 1
        assert mem.write(np.array([9]), np.array([2.0])) == 0
        # Re-writing doesn't double count.
        assert mem.write(np.array([8]), np.array([3.0])) == 0
        assert mem.write(np.array([10, 12]), np.array([0.0, 0.0])) == 2
        assert mem.rays_completed == 3

    def test_writes_outside_result_range_not_counted(self):
        mem = GlobalMemory(32)
        mem.set_result_range(8, 4)
        assert mem.write(np.array([0, 20]), np.array([1.0, 1.0])) == 0

    def test_result_range_validation(self):
        mem = GlobalMemory(8)
        with pytest.raises(MemoryError_):
            mem.set_result_range(4, 8)


class TestDRAMCoalescing:
    def make(self, **kwargs):
        defaults = dict(num_modules=4, bandwidth_bytes_per_cycle=8,
                        latency_cycles=100, segment_bytes=32)
        defaults.update(kwargs)
        return DRAM(MemoryConfig(**defaults))

    def test_same_segment_coalesces_to_one(self):
        dram = self.make()
        words_per_segment = 32 // BYTES_PER_WORD
        dram.access(0, np.arange(words_per_segment), is_store=False)
        assert dram.transactions == 1
        assert dram.read_bytes == 32

    def test_distinct_segments(self):
        dram = self.make()
        addresses = np.array([0, 8, 16, 24])  # 4 different 8-word segments
        dram.access(0, addresses, is_store=False)
        assert dram.transactions == 4
        assert dram.read_bytes == 4 * 32

    def test_duplicate_addresses_broadcast(self):
        dram = self.make()
        dram.access(0, np.zeros(32, dtype=np.int64), is_store=False)
        assert dram.transactions == 1
        assert dram.read_bytes == 32

    def test_access_returns_completion_after_latency(self):
        dram = self.make()
        done = dram.access(0, np.array([0]), is_store=False)
        assert done == 100 + 32 // 8

    def test_module_queueing_serializes(self):
        dram = self.make(num_modules=1)
        first = dram.access(0, np.array([0]), is_store=False)
        second = dram.access(0, np.array([100]), is_store=False)
        assert second == first + 32 // 8

    def test_parallel_modules_overlap(self):
        dram = self.make(num_modules=4)
        # Four segments map to four different modules: same completion.
        done = dram.access(0, np.array([0, 8, 16, 24]), is_store=False)
        assert done == 100 + 4

    def test_bandwidth_accounting(self):
        dram = self.make()
        dram.access(0, np.array([0]), is_store=False)
        dram.access(0, np.array([0]), is_store=True)
        assert dram.read_bytes == 32
        assert dram.write_bytes == 32
        assert dram.transactions == 2

    def test_ideal_memory_is_flat(self):
        dram = self.make(ideal=True)
        done = dram.access(50, np.arange(0, 512, 8), is_store=False)
        assert done == 51
        assert dram.read_bytes > 0  # traffic still counted

    def test_empty_access(self):
        dram = self.make()
        assert dram.access(7, np.array([], dtype=np.int64), False) == 7

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4096), min_size=1,
                    max_size=64))
    def test_completion_never_before_latency(self, addresses):
        dram = self.make()
        done = dram.access(10, np.array(addresses), is_store=False)
        assert done >= 10 + 100 + 4

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4096), min_size=1,
                    max_size=64))
    def test_coalesce_counts_unique_segments(self, addresses):
        dram = self.make()
        segments = {a // 8 for a in addresses}
        dram.access(0, np.array(addresses), is_store=False)
        assert dram.transactions == len(segments)
        assert dram.read_bytes == 32 * len(segments)
