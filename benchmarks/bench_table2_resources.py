"""Table II — per-thread kernel resources and occupancy.

Paper: traditional 22 regs / µ-kernel 20 regs + 48 B spawn state,
yielding 512 threads/SM (block scheduling) vs 800 (µ-kernels).
"""


def bench_table2(figures, report):
    data = figures["table2"]
    report(data["render"])
    occupancy = data["occupancy"]
    assert occupancy["microkernel_threads_per_sm"] == 800
    assert occupancy["traditional_block_threads_per_sm"] == 512
    assert (occupancy["traditional_warp_threads_per_sm"]
            > occupancy["traditional_block_threads_per_sm"])
