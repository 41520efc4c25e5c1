"""Divergence study: reproduce the paper's Figure 3 vs Figure 7 contrast.

Runs the conference benchmark under traditional PDOM branching and under
dynamic µ-kernels (with and without spawn-memory bank conflicts), then
prints the warp-occupancy breakdowns side by side — the terminal analogue
of the paper's AerialVision plots.

Run:  python examples/divergence_study.py [scene]
"""

from __future__ import annotations

import sys

from repro.analysis.divergence import render_breakdown
from repro.api import prepare_workload, simulate
from repro.harness.presets import SimPreset

PRESET = SimPreset(name="study", num_sms=1, image_width=32, image_height=32,
                   scene_detail=0.4, kd_max_depth=12, kd_leaf_size=8,
                   max_cycles=200_000, divergence_window=2_000)


def main() -> None:
    scene = sys.argv[1] if len(sys.argv) > 1 else "conference"
    workload = prepare_workload(scene, PRESET)
    print(f"scene: {scene}, {len(workload.tree.triangles)} triangles, "
          f"{workload.num_rays} rays, first {PRESET.max_cycles} cycles\n")

    results = []
    for title, mode in (
            ("Figure 3 — traditional PDOM branching", "pdom_block"),
            ("Figure 7 — dynamic µ-kernels (conflict-free)", "spawn"),
            ("Figure 9 — dynamic µ-kernels (bank conflicts)",
             "spawn_conflicts")):
        result = simulate(workload, mode)
        results.append(result)
        print(title)
        print(render_breakdown(result.stats.divergence))
        print(f"IPC={result.ipc:.1f}  efficiency="
              f"{result.simt_efficiency:.2f}  verified={result.verify()}\n")

    pdom, spawn, conflicts = results
    print("summary (paper values for the full-size machine in parens):")
    print(f"  spawn / PDOM IPC ratio:     {spawn.ipc / pdom.ipc:.2f}x (1.9x)")
    print(f"  conflicts / PDOM IPC ratio: "
          f"{conflicts.ipc / pdom.ipc:.2f}x (1.3x)")


if __name__ == "__main__":
    main()
