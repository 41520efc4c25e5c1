"""Simulation presets: scale the paper's experiment to a Python budget.

The paper simulates a 30-SM machine at 256x256 for the first 300k cycles.
SMs are independent (no inter-SM communication in the paper's model), so
a preset simulates fewer SMs on the full 8-module memory partition
(:func:`repro.config.scaled_config` explains why it is not scaled down);
rays/s numbers are scaled back to 30 SMs by the runner. Scene ``detail``
scales the procedural triangle counts (DESIGN.md documents the scene
substitution).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class SimPreset:
    """One simulation scale."""

    name: str
    num_sms: int
    image_width: int
    image_height: int
    scene_detail: float
    kd_max_depth: int
    kd_leaf_size: int
    max_cycles: int
    divergence_window: int
    #: Path-tracing knobs (``ray_kind="path"`` only): bounce budget and the
    #: russian-roulette continuation probability. They join the workload
    #: cache key for path workloads, so presets differing here never share
    #: a path entry.
    path_max_depth: int = 4
    path_roulette_q: float = 0.6

    @property
    def num_rays(self) -> int:
        return self.image_width * self.image_height


PRESETS = {
    # For unit/integration tests: seconds per run.
    "tiny": SimPreset(name="tiny", num_sms=1, image_width=12,
                      image_height=12, scene_detail=0.25, kd_max_depth=10,
                      kd_leaf_size=8, max_cycles=2_000_000,
                      divergence_window=2_000),
    # For benchmarks: minutes for the full figure set.
    "fast": SimPreset(name="fast", num_sms=1, image_width=40,
                      image_height=40, scene_detail=0.5, kd_max_depth=13,
                      kd_leaf_size=8, max_cycles=300_000,
                      divergence_window=3_000),
    # Closer to the paper's setup (long: hours in pure Python).
    "paper": SimPreset(name="paper", num_sms=30, image_width=256,
                       image_height=256, scene_detail=2.0, kd_max_depth=18,
                       kd_leaf_size=8, max_cycles=300_000,
                       divergence_window=3_000),
    # Workload-family handles (use with ray_kind="path"): equal to tiny and
    # fast in every field but the name; the path knobs are the defaults.
    # Multi-bounce paths run ~4x the instructions of a primary batch, so
    # the tiny cycle cap is kept generous while "fast" inherits the
    # truncating 300k budget.
    "path-tiny": SimPreset(name="path-tiny", num_sms=1, image_width=12,
                           image_height=12, scene_detail=0.25,
                           kd_max_depth=10, kd_leaf_size=8,
                           max_cycles=2_000_000, divergence_window=2_000,
                           path_max_depth=4, path_roulette_q=0.6),
    "path-fast": SimPreset(name="path-fast", num_sms=1, image_width=40,
                           image_height=40, scene_detail=0.5,
                           kd_max_depth=13, kd_leaf_size=8,
                           max_cycles=300_000, divergence_window=3_000,
                           path_max_depth=4, path_roulette_q=0.6),
    # Graph-traversal handles (use with ray_kind="bfs" on a graph-* scene).
    # image_width*image_height only bounds the worker count there; the
    # vertex count comes from scene_detail like triangle counts do.
    "bfs-tiny": SimPreset(name="bfs-tiny", num_sms=1, image_width=12,
                          image_height=12, scene_detail=0.25,
                          kd_max_depth=10, kd_leaf_size=8,
                          max_cycles=2_000_000, divergence_window=2_000),
    "bfs-fast": SimPreset(name="bfs-fast", num_sms=1, image_width=40,
                          image_height=40, scene_detail=0.5,
                          kd_max_depth=13, kd_leaf_size=8,
                          max_cycles=300_000, divergence_window=3_000),
}


def get_preset(name: str) -> SimPreset:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[name]
