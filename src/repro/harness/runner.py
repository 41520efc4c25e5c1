"""Wire scenes, kernels, and configurations into simulation runs.

``run_mode`` executes one (workload, machine-mode) pair and returns a
:class:`RunResult` with the metrics the paper reports: IPC, SIMT
efficiency, rays/second (scaled to the 30-SM machine), divergence
breakdown, and traffic counters.

Machine modes (see :data:`MODES`):

=================  ==========================================================
mode               meaning
=================  ==========================================================
pdom_block         traditional kernel, FX5800 block scheduling (paper
                   "PDOM Block")
pdom_warp          traditional kernel, warp/thread scheduling ("PDOM Warp")
spawn              dynamic µ-kernels, conflict-free spawn memory (Fig 7)
spawn_conflicts    dynamic µ-kernels with spawn-memory bank conflicts (Fig 9)
pdom_ideal         pdom_warp with the ideal memory system (Fig 10)
spawn_ideal        spawn with the ideal memory system (Fig 10)
=================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GPUConfig, SchedulingModel, scaled_config
from repro.errors import ConfigError
from repro.harness.presets import SimPreset
from repro.kernels.graph import (
    bfs_launch_spec,
    bfs_microkernel_launch_spec,
    build_graph_memory_image,
)
from repro.kernels.layout import MemoryImage, build_memory_image
from repro.kernels.microkernels import microkernel_launch_spec
from repro.kernels.pathtrace import (
    extend_image_for_path,
    pathtrace_launch_spec,
    pathtrace_microkernel_launch_spec,
)
from repro.kernels.traditional import (
    dynamic_instruction_model,
    traditional_launch_spec,
)
from repro.rt import Camera, build_kdtree, make_scene, trace_rays
from repro.rt.kdtree import KDTree
from repro.rt.pathtrace import path_trace_rays
from repro.rt.rays import gi_rays, reflection_rays, shadow_rays
from repro.rt.trace import TraceCounters, TraceResult
from repro.simt import GPU, mimd_theoretical
from repro.simt.gpu import RunStats
from repro.simt.mimd import MIMDResult
from repro.workloads.graphs import (
    GraphWorkload,
    make_graph,
    reference_bfs,
)

#: Paper machine size used to scale rays/s.
PAPER_SMS = 30

MODES = ("pdom_block", "pdom_warp", "spawn", "spawn_conflicts",
         "pdom_ideal", "spawn_ideal")


@dataclass
class Workload:
    """A prepared scene + ray batch + reference solution.

    ``light`` is the scene's point light; it is carried on the workload so
    secondary-ray batches (shadow rays need the light) can be derived from a
    cached primary workload without regenerating the scene.
    """

    scene_name: str
    ray_kind: str
    tree: KDTree | None
    origins: np.ndarray
    directions: np.ndarray
    t_max: np.ndarray
    reference: TraceResult
    preset: SimPreset
    light: np.ndarray | None = None
    #: Workload-generation seed (path-tracer RNG, graph generation). Part
    #: of the cache key, so it must travel with the arrays it shaped.
    seed: int = 0
    #: CSR graph for ``ray_kind="bfs"`` workloads; None for ray batches.
    graph: GraphWorkload | None = None

    @property
    def num_rays(self) -> int:
        if self.graph is not None:
            # The unit of completed work in a BFS traversal is a reachable
            # vertex: a correct run of any schedule expands exactly these.
            return int(np.isfinite(self.reference.t).sum())
        return self.origins.shape[0]


class StatsView:
    """Shared metric properties for results that wrap a :class:`RunStats`.

    The canonical metric implementations live on ``RunStats`` itself; every
    result type (``RunResult``, the sweep engine's ``JobResult``, ...) mixes
    this in so they all report identical numbers by construction instead of
    each re-deriving IPC/efficiency/rays-per-second.
    """

    stats: RunStats

    @property
    def ipc(self) -> float:
        """Machine-wide committed thread-instructions per cycle."""
        return self.stats.ipc

    @property
    def simt_efficiency(self) -> float:
        """Mean fraction of lanes active per issued warp instruction."""
        return self.stats.simt_efficiency

    @property
    def rays_per_second(self) -> float:
        """Rays/s scaled to the paper's 30-SM machine."""
        return self.stats.rays_per_second(scale_to_sms=PAPER_SMS)


@dataclass
class RunResult(StatsView):
    """Metrics from one simulated run."""

    mode: str
    workload: Workload
    stats: RunStats
    image: MemoryImage
    trace: object | None = None
    """The :class:`repro.obs.TraceSession` that observed the run, when one
    was requested (``repro.api.simulate(..., probes=...)``)."""

    @property
    def completed_fraction(self) -> float:
        # An empty/truncated workload completes nothing, not a div-zero.
        if self.workload.num_rays == 0:
            return 0.0
        return self.stats.rays_completed / self.workload.num_rays

    def verify(self) -> bool:
        """Check results against the reference for completed rays."""
        ref = self.workload.reference
        if self.workload.ray_kind == "bfs":
            # The lock-free traversal may discover a vertex through a
            # deeper parent than true BFS order would, so levels are
            # checked as lower-bounded, not equal; the visited set itself
            # is schedule-independent (subset of reachable; equality is
            # what completed_fraction == 1.0 certifies).
            level, flag = self.image.results()
            done = ~np.isnan(level)
            if not done.any():
                return True
            reachable = np.isfinite(ref.t)
            return (bool(np.all(reachable[done]))
                    and bool(np.all(np.isfinite(level[done])))
                    and bool(np.all(level[done] >= ref.t[done]))
                    and bool(np.all(flag[done] == 1)))
        t, tri = self.image.results()
        done = ~np.isnan(t)
        if not done.any():
            return True
        tri_ok = np.array_equal(tri[done], ref.triangle[done])
        mine = np.where(np.isinf(t[done]), -1.0, t[done])
        theirs = np.where(np.isinf(ref.t[done]), -1.0, ref.t[done])
        return tri_ok and np.array_equal(mine, theirs)


def build_primary_workload(scene_name: str, preset: SimPreset) -> Workload:
    """Build scene, kd-tree, camera rays, and the primary reference trace."""
    scene = make_scene(scene_name, detail=preset.scene_detail)
    tree = build_kdtree(scene.triangles, max_depth=preset.kd_max_depth,
                        leaf_size=preset.kd_leaf_size)
    camera = Camera.for_scene(scene)
    origins, directions = camera.primary_rays(preset.image_width,
                                              preset.image_height)
    t_max = np.full(origins.shape[0], np.inf)
    reference = trace_rays(tree, origins, directions, t_max)
    return Workload(scene_name=scene_name, ray_kind="primary", tree=tree,
                    origins=origins, directions=directions, t_max=t_max,
                    reference=reference, preset=preset, light=scene.light)


def derive_secondary_workload(primary: Workload, ray_kind: str,
                              seed: int = 0) -> Workload:
    """Derive a secondary-ray workload from a primary one.

    The primary workload's reference trace *is* the hit batch that seeds
    shadow/reflection/gi rays, so deriving from it shares one scene, one
    kd-tree, and one primary trace across every ray kind.
    """
    triangles = primary.tree.triangles
    hit = primary.reference
    if ray_kind == "shadow":
        if primary.light is None:
            raise ConfigError("primary workload carries no light position")
        batch = shadow_rays(triangles, hit.triangle, hit.t,
                            primary.origins, primary.directions,
                            primary.light)
    elif ray_kind == "reflection":
        batch = reflection_rays(triangles, hit.triangle, hit.t,
                                primary.origins, primary.directions)
    elif ray_kind == "gi":
        batch = gi_rays(triangles, hit.triangle, hit.t,
                        primary.origins, primary.directions, seed=seed)
    else:
        raise ConfigError(f"unknown ray kind {ray_kind!r}")
    reference = trace_rays(primary.tree, batch.origins, batch.directions,
                           batch.t_max)
    return Workload(scene_name=primary.scene_name, ray_kind=ray_kind,
                    tree=primary.tree, origins=batch.origins,
                    directions=batch.directions, t_max=batch.t_max,
                    reference=reference, preset=primary.preset,
                    light=primary.light)


def derive_path_workload(primary: Workload, seed: int = 0) -> Workload:
    """Derive a multi-bounce path-tracing workload from a primary one.

    Shares the primary workload's scene, kd-tree, and camera rays; only the
    reference changes — the roulette path tracer's ``(bounce count, last
    triangle)`` records (see :mod:`repro.rt.pathtrace`). The bounce budget
    and roulette probability come from the preset, the RNG stream from
    ``seed``.
    """
    preset = primary.preset
    reference = path_trace_rays(
        primary.tree, primary.origins, primary.directions, primary.t_max,
        max_depth=preset.path_max_depth, roulette_q=preset.path_roulette_q,
        seed=seed)
    return Workload(scene_name=primary.scene_name, ray_kind="path",
                    tree=primary.tree, origins=primary.origins,
                    directions=primary.directions, t_max=primary.t_max,
                    reference=reference, preset=preset, light=primary.light,
                    seed=seed)


def build_bfs_workload(scene_name: str, preset: SimPreset,
                       seed: int = 0) -> Workload:
    """Build a graph-traversal workload: CSR graph + true BFS levels.

    The reference rides the :class:`~repro.rt.trace.TraceResult` shape so
    every downstream consumer (verification, the bandwidth model, the
    results warehouse) works unchanged: ``t`` carries the true level
    (unreachable -> inf), ``triangle`` a reachable flag (1 / -1), and
    ``node_visits`` the out-degree of each expanded vertex (the edge reads
    a traversal performs).
    """
    graph = make_graph(scene_name, detail=preset.scene_detail, seed=seed)
    levels = reference_bfs(graph)
    reachable = levels >= 0
    t = np.where(reachable, levels.astype(np.float64), np.inf)
    triangle = np.where(reachable, 1, -1).astype(np.int64)
    counters = TraceCounters(
        node_visits=np.where(reachable, graph.out_degrees(), 0)
        .astype(np.int64),
        leaf_visits=np.zeros(graph.num_vertices, np.int64),
        triangle_tests=np.zeros(graph.num_vertices, np.int64),
        stack_pushes=np.zeros(graph.num_vertices, np.int64))
    reference = TraceResult(t=t, triangle=triangle, counters=counters)
    empty = np.zeros((0, 3))
    return Workload(scene_name=scene_name, ray_kind="bfs", tree=None,
                    origins=empty, directions=empty.copy(),
                    t_max=np.zeros(0), reference=reference, preset=preset,
                    light=None, seed=seed, graph=graph)


def build_workload(scene_name: str, preset: SimPreset,
                   ray_kind: str = "primary", seed: int = 0) -> Workload:
    """Uncached workload build (one scene + tree + trace, reused per kind)."""
    if ray_kind == "bfs":
        return build_bfs_workload(scene_name, preset, seed=seed)
    primary = build_primary_workload(scene_name, preset)
    if ray_kind == "primary":
        return primary
    if ray_kind == "path":
        return derive_path_workload(primary, seed=seed)
    return derive_secondary_workload(primary, ray_kind, seed=seed)


def prepare_workload(scene_name: str, preset: SimPreset,
                     ray_kind: str = "primary", seed: int = 0,
                     cache=None) -> Workload:
    """Build (or load) a scene, its kd-tree, and the requested ray batch.

    Goes through the persistent workload cache (see
    :mod:`repro.harness.cache`) unless caching is disabled via
    ``REPRO_CACHE=0`` or ``cache=False``. Pass a
    :class:`~repro.harness.cache.WorkloadCache` to use a specific cache
    instance. Cached and freshly built workloads are bit-identical.
    """
    if cache is False:
        return build_workload(scene_name, preset, ray_kind, seed)
    from repro.harness.cache import WorkloadCache, cache_enabled, default_cache
    if isinstance(cache, WorkloadCache):
        return cache.workload(scene_name, preset, ray_kind, seed)
    if not cache_enabled():
        return build_workload(scene_name, preset, ray_kind, seed)
    return default_cache().workload(scene_name, preset, ray_kind, seed)


def config_for_mode(mode: str, preset: SimPreset,
                    fast_forward: bool | None = None) -> GPUConfig:
    """The machine configuration for one mode at one preset scale.

    ``fast_forward`` overrides the event-driven clock toggle; None keeps
    the :class:`GPUConfig` default (fast).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    overrides: dict = {"max_cycles": preset.max_cycles}
    if fast_forward is not None:
        overrides["fast_forward"] = fast_forward
    if mode == "pdom_block":
        overrides["scheduling"] = SchedulingModel.BLOCK
    else:
        overrides["scheduling"] = SchedulingModel.WARP
    if mode.startswith("spawn"):
        overrides["spawn_enabled"] = True
        overrides["spawn_bank_conflicts"] = mode == "spawn_conflicts"
    if mode.endswith("ideal"):
        overrides["memory_ideal"] = True
    return scaled_config(preset.num_sms, **overrides)


def launch_for_mode(mode: str, num_rays: int):
    if mode.startswith("spawn"):
        return microkernel_launch_spec(num_rays)
    return traditional_launch_spec(num_rays)


def image_for_workload(workload: Workload):
    """Device memory image for one workload, dispatched on its ray kind."""
    if workload.ray_kind == "bfs":
        return build_graph_memory_image(workload.graph)
    image = build_memory_image(workload.tree, workload.origins,
                               workload.directions, workload.t_max)
    if workload.ray_kind == "path":
        preset = workload.preset
        image = extend_image_for_path(
            image, max_depth=preset.path_max_depth,
            roulette_q=preset.path_roulette_q, seed=workload.seed)
    return image


def launch_for_workload(mode: str, workload: Workload):
    """Launch spec for one (mode, workload) pair.

    Each workload family has its own megakernel/µ-kernel pair; BFS runs a
    fixed worker pool over the shared frontier worklist (one worker per
    vertex, capped by the preset's thread budget) rather than one thread
    per result.
    """
    spawn = mode.startswith("spawn")
    if workload.ray_kind == "bfs":
        workers = min(workload.graph.num_vertices,
                      workload.preset.num_rays)
        if spawn:
            return bfs_microkernel_launch_spec(workers)
        return bfs_launch_spec(workers)
    if workload.ray_kind == "path":
        if spawn:
            return pathtrace_microkernel_launch_spec(workload.num_rays)
        return pathtrace_launch_spec(workload.num_rays)
    return launch_for_mode(mode, workload.num_rays)


def run_mode(mode: str, workload: Workload,
             max_cycles: int | None = None,
             fast_forward: bool | None = None,
             trace=None) -> RunResult:
    """Simulate one mode on a prepared workload.

    ``trace`` attaches a :class:`repro.obs.TraceSession` to the machine;
    the returned result carries it (finalized) as ``result.trace``.
    """
    preset = workload.preset
    config = config_for_mode(mode, preset, fast_forward=fast_forward)
    image = image_for_workload(workload)
    launch = launch_for_workload(mode, workload)
    gpu = GPU(config, launch, image.global_mem, image.const_mem,
              divergence_window=preset.divergence_window, trace=trace)
    stats = gpu.run(max_cycles=max_cycles)
    return RunResult(mode=mode, workload=workload, stats=stats, image=image,
                     trace=trace)


__all__ = [
    "MODES",
    "PAPER_SMS",
    "RunResult",
    "StatsView",
    "Workload",
    "build_bfs_workload",
    "build_primary_workload",
    "build_workload",
    "config_for_mode",
    "derive_path_workload",
    "derive_secondary_workload",
    "image_for_workload",
    "launch_for_mode",
    "launch_for_workload",
    "mimd_for_workload",
    "mimd_rays_per_second",
    "prepare_workload",
    "run_mode",
]


def mimd_for_workload(workload: Workload) -> MIMDResult:
    """MIMD-theoretical result from the analytic instruction model.

    Per-thread dynamic instruction counts follow the traditional kernel's
    static block sizes applied to the reference tracer's loop-trip counts
    (see :func:`repro.kernels.traditional.dynamic_instruction_model`).
    """
    model = dynamic_instruction_model()
    counters = workload.reference.counters
    counts = (model["prologue"]
              + counters.node_visits * model["node_visit"]
              + counters.leaf_visits * (model["leaf_visit"] + model["pop"])
              + counters.triangle_tests * model["triangle_test"]
              + model["write"])
    config = config_for_mode("pdom_ideal", workload.preset)
    return mimd_theoretical(counts, config)


def mimd_rays_per_second(workload: Workload) -> float:
    """MIMD-theoretical rays/s scaled to the 30-SM machine."""
    result = mimd_for_workload(workload)
    config = config_for_mode("pdom_ideal", workload.preset)
    return result.rays_per_second(config, scale_to_sms=PAPER_SMS)
