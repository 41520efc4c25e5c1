"""Output checks made apart from the simulator.

Every completed result of every simulation is compared with a reference
recomputed here from the CPU implementations (``repro.rt.trace_rays``,
``repro.rt.pathtrace.path_trace_rays``, ``repro.workloads.graphs.
reference_bfs``) on inputs rebuilt from scratch — never with the copy the
workload cache holds. Properties the method must have are asserted on the
modelled counters: the per-SM cycle partition on every run, thread
conservation on runs that finish, and one written result per completed
ray.

Each check returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

import numpy as np

from repro.obs.invariants import check_cycle_partition, \
    check_thread_conservation


def check_ray_results(t, tri, ref_t, ref_tri) -> tuple[list[str], int]:
    """Closest hits of completed rays equal the reference tracer's.

    Returns the problems and the number of results compared. A miss is
    written as ``inf`` by both sides; NaN marks a ray still in flight.
    """
    done = ~np.isnan(t)
    problems = []
    if not np.array_equal(tri[done], ref_tri[done]):
        bad = np.flatnonzero(done & (tri != ref_tri))
        problems.append(f"{bad.size} completed rays hit another triangle "
                        f"than the reference (first ray {bad[0]})")
    if not np.array_equal(t[done], ref_t[done]):
        bad = np.flatnonzero(done & (t != ref_t))
        problems.append(f"{bad.size} completed rays report another hit "
                        f"distance than the reference (first ray {bad[0]})")
    return problems, int(done.sum())


def check_path_results(bounces, tri, ref_bounces, ref_tri
                       ) -> tuple[list[str], int]:
    """Bounce count and last triangle of completed paths are the
    reference path tracer's (the roulette is exact in float64)."""
    done = ~np.isnan(bounces)
    problems = []
    if not np.array_equal(bounces[done], ref_bounces[done]):
        problems.append(f"{int((bounces[done] != ref_bounces[done]).sum())} "
                        f"completed paths bounce another number of times")
    if not np.array_equal(tri[done], ref_tri[done]):
        problems.append(f"{int((tri[done] != ref_tri[done]).sum())} "
                        f"completed paths end on another triangle")
    return problems, int(done.sum())


def check_bfs_results(level, flag, ref_levels, finished: bool
                      ) -> tuple[list[str], int]:
    """BFS: visited vertices are reachable, no level undercuts the true
    BFS level, and a finished run visits exactly the reachable set.

    The lock-free traversal may reach a vertex through a deeper parent, so
    levels are bounded below rather than compared equal.
    """
    visited = ~np.isnan(level)
    reachable = ref_levels >= 0
    problems = []
    if np.any(visited & ~reachable):
        problems.append(f"{int((visited & ~reachable).sum())} visited "
                        f"vertices are unreachable from the sources")
    seen = visited & reachable
    if np.any(level[seen] < ref_levels[seen]):
        problems.append(f"{int((level[seen] < ref_levels[seen]).sum())} "
                        f"vertices sit below their true BFS level")
    if not np.all(flag[visited] == 1):
        problems.append("a visited vertex has no visited flag")
    if finished and not np.array_equal(visited, reachable):
        problems.append(f"finished run visited {int(visited.sum())} "
                        f"vertices, {int(reachable.sum())} are reachable")
    return problems, int(visited.sum())


def check_counters(sim) -> list[str]:
    """Structural properties of the modelled counters of one simulation.

    ``sim`` is a :class:`probes.Simulation` (or anything with its fields).
    """
    problems = check_cycle_partition(sim.per_sm)
    if sim.finished:
        grid = sim.grid_threads if sim.model == "gpu" else None
        problems += check_thread_conservation(sim.aggregate,
                                              grid_threads=grid)
    if sim.results is not None:
        written = int(np.count_nonzero(~np.isnan(sim.results[0])))
        if written != sim.rays_completed:
            problems.append(f"rays_completed={sim.rays_completed} but "
                            f"{written} results were written")
    return problems


def check_experiments(rendered: dict, expected, sweep, ablations: dict
                      ) -> tuple[list[str], list[str]]:
    """The figure set came out whole and the program verified it.

    ``rendered`` maps experiment name to its data; ``sweep`` is the shared
    :class:`~repro.harness.sweep.SweepResults`; ``ablations`` maps each
    ablation to its ``verified`` flag. Returns (missing experiments,
    problems): a missing experiment is a failed operation, a problem is a
    wrong output.
    """
    missing = [name for name in expected
               if name not in rendered
               or not rendered[name].get("render")
               or rendered[name]["render"].startswith(f"{name}: skipped")]
    problems = []
    if sweep is not None:
        problems += [f"sweep job {result.job.describe()} failed the "
                     f"program's verify()" for result in sweep.unverified]
    for name, verified in ablations.items():
        if not verified:
            problems.append(f"{name} failed the program's own verification")
    return missing, problems


class References:
    """CPU references, recomputed from scratch once per workload."""

    def __init__(self):
        self._cache: dict[tuple, dict] = {}

    def _primary(self, scene_name, preset) -> dict:
        from repro.rt import Camera, build_kdtree, make_scene, trace_rays

        key = ("primary", scene_name, preset.scene_detail,
               preset.kd_max_depth, preset.kd_leaf_size, preset.image_width,
               preset.image_height)
        if key not in self._cache:
            scene = make_scene(scene_name, detail=preset.scene_detail)
            tree = build_kdtree(scene.triangles,
                                max_depth=preset.kd_max_depth,
                                leaf_size=preset.kd_leaf_size)
            origins, directions = Camera.for_scene(scene).primary_rays(
                preset.image_width, preset.image_height)
            t_max = np.full(origins.shape[0], np.inf)
            trace = trace_rays(tree, origins, directions, t_max)
            self._cache[key] = {"tree": tree, "origins": origins,
                                "directions": directions, "t_max": t_max,
                                "t": trace.t, "triangle": trace.triangle}
        return self._cache[key]

    def for_workload(self, workload) -> dict:
        """Reference inputs and outputs for one workload's identity."""
        preset = workload.preset
        kind = workload.ray_kind
        key = (kind, workload.scene_name, workload.seed, preset.scene_detail,
               preset.kd_max_depth, preset.kd_leaf_size, preset.image_width,
               preset.image_height, preset.path_max_depth,
               preset.path_roulette_q)
        if key in self._cache:
            return self._cache[key]
        if kind == "bfs":
            from repro.workloads.graphs import make_graph, reference_bfs

            graph = make_graph(workload.scene_name,
                               detail=preset.scene_detail, seed=workload.seed)
            ref = {"graph": graph, "levels": reference_bfs(graph)}
        elif kind == "primary":
            ref = self._primary(workload.scene_name, preset)
        elif kind == "path":
            from repro.rt.pathtrace import path_trace_rays

            primary = self._primary(workload.scene_name, preset)
            trace = path_trace_rays(
                primary["tree"], primary["origins"], primary["directions"],
                primary["t_max"], max_depth=preset.path_max_depth,
                roulette_q=preset.path_roulette_q, seed=workload.seed)
            ref = dict(primary, t=trace.t, triangle=trace.triangle)
        elif kind == "gi":
            from repro.rt import trace_rays
            from repro.rt.rays import gi_rays

            primary = self._primary(workload.scene_name, preset)
            batch = gi_rays(primary["tree"].triangles, primary["triangle"],
                            primary["t"], primary["origins"],
                            primary["directions"], seed=workload.seed)
            trace = trace_rays(primary["tree"], batch.origins,
                               batch.directions, batch.t_max)
            ref = {"tree": primary["tree"], "origins": batch.origins,
                   "directions": batch.directions, "t_max": batch.t_max,
                   "t": trace.t, "triangle": trace.triangle}
        else:
            raise ValueError(f"no reference for ray kind {kind!r}")
        self._cache[key] = ref
        return ref


def check_inputs(workload, ref: dict) -> list[str]:
    """The simulated workload's inputs are the ones rebuilt from scratch."""
    if workload.ray_kind == "bfs":
        graph, mine = ref["graph"], workload.graph
        same = (np.array_equal(graph.indptr, mine.indptr)
                and np.array_equal(graph.indices, mine.indices)
                and np.array_equal(graph.sources, mine.sources))
        return [] if same else ["graph differs from the regenerated one"]
    same = (np.array_equal(workload.origins, ref["origins"])
            and np.array_equal(workload.directions, ref["directions"])
            and np.array_equal(workload.t_max, ref["t_max"]))
    return [] if same else ["ray batch differs from the regenerated one"]


def check_simulation(sim, references: References) -> tuple[list[str], int]:
    """Every check that applies to one captured simulation.

    Returns (problems, results compared with the reference).
    """
    problems = check_counters(sim)
    if sim.workload is None or sim.results is None:
        return problems + ["no memory image was tied to this simulation"], 0
    ref = references.for_workload(sim.workload)
    problems += check_inputs(sim.workload, ref)
    first, second = sim.results
    kind = sim.workload.ray_kind
    if kind == "bfs":
        found, checked = check_bfs_results(first, second, ref["levels"],
                                           sim.finished)
    elif kind == "path":
        found, checked = check_path_results(first, second, ref["t"],
                                            ref["triangle"])
    else:
        found, checked = check_ray_results(first, second, ref["t"],
                                           ref["triangle"])
    return problems + found, checked
