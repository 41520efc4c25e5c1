"""One entry point per paper table and figure.

Each ``table*``/``fig*`` function runs the relevant simulations and returns
a dict with structured data plus a ``render`` string that prints the same
rows/series the paper reports. ``repro experiments`` regenerates them at
the chosen preset; the shape benches under ``benchmarks/`` assert on the
same dicts.

Every simulation-backed figure accepts an optional ``results``
(:class:`~repro.harness.sweep.SweepResults`): when given, the figure reads
precomputed stats instead of simulating. :func:`run_selected` enumerates
the union of jobs the requested figures need (deduplicated — the PDOM
baseline shared by Figures 3/7/8/9 runs once, not four times), executes
them through the sweep engine with ``jobs`` workers, and feeds every figure
from the shared results.

When ``REPRO_RESULTS_DIR`` is set, every simulation executed here is also
appended to the :mod:`repro.results` warehouse (via the sweep engine's
recording hook), so ``repro compare`` can diff one figure regeneration
against another across revisions.
"""

from __future__ import annotations

from repro.analysis.bandwidth import bandwidth_table
from repro.analysis.divergence import render_breakdown
from repro.analysis.report import format_table
from repro.config import paper_config
from repro.harness.presets import SimPreset
from repro.harness.runner import (
    mimd_rays_per_second,
    prepare_workload,
    verify_results,
)
from repro.harness.sweep import (
    SweepJob,
    SweepResults,
    resolve_jobs,
    run_sweep,
    warm_workloads,
)
from repro.kernels.microkernels import (
    PAPER_REGISTERS as MICRO_REGS,
    microkernel_program,
)
from repro.kernels.resources import (
    measure_resources,
    occupancy_threads_per_sm,
    table2_rows,
)
from repro.kernels.traditional import (
    PAPER_REGISTERS as TRAD_REGS,
    traditional_program,
)
from repro.rt import BENCHMARK_SCENES
from repro.rt.scenes import PAPER_TRIANGLE_COUNTS
from repro.workloads import GRAPH_SCENES

#: Figure 10's bars as (real memory, ideal memory) pairs: ``pdom_ideal``
#: is ``pdom_warp`` with the ideal memory system, ``spawn_ideal`` is
#: ``spawn`` with it.
FIG10_MODES = ("pdom_warp", "pdom_ideal", "spawn", "spawn_ideal")

#: Modes the workload-family experiments compare (the paper's headline
#: trio: both PDOM baselines against conflict-free µ-kernels).
WORKLOAD_MODES = ("pdom_block", "pdom_warp", "spawn")


def _sim(results: SweepResults | None, scene: str, mode: str,
         preset: SimPreset, ray_kind: str = "primary"):
    """One simulation's :class:`~repro.harness.runner.RunResult`: served
    from sweep results when available, simulated otherwise."""
    if results is not None:
        try:
            return results.get(scene, mode, ray_kind)
        except KeyError:
            pass
    # Imported lazily: repro.api imports this package, so a module-level
    # import here would be circular.
    from repro.api import simulate
    return simulate(scene, mode, preset=preset, ray_kind=ray_kind)


def table1() -> dict:
    """Table I: the simulated machine configuration."""
    config = paper_config()
    rows = [{"parameter": key, "value": value}
            for key, value in config.table1_rows()]
    return {"rows": rows,
            "render": format_table(rows, title="Table I — configuration")}


def table2(config=None) -> dict:
    """Table II: per-thread kernel resources and resulting occupancy."""
    config = config or paper_config()
    trad = measure_resources(traditional_program(), "traditional")
    micro = measure_resources(microkernel_program(), "microkernel")
    rows = table2_rows(trad, micro)
    occupancy = {
        "traditional_block_threads_per_sm": occupancy_threads_per_sm(
            config, TRAD_REGS, block_size=64, scheduling="block"),
        "traditional_warp_threads_per_sm": occupancy_threads_per_sm(
            config, TRAD_REGS, block_size=64, scheduling="warp"),
        "microkernel_threads_per_sm": occupancy_threads_per_sm(
            config, MICRO_REGS, block_size=32, scheduling="warp"),
    }
    render = format_table(rows, title="Table II — per-thread resources")
    render += "\n\noccupancy: " + ", ".join(
        f"{key}={value}" for key, value in occupancy.items())
    return {"rows": rows, "occupancy": occupancy, "render": render}


def table3(preset: SimPreset) -> dict:
    """Table III: benchmark scenes and tree parameters.

    Reads the trees through the workload cache (the primary workload's
    tree is built with exactly these parameters), so a warm cache serves
    the whole table without a single kd-tree build.
    """
    rows = []
    for name in BENCHMARK_SCENES:
        stats = prepare_workload(name, preset).tree.stats()
        rows.append({
            "scene": name,
            "triangles": stats.num_triangles,
            "paper_triangles": PAPER_TRIANGLE_COUNTS[name],
            "tree_nodes": stats.num_nodes,
            "tree_leaves": stats.num_leaves,
            "max_depth": stats.max_depth,
            "avg_tris_per_leaf": round(stats.avg_triangles_per_leaf, 2),
            "empty_leaves": stats.empty_leaves,
        })
    return {"rows": rows,
            "render": format_table(rows, title="Table III — scenes")}


def table4(preset: SimPreset) -> dict:
    """Table IV: per-frame bandwidth, traditional vs dynamic."""
    per_scene = {}
    for name in BENCHMARK_SCENES:
        workload = prepare_workload(name, preset)
        per_scene[name] = (workload.reference.counters, workload.num_rays)
    rows = bandwidth_table(per_scene)
    ratios = [row["read_ratio"] for row in rows if "read_ratio" in row]
    totals = [row["total_ratio"] for row in rows if "total_ratio" in row]
    summary = {
        "mean_read_ratio": round(sum(ratios) / len(ratios), 2),
        "mean_total_ratio": round(sum(totals) / len(totals), 2),
        "paper_read_ratio": 4.4,
        "paper_total_ratio": 7.3,
    }
    render = format_table(rows, title="Table IV — bandwidth per frame (MB)")
    render += f"\n\nmean ratios: read={summary['mean_read_ratio']}x " \
              f"(paper 4.4x), total={summary['mean_total_ratio']}x (paper 7.3x)"
    return {"rows": rows, "summary": summary, "render": render}


def _divergence_figure(mode: str, preset: SimPreset, scene: str,
                       title: str,
                       results: SweepResults | None = None) -> dict:
    result = _sim(results, scene, mode, preset)
    sampler = result.stats.divergence
    return {
        "mode": mode,
        "scene": scene,
        "ipc": result.ipc,
        "simt_efficiency": result.simt_efficiency,
        "mean_active_lanes": sampler.mean_active_lanes(),
        "result": result,
        "render": (f"{title} (scene={scene}, mode={mode}, "
                   f"IPC={result.ipc:.1f}, "
                   f"efficiency={result.simt_efficiency:.2f})\n"
                   + render_breakdown(sampler)),
    }


def fig3(preset: SimPreset, scene: str = "conference",
         results: SweepResults | None = None) -> dict:
    """Figure 3: divergence breakdown, traditional SIMT branching."""
    return _divergence_figure("pdom_block", preset, scene,
                              "Figure 3 — divergence, PDOM", results)


def fig7(preset: SimPreset, scene: str = "conference",
         results: SweepResults | None = None) -> dict:
    """Figure 7: divergence breakdown with dynamic µ-kernels (no bank
    conflicts); paper reports IPC 615 vs 326 (1.9x) on its machine."""
    data = _divergence_figure("spawn", preset, scene,
                              "Figure 7 — divergence, µ-kernels", results)
    baseline = _divergence_figure("pdom_block", preset, scene, "baseline",
                                  results)
    ratio = data["ipc"] / baseline["ipc"] if baseline["ipc"] else 0.0
    data["baseline_ipc"] = baseline["ipc"]
    data["ipc_ratio"] = ratio
    data["paper_ipc_ratio"] = 1.9
    data["render"] += (f"\nIPC ratio vs PDOM: {ratio:.2f}x "
                       f"(paper: 1.9x)")
    return data


def fig9(preset: SimPreset, scene: str = "conference",
         results: SweepResults | None = None) -> dict:
    """Figure 9: µ-kernel divergence with spawn-memory bank conflicts;
    paper reports IPC 429 (1.3x over PDOM)."""
    data = _divergence_figure("spawn_conflicts", preset, scene,
                              "Figure 9 — divergence, µ-kernels + conflicts",
                              results)
    baseline = _divergence_figure("pdom_block", preset, scene, "baseline",
                                  results)
    ratio = data["ipc"] / baseline["ipc"] if baseline["ipc"] else 0.0
    data["baseline_ipc"] = baseline["ipc"]
    data["ipc_ratio"] = ratio
    data["paper_ipc_ratio"] = 1.3
    data["render"] += (f"\nIPC ratio vs PDOM: {ratio:.2f}x "
                       f"(paper: 1.3x)")
    return data


def fig8(preset: SimPreset, modes=("pdom_block", "pdom_warp", "spawn"),
         results: SweepResults | None = None) -> dict:
    """Figure 8: rays/second per scene and branching/scheduling method."""
    rows = []
    for scene in BENCHMARK_SCENES:
        for mode in modes:
            result = _sim(results, scene, mode, preset)
            rows.append({
                "scene": scene,
                "mode": mode,
                "mrays_per_s": round(result.rays_per_second / 1e6, 2),
                "ipc": round(result.ipc, 1),
                "efficiency": round(result.simt_efficiency, 3),
                "completed": round(result.completed_fraction, 3),
                "verified": result.verify(),
            })
    speedups = []
    for scene in BENCHMARK_SCENES:
        base = next(r for r in rows if r["scene"] == scene
                    and r["mode"] == "pdom_block")
        dyn = next(r for r in rows if r["scene"] == scene
                   and r["mode"] == "spawn")
        if base["mrays_per_s"]:
            speedups.append(dyn["mrays_per_s"] / base["mrays_per_s"])
    summary = {
        "mean_speedup_vs_pdom_block": (round(sum(speedups) / len(speedups), 2)
                                       if speedups else 0.0),
        "paper_mean_speedup": 1.4,
    }
    render = format_table(rows, title="Figure 8 — rays per second")
    render += (f"\n\nmean dynamic speedup vs PDOM block: "
               f"{summary['mean_speedup_vs_pdom_block']}x (paper: 1.4x)")
    return {"rows": rows, "summary": summary, "render": render}


def fig10(preset: SimPreset, scene: str = "conference",
          results: SweepResults | None = None) -> dict:
    """Figure 10: branching performance vs the MIMD theoretical ideal.

    The paper's shape: PDOM gains nothing from an ideal memory system
    (branch-bound); µ-kernels reach ~45% of MIMD with real memory and ~60%
    with ideal memory. Each ideal-memory bar differs from the real-memory
    bar before it only in ``memory_ideal``.
    """
    workload = prepare_workload(scene, preset)
    mimd = mimd_rays_per_second(workload)
    bars = []
    mode_results = {}
    for mode in FIG10_MODES:
        result = _sim(results, scene, mode, preset)
        mode_results[mode] = result
        bars.append((mode, result.rays_per_second))
    bars.append(("mimd_theoretical", mimd))
    fractions = {mode: (value / mimd if mimd else 0.0)
                 for mode, value in bars}
    rows = [{"mode": mode, "mrays_per_s": round(value / 1e6, 2),
             "fraction_of_mimd": round(fractions[mode], 3)}
            for mode, value in bars]
    render = format_table(rows, title=f"Figure 10 — vs MIMD ({scene})")
    render += ("\n\npaper shape: PDOM flat under ideal memory; µ-kernels "
               ">=45% of MIMD, up to ~60% ideal")
    return {"rows": rows, "fractions": fractions, "results": mode_results,
            "mimd_rays_per_second": mimd, "render": render}


def ablation_dwf(preset: SimPreset, workload=None,
                 results: SweepResults | None = None) -> dict:
    """Regrouping mechanisms: PDOM vs idealized DWF vs dynamic µ-kernels."""
    from repro.api import config_for_mode
    from repro.kernels.layout import build_memory_image
    from repro.kernels.traditional import traditional_program
    from repro.simt.dwf import run_dwf

    workload = workload or prepare_workload("conference", preset)
    config = config_for_mode("pdom_warp", preset)
    image = build_memory_image(workload.tree, workload.origins,
                               workload.directions, workload.t_max)
    dwf = run_dwf(config, traditional_program(), "trace", image.global_mem,
                  image.const_mem,
                  num_threads=min(workload.num_rays, 736),
                  max_cycles=preset.max_cycles)
    verified = verify_results(workload, image)
    pdom = _sim(results, workload.scene_name, "pdom_warp", preset)
    spawn = _sim(results, workload.scene_name, "spawn", preset)
    rows = [
        {"mechanism": "PDOM (stack)", "ipc": round(pdom.ipc, 1),
         "efficiency": round(pdom.simt_efficiency, 3),
         "rays_done": pdom.stats.rays_completed},
        {"mechanism": "DWF (idealized)", "ipc": round(dwf.ipc, 1),
         "efficiency": round(dwf.simt_efficiency, 3),
         "rays_done": dwf.rays_completed},
        {"mechanism": "dynamic µ-kernels", "ipc": round(spawn.ipc, 1),
         "efficiency": round(spawn.simt_efficiency, 3),
         "rays_done": spawn.stats.rays_completed},
    ]
    return {"rows": rows, "verified": verified,
            "render": format_table(rows, title="Ablation — regrouping "
                                                "mechanisms (conference)")}


def ablation_persistent(preset: SimPreset, workload=None,
                        results: SweepResults | None = None) -> dict:
    """Work scheduling: grid launch vs persistent threads vs µ-kernels."""
    from repro.api import config_for_mode
    from repro.kernels.layout import build_memory_image
    from repro.kernels.persistent import (
        persistent_launch_spec,
        persistent_thread_count,
    )
    from repro.simt import GPU

    workload = workload or prepare_workload("conference", preset)
    config = config_for_mode("pdom_warp", preset)
    image = build_memory_image(workload.tree, workload.origins,
                               workload.directions, workload.t_max)
    launch = persistent_launch_spec(persistent_thread_count(config))
    gpu = GPU(config, launch, image.global_mem, image.const_mem,
              divergence_window=preset.divergence_window)
    persistent = gpu.run()
    verified = verify_results(workload, image)
    grid = _sim(results, workload.scene_name, "pdom_warp", preset)
    spawn = _sim(results, workload.scene_name, "spawn", preset)
    rows = [
        {"approach": "grid launch (PDOM)", "ipc": round(grid.ipc, 1),
         "efficiency": round(grid.simt_efficiency, 3),
         "rays_done": grid.stats.rays_completed},
        {"approach": "persistent threads", "ipc": round(persistent.ipc, 1),
         "efficiency": round(persistent.simt_efficiency, 3),
         "rays_done": persistent.sm_stats.rays_completed},
        {"approach": "dynamic µ-kernels", "ipc": round(spawn.ipc, 1),
         "efficiency": round(spawn.simt_efficiency, 3),
         "rays_done": spawn.stats.rays_completed},
    ]
    return {"rows": rows, "verified": verified,
            "render": format_table(rows, title="Ablation — work "
                                                "scheduling (conference)")}


def _family_figure(title: str, preset: SimPreset, scenes, ray_kind: str,
                   results: SweepResults | None = None) -> dict:
    """Scene x mode grid for one workload family (path tracing, BFS)."""
    rows = []
    for scene in scenes:
        for mode in WORKLOAD_MODES:
            result = _sim(results, scene, mode, preset, ray_kind=ray_kind)
            rows.append({
                "scene": scene,
                "mode": mode,
                "cycles": result.stats.cycles,
                "ipc": round(result.ipc, 1),
                "efficiency": round(result.simt_efficiency, 3),
                "completed": round(result.completed_fraction, 3),
                "verified": result.verify(),
            })
    ratios = []
    for scene in scenes:
        base = next(r for r in rows if r["scene"] == scene
                    and r["mode"] == "pdom_block")
        dyn = next(r for r in rows if r["scene"] == scene
                   and r["mode"] == "spawn")
        if base["efficiency"]:
            ratios.append(dyn["efficiency"] / base["efficiency"])
    summary = {"mean_efficiency_ratio_vs_pdom_block":
               round(sum(ratios) / len(ratios), 2) if ratios else 0.0}
    render = format_table(rows, title=title)
    render += (f"\n\nmean SIMT-efficiency ratio, µ-kernels vs PDOM block: "
               f"{summary['mean_efficiency_ratio_vs_pdom_block']}x")
    return {"rows": rows, "summary": summary, "render": render}


def pathtrace(preset: SimPreset,
              results: SweepResults | None = None) -> dict:
    """Multi-bounce path tracing: the roulette loop as a spawn chain.

    The russian-roulette termination is a data-dependent *outer* loop on
    top of the traversal loops, so reconvergence-stack divergence compounds
    with bounce depth — the workload the µ-kernel decomposition is supposed
    to shine on beyond the paper's single-bounce batches.
    """
    return _family_figure(
        "Path tracing — roulette bounce loops (ray_kind=path)",
        preset, ("conference",), "path", results)


def bfs(preset: SimPreset, results: SweepResults | None = None) -> dict:
    """Graph traversal: frontier expansion over a shared worklist.

    A non-rendering irregular workload: per-vertex work varies with
    out-degree (``graph-skew`` concentrates edges on a few hubs), so warp
    lanes diverge on the expansion loop and µ-kernel spawning regroups
    them; verification bounds levels against true BFS order.
    """
    return _family_figure(
        "Graph traversal — frontier BFS (ray_kind=bfs)",
        preset, GRAPH_SCENES, "bfs", results)


def _pairs(preset: SimPreset, pairs) -> list[SweepJob]:
    return [SweepJob(scene=scene, mode=mode, preset=preset.name)
            for scene, mode in pairs]


#: Simulations each figure needs, as declarative job specs. The union over
#: requested figures is deduplicated before the sweep runs, so shared
#: baselines (conference pdom_block appears in four figures) run once.
FIGURE_JOBS = {
    "fig3": lambda preset: _pairs(preset, [("conference", "pdom_block")]),
    "fig7": lambda preset: _pairs(preset, [("conference", "spawn"),
                                           ("conference", "pdom_block")]),
    "fig8": lambda preset: _pairs(preset, [
        (scene, mode) for scene in BENCHMARK_SCENES
        for mode in ("pdom_block", "pdom_warp", "spawn")]),
    "fig9": lambda preset: _pairs(preset, [("conference", "spawn_conflicts"),
                                           ("conference", "pdom_block")]),
    "fig10": lambda preset: _pairs(preset, [
        ("conference", mode) for mode in FIG10_MODES]),
    "ablation_dwf": lambda preset: _pairs(preset, [
        ("conference", "pdom_warp"), ("conference", "spawn")]),
    "ablation_persistent": lambda preset: _pairs(preset, [
        ("conference", "pdom_warp"), ("conference", "spawn")]),
    "pathtrace": lambda preset: [
        SweepJob(scene="conference", mode=mode, preset=preset.name,
                 ray_kind="path") for mode in WORKLOAD_MODES],
    "bfs": lambda preset: [
        SweepJob(scene=scene, mode=mode, preset=preset.name, ray_kind="bfs")
        for scene in GRAPH_SCENES for mode in WORKLOAD_MODES],
}

def _no_jobs(preset: SimPreset) -> list:
    """Job source for experiments that need no simulations (the tables)."""
    return []


#: Uniform call surface for the CLI and :func:`run_selected`.
EXPERIMENTS = {
    "table1": lambda preset, results=None: table1(),
    "table2": lambda preset, results=None: table2(),
    "table3": lambda preset, results=None: table3(preset),
    "table4": lambda preset, results=None: table4(preset),
    "fig3": lambda preset, results=None: fig3(preset, results=results),
    "fig7": lambda preset, results=None: fig7(preset, results=results),
    "fig8": lambda preset, results=None: fig8(preset, results=results),
    "fig9": lambda preset, results=None: fig9(preset, results=results),
    "fig10": lambda preset, results=None: fig10(preset, results=results),
    "ablation_dwf": lambda preset, results=None: ablation_dwf(
        preset, results=results),
    "ablation_persistent": lambda preset, results=None: ablation_persistent(
        preset, results=results),
    "pathtrace": lambda preset, results=None: pathtrace(
        preset, results=results),
    "bfs": lambda preset, results=None: bfs(preset, results=results),
}


def sweep_jobs_for(names, preset: SimPreset) -> list[SweepJob]:
    """Deduplicated union of the jobs the named experiments need."""
    jobs: list[SweepJob] = []
    seen: set = set()
    for name in names:
        for job in FIGURE_JOBS.get(name, lambda preset: [])(preset):
            if job not in seen:
                seen.add(job)
                jobs.append(job)
    return jobs


def run_selected(names, preset: SimPreset, jobs: int | None = None,
                 progress=None, *, strict: bool = True, retry=None,
                 checkpoint=None, resume: bool = False, results_out=None):
    """Yield ``(name, data)`` for each experiment, sharing one sweep.

    All simulations the requested figures need run first — as a single
    deduplicated sweep over ``jobs`` workers (workloads are pre-warmed
    into the cache so worker processes never race on a scene build) —
    then each figure renders from the shared results.

    ``strict``/``retry``/``checkpoint``/``resume`` forward to
    :func:`~repro.harness.sweep.run_sweep` (retry policy, raise-vs-partial
    contract, and the resumable sweep manifest). ``results_out``, when
    given a list, receives the shared :class:`SweepResults` so callers
    (the CLI exit-code path) can inspect failures and verification flags
    after the figures render.
    """
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; choose from "
                       f"{', '.join(EXPERIMENTS)}")
    sim_jobs = sweep_jobs_for(names, preset)
    # jobs=None means serial here (the safe library default); the CLI
    # resolves its own default to REPRO_JOBS / os.cpu_count() first.
    workers = 1 if jobs is None else resolve_jobs(jobs)
    results = None
    if sim_jobs:
        if workers > 1:
            warm_workloads(sorted({(job.scene, job.ray_kind)
                                   for job in sim_jobs}),
                           preset.name, jobs_n=workers)
        results = run_sweep(sim_jobs, jobs_n=workers, progress=progress,
                            strict=strict, retry=retry,
                            checkpoint=checkpoint, resume=resume)
        if results_out is not None:
            results_out.append(results)
    failed_keys = {failure.job.key for failure in results.failures} \
        if results is not None else set()
    for name in names:
        # A partial (strict=False) sweep may be missing simulations a
        # figure needs; render a skip notice instead of crashing so the
        # surviving figures still come out.
        missing = [job for job in FIGURE_JOBS.get(name, _no_jobs)(preset)
                   if job.key in failed_keys] if failed_keys else []
        if missing:
            yield name, {"render": (
                f"{name}: skipped — required simulation(s) failed: "
                + ", ".join(job.describe() for job in missing))}
            continue
        yield name, EXPERIMENTS[name](preset, results=results)


def export_all_csv(preset: SimPreset, out_dir: str,
                   jobs: int | None = None) -> list[str]:
    """Regenerate the figure data and write CSVs under ``out_dir``."""
    from repro.analysis.export import write_breakdown_csv, write_rows_csv

    names = ("table2", "table3", "table4", "fig3", "fig7", "fig8", "fig9",
             "fig10")
    data = dict(run_selected(names, preset, jobs=jobs))
    written = []
    for name in ("table2", "table3", "table4", "fig8", "fig10"):
        written.append(str(write_rows_csv(f"{out_dir}/{name}.csv",
                                          data[name]["rows"])))
    for name in ("fig3", "fig7", "fig9"):
        written.append(str(write_breakdown_csv(
            f"{out_dir}/{name}.csv", data[name]["result"].stats.divergence)))
    return written
