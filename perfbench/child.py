"""One workload process of the end-to-end benchmark.

``run.py`` starts this script once per round, serially, and never imports
it: the process is what the host metrics measure, from its spawn (taken
by the parent on the shared monotonic clock) to its last program-side
output. After that point the wrappers come off, the outputs are checked
against references recomputed from scratch, and the round's figures are
written as JSON for the parent.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \\
        --run-dir DIR --round K --t-spawn SECONDS [--setup-only]
    python3 perfbench/child.py --warm --workload gi-30sm-warm --seed N \\
        --run-dir DIR --t-spawn SECONDS

``--warm`` fills the run's workload cache for ``gi-30sm-warm`` and exits;
the parent runs it untimed, in its own process, before the first round.
``--setup-only`` does what a round does up to the entry into the first
simulator run call, writes ``setup-K.json`` with the set-up time, and
exits there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys

from common import EXPERIMENT_NAMES, EXPERIMENTS_PRESET, \
    ABLATION_SIMULATIONS, GI_MODES, GI_SCENE, gi_preset, now


def warm(seed: int) -> None:
    from repro import api

    api.prepare_workload(GI_SCENE, gi_preset(), ray_kind="gi", seed=seed)


def run_experiments(recorder, out: dict) -> dict:
    """``repro experiments --preset tiny --jobs 1``, from an empty cache,
    with every workload the figures need prepared before the first
    simulation (as ``run_selected`` does ahead of a parallel sweep)."""
    from repro.harness.experiments import EXPERIMENTS, run_selected, \
        sweep_jobs_for
    from repro.harness.presets import get_preset
    from repro.harness.sweep import warm_workloads

    preset = get_preset(EXPERIMENTS_PRESET)
    names = [name for name in EXPERIMENT_NAMES if name in EXPERIMENTS]
    jobs = sweep_jobs_for(names, preset)
    out["expected_simulations"] = len(jobs) + ABLATION_SIMULATIONS
    with recorder.span("warm_workloads", "sweep"):
        warm_workloads(sorted({(job.scene, job.ray_kind) for job in jobs}),
                       preset.name, jobs_n=1)
    rendered: dict = {}
    shared: list = []
    with recorder.span("run_selected", "experiments"):
        try:
            for name, data in run_selected(names, preset, jobs=1,
                                           strict=False, results_out=shared):
                rendered[name] = data
        except Exception as exc:  # the rest of the figure set is lost
            out["errors"].append(f"run_selected: {exc!r}")
    report = "\n\n".join(data["render"] for data in rendered.values())
    return {"rendered": rendered, "sweep": shared[0] if shared else None,
            "report": report}


def run_gi(recorder, seed: int, out: dict) -> dict:
    """``pdom_block`` then ``spawn`` on 30 SMs over seeded GI rays, from a
    warm cache, each inside the fixed cycle window."""
    from repro import api
    from repro.analysis.report import format_table

    preset = gi_preset()
    out["expected_simulations"] = len(GI_MODES)
    rows = []
    for mode in GI_MODES:
        try:
            result = api.simulate(GI_SCENE, mode, preset=preset,
                                  ray_kind="gi", seed=seed)
        except Exception as exc:
            out["errors"].append(f"{mode}: {exc!r}")
            continue
        rows.append({"mode": mode, "cycles": result.stats.cycles,
                     "ipc": round(result.ipc, 1),
                     "efficiency": round(result.simt_efficiency, 3),
                     "mrays_per_s": round(result.rays_per_second / 1e6, 2),
                     "completed": round(result.completed_fraction, 3),
                     "verified": result.verify()})
    report = format_table(rows, title=f"{GI_SCENE} GI rays, {preset.num_sms}"
                                      f" SMs, seed {seed}")
    return {"rows": rows, "report": report}


def simulated_totals(simulations) -> tuple[dict, dict]:
    """Modelled counters summed over the round's simulations: the
    per-layer counts, and the figures the end-to-end metrics need."""
    gpu = [sim for sim in simulations if sim.model == "gpu"]
    dwf = [sim for sim in simulations if sim.model == "dwf"]

    def total(field: str, sims) -> int:
        return sum(int(getattr(sim.aggregate, field)) for sim in sims)

    counts = {f"simt.{name}": total(field, gpu) for name, field in (
        ("winst", "issued_instructions"),
        ("tinst", "committed_thread_instructions"),
        ("idle_cycles", "idle_cycles"), ("stall_cycles", "stall_cycles"),
        ("threads_spawned", "threads_spawned"),
        ("bank_conflict_cycles", "bank_conflict_cycles"))}
    counts.update({
        "simt.cycles": sum(sim.cycles for sim in gpu),
        "simt.sm_cycles": sum(sim.sm_cycles for sim in gpu),
        "simt.dram_transactions": sum(sim.dram_transactions for sim in gpu),
        "simt.results_completed": sum(sim.rays_completed for sim in gpu),
        "dwf.winst": total("issued_instructions", dwf),
    })
    winst = total("issued_instructions", simulations)
    lanes = sum(int(sim.aggregate.issued_instructions)
                * sim.config.warp_size for sim in simulations)
    # Fig. 8 scaling: SMs are independent, so completions scale with the
    # SM count up to the paper's 30-SM machine.
    scaled_results = sum(sim.rays_completed * 30 / sim.config.num_sms
                         for sim in simulations)
    sim_seconds = sum(sim.cycles / (sim.config.clock_ghz * 1e9)
                      for sim in simulations)
    host_s = sum(sim.host_s for sim in simulations)
    summary = {
        "sim_winst_per_s": winst / host_s if host_s else 0.0,
        "sim_mrays_per_s": (scaled_results / sim_seconds / 1e6
                            if sim_seconds else 0.0),
        "simt_efficiency": (total("committed_thread_instructions",
                                  simulations) / lanes if lanes else 0.0),
    }
    return counts, summary


def check_round(simulations, produced: dict, workload: str,
                expected: int) -> dict:
    """Outputs against references recomputed from scratch, and the
    operations attempted and failed in the round."""
    from checks import References, check_experiments, check_simulation

    started = now()
    references = References()
    per_sim, problems, checked_total = [], [], 0
    for sim in simulations:
        found, checked = check_simulation(sim, references)
        checked_total += checked
        per_sim.append({"label": sim.label, "cycles": sim.cycles,
                        "finished": sim.finished,
                        "results_completed": sim.rays_completed,
                        "results_checked": checked,
                        "host_s": sim.host_s, "problems": found})
        problems += [f"{sim.label}: {text}" for text in found]
    attempted = expected
    failed = max(0, expected - len(simulations))
    counts = {"verify.results_checked": checked_total}
    missing: list[str] = []
    if workload == "experiments-cold":
        rendered = produced["rendered"]
        ablations = {name: rendered[name].get("verified", False)
                     for name in ("ablation_dwf", "ablation_persistent")
                     if name in rendered}
        missing, found = check_experiments(rendered, EXPERIMENT_NAMES,
                                           produced["sweep"], ablations)
        problems += found
        counts["sweep.jobs"] = len(produced["sweep"] or ())
        attempted += len(EXPERIMENT_NAMES)
        failed += len(missing)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "missing_experiments": missing, "simulations": per_sim,
            "simulations_expected": expected, "counts": counts,
            "checks_s": now() - started}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=pathlib.Path, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.warm:
        warm(args.seed)
        return 0
    t_spawn = args.t_spawn
    run_id = f"{args.workload}-s{args.seed}-r{args.round}-{os.getpid()}"

    def setup_done(t_first_sim: float) -> None:
        (args.run_dir / f"setup-{args.round}.json").write_text(
            json.dumps({"setup_s": t_first_sim - t_spawn}))
        os._exit(0)

    from probes import Recorder

    recorder = Recorder(t_spawn, run_id, traced=bool(args.trace),
                        on_first_sim=setup_done if args.setup_only else None)
    with recorder.span("import", "import"):
        import numpy  # noqa: F401
        import repro.api  # noqa: F401
        import repro.harness.experiments  # noqa: F401
        import repro.harness.sweep  # noqa: F401
    recorder.install()
    out: dict = {"errors": []}
    try:
        if args.workload == "experiments-cold":
            produced = run_experiments(recorder, out)
        else:
            produced = run_gi(recorder, args.seed, out)
        (args.run_dir / f"report-{args.round}.txt").write_text(
            produced["report"] + "\n")
    finally:
        t_end = now()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        recorder.uninstall()

    from repro.harness.cache import default_cache

    cache_stats = default_cache().stats
    simulations = recorder.simulations
    counts, summary = simulated_totals(simulations)
    out.update(summary, **{
        "wall_s": t_end - t_spawn,
        "setup_s": (recorder.first_sim - t_spawn
                    if recorder.first_sim is not None else None),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # CPU time of the process against its wall time: equal when the
        # host slows by running slower, not by descheduling the process.
        "cpu_s": usage.ru_utime + usage.ru_stime,
    })
    counts.update({"cache.misses": cache_stats.misses,
                   "cache.disk_hits": cache_stats.disk_hits,
                   "cache.stores": cache_stats.stores})
    checked = check_round(simulations, produced, args.workload,
                          out.pop("expected_simulations"))
    counts.update(checked.pop("counts"))
    out.update(checked, counts=counts)
    if recorder.traced:
        out["spans"] = {
            "self_s": recorder.self_times(),
            "covered_s": recorder.root_seconds(),
            "sm_steps": recorder.sm_steps,
            "reference_rays": recorder.reference_rays,
        }
        trace = recorder.chrome_trace(
            os.getpid(), {"workload": args.workload, "seed": args.seed,
                          "wall_s": out["wall_s"],
                          "sm_steps": recorder.sm_steps})
        (args.run_dir / f"trace-{args.round}.json").write_text(
            json.dumps(trace))
    (args.run_dir / f"round-{args.round}.json").write_text(
        json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
