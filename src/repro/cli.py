"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``experiments [--preset P] [--only table1,fig8,...] [--jobs N]
  [--checkpoint PATH] [--resume] [--retries N] [--job-timeout S]`` —
  regenerate the paper's tables and figures; ``--jobs N`` runs the
  simulations on N ``repro worker`` processes (default ``os.cpu_count()``,
  ``REPRO_JOBS`` override; results are bit-identical to ``--jobs 1``).
  Failed jobs retry with backoff and are quarantined, every result is
  appended to the ``--checkpoint`` manifest, and ``--resume`` skips every
  job that already has a result there; the command exits non-zero (with
  a summary) when any job permanently fails or comes back unverified,
- ``run --scene S --mode M [--preset P] [--rays shadow] [--fast|--exact]
  [--profile [N]]`` — one simulation with full metrics (``--fast``, the
  default, uses the event-driven clock; ``--exact`` ticks every cycle;
  ``--profile`` runs under cProfile and prints the top-N cumulative hot
  spots),
- ``render --scene S [--width W --height H] [--out f.ppm]`` — reference
  render of a benchmark scene,
- ``trace <scene> [--mode M] [--interval N] [--out trace.json]`` — run one
  simulation with cycle-attribution probes attached and export a Chrome
  ``trace_event`` file plus a stacked per-interval breakdown,
- ``fuzz [--cases N] [--seed S] [--models m1,m2] [--kinds k1,k2]
  [--replay PATH] [--out DIR]`` — generative differential conformance:
  run randomly generated µ-kernel programs on every applicable SIMT
  model and compare against the MIMD reference (functional equivalence,
  metamorphic variants, fast == exact clock statistics, structural
  counter identities). Divergences are
  auto-shrunk and written as JSON repro files to ``--out``; ``--replay``
  re-runs a corpus file or directory instead of generating,
- ``disasm {traditional|microkernels}`` — print a benchmark kernel's
  assembly,
- ``cache {info,clear}`` — inspect or empty the persistent workload cache
  (``$REPRO_CACHE_DIR``, default ``~/.cache/repro``),
- ``compare [--store DIR] [REV_A REV_B] [--tolerance T] [--metrics ...]``
  — print a rev-vs-rev (or latest-vs-previous) regression table from the
  ``repro-results/1`` store that ``REPRO_RESULTS_DIR`` runs record into;
  exits 1 when any metric regressed beyond the tolerance,
- ``serve [--host H] [--port P] [--checkpoint-dir DIR]`` — run the
  simulation job daemon (``POST /v1/jobs``, NDJSON event streams,
  checkpoint-backed instant answers; see :mod:`repro.serve.server`),
- ``submit --url URL --scene S --mode M [...]`` — submit one simulation
  to a running daemon and (by default) wait for its result,
- ``worker --manifest PATH [--once] [--id NAME] [--poll S]`` — claim and
  execute jobs from a sweep manifest under the retry policy written
  there; ``experiments --jobs N`` starts N of these, and workers on other
  hosts sharing the filesystem can join the same file.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api
from repro.analysis.divergence import render_breakdown
from repro.harness import experiments
from repro.harness.presets import PRESETS, get_preset
from repro.harness.runner import MODES
from repro.rt import BENCHMARK_SCENES
from repro.workloads import GRAPH_SCENES

#: Every scene a simulation verb accepts: the three rendering scenes plus
#: the procedural CSR graphs (rendering-only verbs keep BENCHMARK_SCENES).
SIM_SCENES = BENCHMARK_SCENES + GRAPH_SCENES

#: Every workload family: single-bounce ray batches, multi-bounce
#: roulette path tracing, and frontier BFS over the graph scenes.
RAY_KINDS = ("primary", "shadow", "reflection", "gi", "path", "bfs")


def _cmd_experiments(args) -> int:
    from repro.harness.sweep import (
        RetryPolicy,
        default_checkpoint_path,
        resolve_jobs,
        stderr_progress,
    )
    from repro.obs import render_sweep_summary

    preset = get_preset(args.preset)
    jobs = resolve_jobs(args.jobs)  # default: REPRO_JOBS, else all cores
    checkpoint = args.checkpoint or None
    if args.resume and checkpoint is None:
        # A stable per-preset default so plain `--resume` just works.
        checkpoint = str(default_checkpoint_path(
            f"experiments-{preset.name}"))
    retry = RetryPolicy(max_attempts=args.retries,
                        timeout_seconds=args.job_timeout)
    if args.csv_dir:
        for path in experiments.export_all_csv(preset, args.csv_dir,
                                               jobs=jobs):
            print(f"wrote {path}")
        return 0
    names = ([name.strip() for name in args.only.split(",")] if args.only
             else list(experiments.EXPERIMENTS))
    unknown = [name for name in names
               if name not in experiments.EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; choose from "
              f"{', '.join(experiments.EXPERIMENTS)}", file=sys.stderr)
        return 2
    swept: list = []
    for _, data in experiments.run_selected(names, preset, jobs=jobs,
                                            progress=stderr_progress,
                                            strict=False, retry=retry,
                                            checkpoint=checkpoint,
                                            resume=args.resume,
                                            results_out=swept):
        print(data["render"])
        print()
    # Exit non-zero when any sweep job permanently failed or came back
    # unverified — a green exit code must mean every simulation is good.
    if swept and (swept[0].failures or swept[0].unverified):
        print(render_sweep_summary(swept[0]), file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args) -> int:
    from repro.harness.cache import default_cache

    cache = default_cache()
    if args.verb == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.cache_dir}")
        return 0
    info = cache.info()
    del info["files"]  # keep `repro cache info` one screen tall
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    from repro.errors import ConfigError
    from repro.results import (
        DEFAULT_METRICS,
        DEFAULT_TOLERANCE,
        compare_records,
        compare_revisions,
        render_comparison,
        revisions_in,
    )
    from repro.results.store import ResultsStore, default_store

    tolerance = DEFAULT_TOLERANCE if args.tolerance is None \
        else args.tolerance
    if args.store:
        store = ResultsStore(args.store)
    else:
        store = default_store()
        if store is None:
            print("no results store: pass --store DIR or set "
                  "REPRO_RESULTS_DIR", file=sys.stderr)
            return 2
    records = store.load()
    if not records:
        print(f"no records in {store.path}; record runs by setting "
              f"REPRO_RESULTS_DIR", file=sys.stderr)
        return 2
    metrics = tuple(name.strip() for name in args.metrics.split(",")) \
        if args.metrics else DEFAULT_METRICS
    revs = args.revs
    try:
        if len(revs) == 1:
            print("compare takes zero revisions (latest vs previous) or "
                  "two (REV_A REV_B), not one", file=sys.stderr)
            return 2
        if len(revs) == 2:
            comparison = compare_revisions(records, revs[0], revs[1],
                                           metrics=metrics,
                                           tolerance=tolerance)
        else:
            known = revisions_in(records)
            if len(known) >= 2:
                comparison = compare_revisions(records, known[-2], known[-1],
                                               metrics=metrics,
                                               tolerance=tolerance)
            else:
                # One revision only: compare each configuration's first
                # recorded run against its latest (run-vs-run drift).
                firsts: dict[str, dict] = {}
                for record in records:
                    firsts.setdefault(record.get("config_digest"), record)
                comparison = compare_records(list(firsts.values()), records,
                                             metrics=metrics,
                                             tolerance=tolerance)
    except ConfigError as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(comparison, tolerance=tolerance))
    return 1 if comparison["regressions"] else 0


def _cmd_run(args) -> int:
    preset = get_preset(args.preset)
    def simulate():
        return api.simulate(args.scene, args.mode, preset=preset,
                            ray_kind=args.rays,
                            fast_forward=args.fast_forward)
    if args.profile:
        import cProfile
        import pstats

        # Prepare the workload outside the profile so the hot-spot table
        # shows the simulator loop, not scene construction or cache IO.
        api.prepare_workload(args.scene, preset, ray_kind=args.rays)
        profiler = cProfile.Profile()
        profiler.enable()
        result = simulate()
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile)
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"wrote {args.profile_out} (load with pstats or snakeviz)")
    else:
        result = simulate()
    clock = "fast" if args.fast_forward else "exact"
    print(f"scene={args.scene} rays={args.rays} mode={args.mode} "
          f"preset={preset.name} clock={clock}")
    print(f"  cycles             {result.stats.cycles}")
    print(f"  IPC                {result.ipc:.2f}")
    print(f"  SIMT efficiency    {result.simt_efficiency:.3f}")
    print(f"  rays completed     {result.stats.rays_completed}"
          f"/{result.num_rays}")
    print(f"  Mrays/s (30 SMs)   {result.rays_per_second / 1e6:.1f}")
    print(f"  DRAM read/write    {result.stats.dram_read_bytes}"
          f"/{result.stats.dram_write_bytes} bytes")
    print(f"  verified           {result.verify()}")
    if args.divergence:
        print(render_breakdown(result.stats.divergence))
    return 0 if result.verify() else 1


def _cmd_render(args) -> int:
    import numpy as np

    from repro.rt import Camera, build_kdtree, make_scene, trace_rays
    from repro.rt.image import shade_hits

    scene = make_scene(args.scene, detail=args.detail)
    tree = build_kdtree(scene.triangles, max_depth=args.depth, leaf_size=8)
    camera = Camera.for_scene(scene)
    origins, directions = camera.primary_rays(args.width, args.height)
    result = trace_rays(tree, origins, directions)
    frame = shade_hits(args.width, args.height, scene.triangles,
                       result.triangle, result.t, directions)
    frame.write_ppm(args.out)
    hits = int(result.hit_mask.sum())
    print(f"{args.scene}: {scene.num_triangles} triangles, "
          f"{hits}/{origins.shape[0]} rays hit, wrote {args.out}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import (
        render_interval_plot,
        write_chrome_trace,
        write_intervals_csv,
        write_intervals_json,
    )

    result = api.simulate(args.scene, args.mode, preset=args.preset,
                          ray_kind=args.rays,
                          fast_forward=args.fast_forward,
                          probes=args.interval)
    session = result.trace
    path = write_chrome_trace(args.out, session)
    print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    if args.csv:
        print(f"wrote {write_intervals_csv(args.csv, session)}")
    if args.json:
        print(f"wrote {write_intervals_json(args.json, session, result.stats)}")
    summary = session.summary()
    print(f"scene={args.scene} rays={args.rays} mode={args.mode} "
          f"preset={args.preset} interval={session.interval}")
    print(f"  cycles             {summary['cycles']}")
    print(f"  intervals          {summary['intervals']}")
    print(f"  events             {summary['events']}"
          + (f" (+{summary['dropped_events']} dropped)"
             if summary["dropped_events"] else ""))
    print(f"  IPC                {result.ipc:.2f}")
    attribution = session.stall_attribution()
    print(f"  idle cycles        {attribution['idle_cycles']}")
    print(f"  stall cycles       {attribution['stall_cycles']}")
    print(render_interval_plot(session))
    return 0


def _cmd_fuzz(args) -> int:
    import os

    from repro.fuzz import (
        FUZZ_MODELS,
        load_case,
        load_corpus,
        run_case,
        run_fuzz,
        save_case,
        shrink_case,
    )
    from repro.fuzz.generator import CASE_KINDS

    models = None
    if args.models:
        models = tuple(name.strip() for name in args.models.split(","))
        unknown = [name for name in models if name not in FUZZ_MODELS]
        if unknown:
            print(f"unknown model {unknown[0]!r}; choose from "
                  f"{', '.join(FUZZ_MODELS)}", file=sys.stderr)
            return 2
    kinds = None
    if args.kinds:
        kinds = tuple(name.strip() for name in args.kinds.split(","))
        unknown = [name for name in kinds if name not in CASE_KINDS]
        if unknown:
            print(f"unknown kind {unknown[0]!r}; choose from "
                  f"{', '.join(CASE_KINDS)}", file=sys.stderr)
            return 2

    if args.replay:
        if os.path.isdir(args.replay):
            entries = load_corpus(args.replay)
        else:
            entries = [(args.replay, load_case(args.replay))]
        if not entries:
            print(f"no corpus files under {args.replay}", file=sys.stderr)
            return 2
        failed = 0
        for path, case in entries:
            result = run_case(case, models=models)
            status = ("skip" if result.skipped
                      else "ok" if result.ok else "FAIL")
            print(f"{status:5s} {path} ({case.describe()})")
            for failure in result.failures:
                print(f"      {failure}")
            failed += bool(result.failures)
        print(f"replayed {len(entries)} case(s), {failed} failure(s)")
        return 1 if failed else 0

    def progress(index, result):
        if not args.quiet:
            mark = "s" if result.skipped else "." if result.ok else "F"
            print(mark, end="", flush=True)
            if (index + 1) % 50 == 0:
                print(f" {index + 1}/{args.cases}")

    report = run_fuzz(args.cases, args.seed, models=models, kinds=kinds,
                      on_case=progress)
    if not args.quiet:
        print()
    print(f"ran {report.cases_run} case(s), {report.skipped} skipped, "
          f"{len(report.failures)} with divergences")
    if report.ok:
        return 0
    os.makedirs(args.out, exist_ok=True)
    for result in report.failures:
        case = result.case
        for failure in result.failures[:4]:
            print(f"  seed={case.seed}: {failure}")
        if args.shrink:
            def still_fails(candidate):
                return bool(run_case(candidate, models=models).failures)
            case = shrink_case(case, still_fails,
                               max_evals=args.max_shrink_evals)
        path = os.path.join(args.out, f"case-{case.seed}.json")
        save_case(case, path)
        print(f"  wrote {path} ({len(case.program)} instructions)")
    return 1


def _cmd_disasm(args) -> int:
    from repro.isa import disassemble
    from repro.kernels.microkernels import microkernel_program
    from repro.kernels.traditional import traditional_program

    program = (traditional_program() if args.kernel == "traditional"
               else microkernel_program())
    print(disassemble(program))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import serve_forever

    def ready(url):
        print(f"repro serve listening on {url} "
              f"(POST {url}/v1/jobs)", flush=True)

    return serve_forever(host=args.host, port=args.port,
                         checkpoint_dir=args.checkpoint_dir or None,
                         verbose=args.verbose, ready=ready)


def _cmd_worker(args) -> int:
    from repro.errors import ConfigError
    from repro.harness.sweep import stderr_progress
    from repro.serve.worker import run_worker

    try:
        executed = run_worker(args.manifest, worker=args.id or None,
                              poll_seconds=args.poll, once=args.once,
                              progress=stderr_progress)
    except ConfigError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 2
    print(f"executed {executed} job(s) from {args.manifest}")
    return 0


def _cmd_submit(args) -> int:
    from repro.errors import ServeError
    from repro.serve.client import ServeClient
    from repro.serve.wire import SweepRequest

    client = ServeClient(args.url, timeout=args.http_timeout)
    request = SweepRequest(jobs=(api.SweepJob(
        scene=args.scene, mode=args.mode, preset=args.preset,
        ray_kind=args.rays, seed=args.seed),))
    try:
        if args.no_wait:
            status = client.submit(request)
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        answer = client.run(request, timeout=args.timeout)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(answer, indent=2, sort_keys=True))
    return 0 if answer["state"] == "done" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate tables/figures")
    p_exp.add_argument("--preset", default="fast", choices=sorted(PRESETS))
    p_exp.add_argument("--only", default="",
                       help="comma-separated subset, e.g. table1,fig8")
    p_exp.add_argument("--csv-dir", default="",
                       help="write figure/table data as CSV files here "
                            "instead of printing")
    p_exp.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="repro worker processes for the simulation "
                            "sweep (default: REPRO_JOBS or all cores; "
                            "1 = serial in-process; results are "
                            "bit-identical either way)")
    p_exp.add_argument("--checkpoint", default="", metavar="PATH",
                       help="append every sweep result to this JSONL "
                            "manifest (enables crash-safe restarts)")
    p_exp.add_argument("--resume", action="store_true",
                       help="skip jobs already recorded in the checkpoint "
                            "manifest (default manifest: "
                            "<cache-dir>/checkpoints/experiments-<preset>"
                            ".jsonl); resumed results are bit-identical")
    p_exp.add_argument("--retries", type=int, default=3, metavar="N",
                       help="executions per job before it is quarantined "
                            "(default 3; failures exit non-zero)")
    p_exp.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget; hung jobs are "
                            "killed and retried (default: no timeout)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_run = sub.add_parser("run", help="simulate one workload/mode pair")
    p_run.add_argument("--scene", default="conference",
                       choices=SIM_SCENES)
    p_run.add_argument("--mode", default="spawn", choices=MODES)
    p_run.add_argument("--preset", default="fast", choices=sorted(PRESETS))
    p_run.add_argument("--rays", default="primary", choices=RAY_KINDS)
    p_run.add_argument("--divergence", action="store_true",
                       help="print the warp-occupancy breakdown")
    p_run.add_argument("--profile", type=int, nargs="?", const=25, default=0,
                       metavar="N",
                       help="run under cProfile and print the top N "
                            "cumulative hot spots (default 25 with no "
                            "value); workload preparation is excluded")
    p_run.add_argument("--profile-out", default="", metavar="PATH",
                       help="with --profile, also dump the raw pstats "
                            "data here for later analysis")
    clock = p_run.add_mutually_exclusive_group()
    clock.add_argument("--fast", dest="fast_forward", action="store_true",
                       help="event-driven clock: skip idle cycles (default)")
    clock.add_argument("--exact", dest="fast_forward", action="store_false",
                       help="tick every cycle (reference mode; statistics "
                            "are identical to --fast)")
    p_run.set_defaults(func=_cmd_run, fast_forward=True)

    p_trace = sub.add_parser("trace",
                             help="simulate with probes; export a trace")
    p_trace.add_argument("scene", choices=SIM_SCENES)
    p_trace.add_argument("--mode", default="spawn", choices=MODES)
    p_trace.add_argument("--preset", default="fast", choices=sorted(PRESETS))
    p_trace.add_argument("--rays", default="primary", choices=RAY_KINDS)
    p_trace.add_argument("--interval", type=int, default=512, metavar="N",
                         help="cycles per metrics interval (default 512)")
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace_event output path")
    p_trace.add_argument("--csv", default="",
                         help="also write the interval table as CSV here")
    p_trace.add_argument("--json", default="",
                         help="also write intervals + stats as JSON here")
    t_clock = p_trace.add_mutually_exclusive_group()
    t_clock.add_argument("--fast", dest="fast_forward", action="store_true",
                         help="event-driven clock (default; interval "
                              "metrics are identical to --exact)")
    t_clock.add_argument("--exact", dest="fast_forward",
                         action="store_false", help="tick every cycle")
    p_trace.set_defaults(func=_cmd_trace, fast_forward=True)

    p_render = sub.add_parser("render", help="reference-render a scene")
    p_render.add_argument("--scene", default="conference",
                          choices=BENCHMARK_SCENES)
    p_render.add_argument("--width", type=int, default=64)
    p_render.add_argument("--height", type=int, default=64)
    p_render.add_argument("--detail", type=float, default=0.5)
    p_render.add_argument("--depth", type=int, default=13)
    p_render.add_argument("--out", default="render.ppm")
    p_render.set_defaults(func=_cmd_render)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential conformance fuzzing of the SIMT models")
    p_fuzz.add_argument("--cases", type=int, default=100, metavar="N",
                        help="number of generated cases (default 100)")
    p_fuzz.add_argument("--seed", type=int, default=0, metavar="S",
                        help="campaign seed; same (cases, seed) replays the "
                             "identical campaign (default 0)")
    p_fuzz.add_argument("--models", default="", metavar="M1,M2",
                        help="comma-separated model subset "
                             "(default: all applicable per case)")
    p_fuzz.add_argument("--kinds", default="", metavar="K1,K2",
                        help="restrict generated program kinds "
                             "(plain,spawn,barrier)")
    p_fuzz.add_argument("--replay", default="", metavar="PATH",
                        help="replay a corpus JSON file or directory "
                             "instead of generating cases")
    p_fuzz.add_argument("--out", default="fuzz-failures", metavar="DIR",
                        help="directory for shrunk failing-case JSON files "
                             "(default fuzz-failures)")
    p_fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="write failing cases without shrinking them")
    p_fuzz.add_argument("--max-shrink-evals", type=int, default=300,
                        metavar="N", help="shrinker evaluation budget per "
                                          "case (default 300)")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress marks")
    p_fuzz.set_defaults(func=_cmd_fuzz, shrink=True)

    p_dis = sub.add_parser("disasm", help="print a benchmark kernel")
    p_dis.add_argument("kernel", choices=("traditional", "microkernels"))
    p_dis.set_defaults(func=_cmd_disasm)

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the workload cache")
    p_cache.add_argument("verb", choices=("info", "clear"))
    p_cache.set_defaults(func=_cmd_cache)

    p_cmp = sub.add_parser(
        "compare",
        help="rev-vs-rev regression table from the results store")
    p_cmp.add_argument("revs", nargs="*", metavar="REV",
                       help="two git revisions (baseline, candidate); with "
                            "none, compares the two most recent revisions "
                            "in the store (or first-vs-latest run when the "
                            "store holds a single revision)")
    p_cmp.add_argument("--store", default="", metavar="DIR",
                       help="results store directory (default: "
                            "REPRO_RESULTS_DIR)")
    p_cmp.add_argument("--tolerance", type=float, default=None,
                       metavar="FRACTION",
                       help="relative shortfall tolerated per metric before "
                            "it counts as a regression (default 0.05)")
    p_cmp.add_argument("--metrics", default="", metavar="M1,M2",
                       help="comma-separated metric subset (default: "
                            "cycles_per_second,simt_efficiency,"
                            "rays_per_second)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_serve = sub.add_parser("serve", help="run the simulation job daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8732,
                         help="TCP port (default 8732; 0 picks a free one)")
    p_serve.add_argument("--checkpoint-dir", default="", metavar="DIR",
                         help="directory for per-request checkpoint "
                              "manifests (default: REPRO_CHECKPOINT_DIR or "
                              "<cache-dir>/checkpoints); resubmitted "
                              "requests answer from here without "
                              "re-simulating")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one simulation to a running daemon")
    p_submit.add_argument("--url", default="http://127.0.0.1:8732",
                          help="daemon base URL (default "
                               "http://127.0.0.1:8732)")
    p_submit.add_argument("--scene", default="conference",
                          choices=SIM_SCENES)
    p_submit.add_argument("--mode", default="spawn", choices=MODES)
    p_submit.add_argument("--preset", default="fast",
                          choices=sorted(PRESETS))
    p_submit.add_argument("--rays", default="primary", choices=RAY_KINDS)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the job status and exit instead of "
                               "waiting for the result")
    p_submit.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="give up waiting after this long "
                               "(default: wait forever)")
    p_submit.add_argument("--http-timeout", type=float, default=30.0,
                          metavar="SECONDS",
                          help="per-request socket timeout (default 30)")
    p_submit.set_defaults(func=_cmd_submit)

    p_worker = sub.add_parser(
        "worker", help="claim and execute jobs from a sweep manifest")
    p_worker.add_argument("--manifest", required=True, metavar="PATH",
                          help="shared JSONL sweep manifest (see "
                               "repro.serve.manifest)")
    p_worker.add_argument("--id", default="", metavar="NAME",
                          help="claim ident (default: a unique "
                               "host-pid-time ident)")
    p_worker.add_argument("--once", action="store_true",
                          help="exit when no open job remains instead of "
                               "polling for new ones")
    p_worker.add_argument("--poll", type=float, default=0.5,
                          metavar="SECONDS",
                          help="manifest poll interval when idle "
                               "(default 0.5)")
    p_worker.set_defaults(func=_cmd_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
