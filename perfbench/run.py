"""End-to-end benchmark of the repro simulator: one run of one workload.

    python3 perfbench/run.py --workload experiments-cold|gi-30sm-warm \\
        --seed N --seconds S --trace 0|1

A run executes whole rounds of its workload, serially, each round in a
fresh process (``child.py``): as many as fit in ``--seconds`` at the
workload's nominal round length (``common.ROUND_S``), at least one, and
none that would end past the run's deadline. ``--trace 0`` first times
set-ups on their own until the rounds' own set-ups and these make
``SETUP_SAMPLES``, then prints every end-to-end metric of
``BENCHMARK.json`` (medians over the rounds and set-ups); ``--trace 1``
runs one traced round and prints every per-layer metric, a self-time
table by layer, and the tracing overhead, and writes the spans as Chrome
``trace_event`` JSON. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The seed reaches the program only as the GI ray seed of ``gi-30sm-warm``;
``experiments-cold`` keeps the figure set's fixed seed 0. Everything the
run writes stays under ``.perfbench/`` in the checkout, apart from the
bytecode caches (``__pycache__``) Python keeps beside the sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, RUN_DEADLINE_S, SETUP_SAMPLES, \
    WORK_DIR, WORKLOADS, child_env, code_digest, host_speed_reference, \
    load_benchmark, now, rounds_for

HISTORY = WORK_DIR / "history.jsonl"


class RunError(Exception):
    """The run cannot produce a result (the program or a round failed)."""


def build() -> None:
    """Compile the program and the benchmark to bytecode, untimed, so no
    round pays for compilation."""
    for directory in (ROOT / "src" / "repro", BENCH_DIR):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise RunError(f"{directory} does not compile")


def run_child(args: list[str], run_dir: pathlib.Path, tag: str,
              deadline: float) -> float:
    """Start ``child.py`` with ``args``, wait for it, return its spawn time.

    The child is killed (and waited for) at the run's deadline.
    """
    stdout = open(run_dir / f"{tag}.out", "wb")
    stderr = open(run_dir / f"{tag}.err", "wb")
    with stdout, stderr:
        t_spawn = now()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *args,
             "--t-spawn", repr(t_spawn)],
            cwd=ROOT, env=child_env(run_dir), stdout=stdout, stderr=stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"{tag} exceeded the run deadline; killed")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (run_dir / f"{tag}.err").read_text(errors="replace")[-3000:]
        raise RunError(f"{tag} exited with code {code}:\n{tail}")
    return t_spawn


def untraced_walls(key: dict) -> list[float]:
    """Wall times of the last ten untraced runs in this checkout whose
    workload, program seed and code digest are ``key``'s."""
    if not HISTORY.exists():
        return []
    walls = []
    for line in HISTORY.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if all(entry.get(name) == value for name, value in key.items()):
            walls.append(entry["wall_s"])
    return walls[-10:]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics: host figures as medians over rounds (``setup_s``
    over the rounds' set-ups and the set-up-only ones); the two simulated
    figures repeat exactly, so any round gives them."""
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in ("wall_s", "sim_winst_per_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(
        [r["setup_s"] for r in rounds] + setups)
    metrics["sim_mrays_per_s"] = rounds[0]["sim_mrays_per_s"]
    metrics["simt_efficiency"] = rounds[0]["simt_efficiency"]
    return metrics


def per_layer(result: dict) -> dict:
    """Per-layer metrics of a traced round."""
    spans = result["spans"]
    own = spans["self_s"]
    counts = result["counts"]
    winst = counts["simt.winst"]
    dwf_winst = counts["dwf.winst"]
    metrics = {
        "import.s": own["import"],
        "rt.scene_s": own["rt.scene"],
        "rt.kdtree_s": own["rt.kdtree"],
        "rt.reference_s": own["rt.reference"],
        "rt.reference_rays": spans["reference_rays"],
        "workloads.graph_s": own["workloads.graph"],
        "cache.self_s": own["cache"],
        "cache.misses": counts["cache.misses"],
        "cache.disk_hits": counts["cache.disk_hits"],
        "cache.stores": counts["cache.stores"],
        "kernels.s": own["kernels"],
        "simt.init_s": own["simt.init"],
        "simt.run_s": own["simt.run"],
        "simt.us_per_winst": own["simt.run"] / winst * 1e6 if winst else 0.0,
        "simt.sm_steps": spans["sm_steps"],
        "simt.winst_per_step": (winst / spans["sm_steps"]
                                if spans["sm_steps"] else 0.0),
    }
    for name in ("simt.cycles", "simt.sm_cycles", "simt.winst", "simt.tinst",
                 "simt.idle_cycles", "simt.stall_cycles",
                 "simt.threads_spawned", "simt.dram_transactions",
                 "simt.bank_conflict_cycles", "simt.results_completed"):
        metrics[name] = counts[name]
    metrics.update({
        "dwf.run_s": own["dwf.run"],
        "dwf.winst": dwf_winst,
        "dwf.us_per_winst": (own["dwf.run"] / dwf_winst * 1e6
                             if dwf_winst else 0.0),
        "sweep.self_s": own["sweep"],
        "sweep.jobs": counts.get("sweep.jobs", 0),
        "experiments.self_s": own["experiments"],
        "verify.s": own["verify"],
        "verify.results_checked": counts["verify.results_checked"],
    })
    metrics["untraced.s"] = result["wall_s"] - spans["covered_s"]
    return metrics


def print_overhead(wall: float, walls: list[float]) -> None:
    """``trace.overhead_s``: traced wall time minus the untraced median of
    the same code, workload and program seed, when such runs exist."""
    if not walls:
        print("trace.overhead_s: no baseline (no untraced run of this code, "
              "workload and program seed in .perfbench/history.jsonl)")
        return
    base = statistics.median(walls)
    print(f"trace.overhead_s: {wall - base:+.3f} s (traced wall {wall:.3f} s"
          f" minus the median {base:.3f} s of {len(walls)} untraced run(s) "
          f"of this code, workload and program seed)")


def print_self_times(result: dict) -> None:
    wall = result["wall_s"]
    own = result["spans"]["self_s"]
    print(f"self time by layer (traced wall {wall:.3f} s):")
    print(f"  {'layer':<18}{'self_s':>10}{'share':>8}")
    for layer, seconds in own.items():
        print(f"  {layer:<18}{seconds:>10.4f}{seconds / wall:>8.1%}")
    rest = wall - result["spans"]["covered_s"]
    print(f"  {'untraced':<18}{rest:>10.4f}{rest / wall:>8.1%}")
    print(f"  {'total':<18}{sum(own.values()) + rest:>10.4f}")


def print_metrics(title: str, values: dict, specs: list[dict]) -> None:
    print(title)
    for spec in specs:
        value = values[spec["name"]]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {spec['name']:<26}{shown:>18} {spec['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    run_dir = WORK_DIR / "runs" / (f"{args.workload}-s{args.seed}-"
                                   f"t{args.trace}-{time.time_ns()}")
    run_dir.mkdir(parents=True)
    try:
        return run(args, benchmark, run_dir)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "cache", ignore_errors=True)
        shutil.rmtree(run_dir / "xdg", ignore_errors=True)


def run_rounds(args, run_dir: pathlib.Path) -> tuple[list[dict],
                                                     list[float]]:
    """Set-ups on their own (untraced runs only), then whole rounds of the
    workload, one process each: ``rounds_for`` of them untraced, one
    traced. No round starts that would end past the run's deadline."""
    deadline = now() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--run-dir", str(run_dir)]
    if args.workload == "gi-30sm-warm":
        run_child(common + ["--warm"], run_dir, "warm", deadline)
    wanted = 1 if args.trace else rounds_for(args.workload, args.seconds)
    setups: list[float] = []
    for index in range(wanted, 0 if args.trace else SETUP_SAMPLES):
        if args.workload == "experiments-cold":
            shutil.rmtree(run_dir / "cache", ignore_errors=True)
        run_child(common + ["--round", str(index), "--setup-only"],
                  run_dir, f"setup-{index}", deadline)
        sample = run_dir / f"setup-{index}.json"
        if not sample.exists():
            raise RunError(f"setup-{index} ran no simulation; no set-up "
                           f"to time")
        setups.append(json.loads(sample.read_text())["setup_s"])
    rounds: list[dict] = []
    last = 0.0
    while len(rounds) < wanted and (not rounds or now() + last < deadline):
        index = len(rounds)
        if args.workload == "experiments-cold":
            shutil.rmtree(run_dir / "cache", ignore_errors=True)
        round_start = now()
        run_child(common + ["--trace", str(args.trace),
                            "--round", str(index)],
                  run_dir, f"round-{index}", deadline)
        rounds.append(json.loads(
            (run_dir / f"round-{index}.json").read_text()))
        last = now() - round_start
    return rounds, setups


def report_rounds(rounds: list[dict]) -> list[str]:
    """Print what the rounds did and found; return the check failures."""
    problems = [text for r in rounds for text in r["problems"]]
    errors = [text for r in rounds for text in r["errors"]]
    if any(r["setup_s"] is None for r in rounds):
        raise RunError("a round ran no simulation; nothing to measure:\n"
                       + "\n".join(errors + problems))
    first = rounds[0]
    for index, r in enumerate(rounds):
        if (r["counts"], r["sim_mrays_per_s"], r["simt_efficiency"]) != (
                first["counts"], first["sim_mrays_per_s"],
                first["simt_efficiency"]):
            problems.append(f"round {index} simulated other counts than "
                            f"round 0")
        print(f"round {index}: wall {r['wall_s']:.3f} s (CPU "
              f"{r['cpu_s']:.3f} s), setup {r['setup_s']:.3f} s, "
              f"{r['attempted']} operations attempted, {r['failed']} "
              f"failed; {len(r['simulations'])} of "
              f"{r['simulations_expected']} simulations ran; "
              f"{r['counts']['verify.results_checked']} results checked "
              f"against references in {r['checks_s']:.2f} s")
    vacuous = [sim["label"] for sim in first["simulations"]
               if sim["results_checked"] == 0]
    print("simulations whose check compares no result: "
          + (", ".join(vacuous) if vacuous else "none"))
    if first["missing_experiments"]:
        print("experiments not rendered: "
              + ", ".join(first["missing_experiments"]))
    print("counts: " + ", ".join(f"{name}={value}" for name, value
                                 in sorted(first["counts"].items())))
    for text in errors:
        print(f"operation failed: {text}")
    for text in problems:
        print(f"CHECK FAILED: {text}")
    return problems


def run(args, benchmark: dict, run_dir: pathlib.Path) -> int:
    build()
    # The program receives the seed only as the GI ray seed.
    history_key = {"workload": args.workload,
                   "program_seed": (args.seed if args.workload
                                    == "gi-30sm-warm" else 0),
                   "code": code_digest()}
    ref_before = host_speed_reference()
    rounds, setups = run_rounds(args, run_dir)
    ref_after = host_speed_reference()
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s) in {run_dir.relative_to(ROOT)}")
    print(f"host_ref_s before={ref_before:.4f} after={ref_after:.4f}")
    problems = report_rounds(rounds)
    if args.trace:
        print_self_times(rounds[0])
        print_overhead(rounds[0]["wall_s"], untraced_walls(history_key))
        print(f"trace file: {(run_dir / 'trace-0.json').relative_to(ROOT)}")
        metrics = per_layer(rounds[0])
        specs = benchmark["per_layer"]
        print_metrics("per-layer metrics:", metrics, specs)
    else:
        metrics = end_to_end(rounds, setups)
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps(dict(history_key,
                                         wall_s=metrics["wall_s"])) + "\n")
        print("set-up samples (s): " + ", ".join(
            f"{value:.3f}" for value in [r["setup_s"] for r in rounds]
            + setups))
        specs = benchmark["end_to_end"]
        print_metrics(f"end-to-end metrics (median of {len(rounds)} "
                      f"round(s)):", metrics, specs)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {spec["name"]: {"value": metrics[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
