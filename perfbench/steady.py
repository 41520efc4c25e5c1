"""Steadiness procedure: sets of benchmark runs, and sets against bounds.

    # N runs of one workload in this checkout, seeds 1..N; prints median,
    # quartiles, sample count and IQR share of every end-to-end metric
    python3 perfbench/steady.py run --workload NAME --runs N [--out set.json]

    # two saved sets (taken apart in time) against the bounds of
    # BENCHMARK.json; exits 1 when a bound is exceeded or a spread is
    # wider than its bound
    python3 perfbench/steady.py diff A.json B.json

    # N pairs of runs of two trees, seeds 1..N, alternating which runs
    # first; then the same comparison as ``diff``
    python3 perfbench/steady.py compare --workload NAME --runs N \\
        --tree-a DIR --tree-b DIR

A tree is a checkout holding ``BENCHMARK.json``, ``perfbench/`` and
``src/``. Every run lasts ``run_seconds`` of this checkout's
``BENCHMARK.json``. Each run also carries the host-speed reference that
``run.py`` prints before and after its workload, so a set taken while
the host was slow shows as such.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

from common import ROOT, load_benchmark, summarize

HOST_REF = re.compile(r"^host_ref_s before=([\d.]+) after=([\d.]+)$")


def one_run(tree: pathlib.Path, workload: str, seed: int,
            seconds: int) -> dict:
    """Run ``run.py`` once in ``tree``; return its result and host gauge."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {tree} (seed {seed}, exit "
                         f"{proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    refs = [HOST_REF.match(line) for line in lines]
    ref = next(match for match in refs if match)
    result["host_ref_s"] = [float(ref.group(1)), float(ref.group(2))]
    result["seed"] = seed
    return result


def describe(runs: list[dict], specs: list[dict]) -> dict:
    """Per-metric summary of a set of runs."""
    summary = {}
    for spec in specs:
        values = [run["metrics"][spec["name"]]["value"] for run in runs]
        summary[spec["name"]] = dict(summarize(values), values=values)
    gauge = [value for run in runs for value in run["host_ref_s"]]
    summary["host_ref_s"] = dict(summarize(gauge), values=gauge)
    return summary


def print_set(title: str, runs: list[dict], specs: list[dict]) -> None:
    summary = describe(runs, specs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"{title}: {len(runs)} runs, all correct: "
          f"{all(run['correct'] for run in runs)}, failed {failed} of "
          f"{attempted} operations")
    print(f"  {'metric':<18}{'n':>3}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'IQR/med':>9}{'bound':>7}")
    for spec in specs + [{"name": "host_ref_s", "unit": "s"}]:
        row = summary[spec["name"]]
        bound = spec.get("bound")
        print(f"  {spec['name']:<18}{row['n']:>3}{row['median']:>14.6g}"
              f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['spread']:>9.2%}"
              + (f"{bound:>7.0%}" if bound is not None else "  (ref)"))


def diff(runs_a: list[dict], runs_b: list[dict], specs: list[dict]) -> bool:
    """Print set B against set A; True when every bound holds.

    A metric is EXCEEDED when B's median is worse than A's by more than
    its bound, and UNRESOLVED when either set's IQR share is wider than
    the bound, so the sets cannot tell a change of that size; both fail.
    The failed share of operations must match exactly.
    """
    a, b = describe(runs_a, specs), describe(runs_b, specs)
    ok = True
    print(f"  {'metric':<18}{'median A':>14}{'median B':>14}{'worse by':>10}"
          f"{'IQR A':>8}{'IQR B':>8}{'bound':>7}")
    for spec in specs:
        name, bound = spec["name"], spec["bound"]
        base, new = a[name]["median"], b[name]["median"]
        change = (new - base) / base if base else 0.0
        worse = change if spec["better"] == "lower" else -change
        spreads = (a[name]["spread"], b[name]["spread"])
        verdicts = ([" EXCEEDED"] if worse > bound else []) + (
            [" UNRESOLVED"] if max(spreads) > bound else [])
        ok = ok and not verdicts
        print(f"  {name:<18}{base:>14.6g}{new:>14.6g}{worse:>10.2%}"
              f"{spreads[0]:>8.2%}{spreads[1]:>8.2%}{bound:>7.0%}"
              + "".join(verdicts))
    share = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
             for runs in (runs_a, runs_b)]
    print(f"  failed share A={share[0]:.6f} B={share[1]:.6f}"
          + ("" if share[0] == share[1] else "  DIFFERS"))
    gauge = (a["host_ref_s"]["median"], b["host_ref_s"]["median"])
    print(f"  host_ref_s median A={gauge[0]:.4f} B={gauge[1]:.4f} "
          f"(B/A {gauge[1] / gauge[0]:.3f})")
    return ok and share[0] == share[1]


def load(path) -> list[dict]:
    return json.loads(pathlib.Path(path).read_text())["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    cmp_p = sub.add_parser("compare")
    for p in (run_p, cmp_p):
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
    run_p.add_argument("--out")
    cmp_p.add_argument("--tree-a", type=pathlib.Path, required=True)
    cmp_p.add_argument("--tree-b", type=pathlib.Path, required=True)
    diff_p = sub.add_parser("diff")
    diff_p.add_argument("set_a")
    diff_p.add_argument("set_b")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    specs = benchmark["end_to_end"]
    if args.command == "diff":
        return 0 if diff(load(args.set_a), load(args.set_b), specs) else 1
    seconds = benchmark["run_seconds"]
    seeds = range(1, args.runs + 1)
    if args.command == "run":
        runs = []
        for seed in seeds:
            runs.append(one_run(ROOT, args.workload, seed, seconds))
            print(f"seed {seed}: " + ", ".join(
                f"{name}={value['value']:.6g}"
                for name, value in runs[-1]["metrics"].items()), flush=True)
        if args.out:
            pathlib.Path(args.out).write_text(json.dumps(
                {"workload": args.workload, "runs": runs}, indent=1))
        print_set(f"{args.workload} in {ROOT}", runs, specs)
        return 0
    runs_a, runs_b = [], []
    for index, seed in enumerate(seeds):
        order = [(args.tree_a, runs_a), (args.tree_b, runs_b)]
        for tree, runs in (order if index % 2 == 0 else order[::-1]):
            runs.append(one_run(tree, args.workload, seed, seconds))
        print(f"pair {index + 1}/{args.runs} (seed {seed}) done", flush=True)
    print_set("A", runs_a, specs)
    print_set("B", runs_b, specs)
    return 0 if diff(runs_a, runs_b, specs) else 1


if __name__ == "__main__":
    sys.exit(main())
