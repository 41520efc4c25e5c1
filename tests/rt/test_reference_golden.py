"""Reference-build golden: exact digests of kd-trees, Wald records and traces.

The reference tracer is the oracle every simulation is verified against and
the source of Table IV's per-ray counters; the kd-tree arrays are Table
III's. The other ``tests/rt`` tests compare hits with brute force and check
counters by shape and sign, so a change to the build that moves one split,
one Wald word or one counter would pass them. These tests pin SHA-256
digests of every array a cold workload build produces:

- the flattened kd-tree (``nodes``, ``leaf_indices``, root box) and its
  Wald array, for the three scenes at tiny and fast detail (median splits)
  and at tiny detail (SAH);
- ``t``, ``triangle`` and the four traversal counters of the figure set's
  tiny batches (three primary batches and the conference path batch), of
  conference primary at fast, and of an adversarial batch on the tiny
  conference tree: signed-zero direction components, origins exactly on
  split planes and root box faces, and a per-ray ``t_max``.

Every build bypasses the workload cache. To bless an intentional change,
regenerate the snapshots with::

    PYTHONPATH=src python -m pytest tests/rt/test_reference_golden.py \\
        --update-golden

and commit the result; the JSON diff is the review artifact.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.harness.presets import get_preset
from repro.harness.runner import build_workload
from repro.rt import build_kdtree, make_scene
from repro.rt.geometry import triangles_to_wald_array
from repro.rt.kdtree import LEAF_AXIS
from repro.rt.pathtrace import path_trace_rays
from repro.rt.trace import trace_rays

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SCENES = ("conference", "fairyforest", "atrium")

#: (preset, split method): the trees the figure set builds (tiny, median),
#: the fast preset's, and the SAH builder at tiny detail.
TREE_CASES = tuple((scene, preset, method) for scene in SCENES
                   for preset, method in (("tiny", "median"),
                                          ("fast", "median"),
                                          ("tiny", "sah")))

#: (scene, preset, ray kind): the figure set's tiny batches, plus
#: conference primary at fast.
TRACE_CASES = tuple((scene, "tiny", "primary") for scene in SCENES) + (
    ("conference", "tiny", "path"),
    ("conference", "fast", "primary"),
)


def digest(array) -> dict:
    array = np.ascontiguousarray(array)
    return {"dtype": str(array.dtype), "shape": list(array.shape),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest()}


def trace_snapshot(result) -> dict:
    counters = result.counters
    return {
        "t": digest(result.t),
        "triangle": digest(result.triangle),
        "node_visits": digest(counters.node_visits),
        "leaf_visits": digest(counters.leaf_visits),
        "triangle_tests": digest(counters.triangle_tests),
        "stack_pushes": digest(counters.stack_pushes),
        "totals": counters.totals(),
        "hits": int(np.count_nonzero(result.triangle >= 0)),
    }


def check_golden(name: str, snapshot: dict, update_golden: bool) -> None:
    """Compare ``snapshot`` with ``golden/<name>.json`` (or rewrite it)."""
    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        "pytest --update-golden")
    assert snapshot == json.loads(path.read_text())


def tree_for(scene: str, preset_name: str, method: str = "median"):
    preset = get_preset(preset_name)
    triangles = make_scene(scene, detail=preset.scene_detail).triangles
    return build_kdtree(triangles, max_depth=preset.kd_max_depth,
                        leaf_size=preset.kd_leaf_size, method=method)


@pytest.mark.parametrize("scene,preset_name,method", TREE_CASES,
                         ids=[f"{s}-{p}-{m}" for s, p, m in TREE_CASES])
def test_kdtree_golden(scene, preset_name, method, update_golden):
    tree = tree_for(scene, preset_name, method)
    stats = tree.stats()
    snapshot = {
        "scene": scene, "preset": preset_name, "method": method,
        "nodes": digest(tree.nodes),
        "leaf_indices": digest(tree.leaf_indices),
        "bounds_lo": tree.bounds.lo.tolist(),
        "bounds_hi": tree.bounds.hi.tolist(),
        "wald": digest(triangles_to_wald_array(tree.triangles)),
        "num_nodes": stats.num_nodes,
        "num_leaves": stats.num_leaves,
        "max_depth": stats.max_depth,
        "empty_leaves": stats.empty_leaves,
    }
    check_golden(f"kdtree_{scene}_{preset_name}_{method}", snapshot,
                 update_golden)


@pytest.mark.parametrize("scene,preset_name,ray_kind", TRACE_CASES,
                         ids=[f"{s}-{p}-{k}" for s, p, k in TRACE_CASES])
def test_reference_trace_golden(scene, preset_name, ray_kind, update_golden):
    workload = build_workload(scene, get_preset(preset_name), ray_kind,
                              seed=0)
    snapshot = {"scene": scene, "preset": preset_name, "ray_kind": ray_kind,
                "num_rays": workload.num_rays,
                **trace_snapshot(workload.reference)}
    check_golden(f"trace_{scene}_{preset_name}_{ray_kind}", snapshot,
                 update_golden)


def adversarial_batch(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rays that hit the tracer's IEEE edge cases on ``tree``.

    - Origins exactly on the first inner nodes' split planes, travelling
      inside the plane (a ``0.0`` or ``-0.0`` component on the split axis,
      so ``(split - origin) * inv_dir`` is NaN), across it in both
      directions, and with a second zero component.
    - Origins exactly on each root box face, travelling inward, outward
      and along the face (``0.0`` and ``-0.0``).
    - Seeded random rays with zeroed components, and all-zero directions.

    Every ray gets a ``t_max`` from a cycle of infinite, large, short and
    zero limits.
    """
    lo, hi = tree.bounds.lo, tree.bounds.hi
    center = (lo + hi) * 0.5
    rng = np.random.default_rng(2010)
    origins, directions = [], []

    def add(origin, direction):
        origins.append(np.array(origin, dtype=np.float64))
        directions.append(np.array(direction, dtype=np.float64))

    inner = [row for row in tree.nodes.tolist() if row[0] != LEAF_AXIS]
    for index, (axis, split, _, _) in enumerate(inner[:24]):
        axis = int(axis)
        other = (axis + 1 + index % 2) % 3
        origin = center.copy()
        origin[axis] = split
        toward = rng.uniform(lo, hi) - origin
        for component in (0.0, -0.0, 1.0, -1.0):
            direction = toward.copy()
            direction[axis] = component
            add(origin, direction)
        direction = toward.copy()
        direction[axis] = (0.0, -0.0)[index % 2]
        direction[other] = (-0.0, 0.0)[index % 2]
        add(origin, direction)
    for axis in range(3):
        for face, inward in ((lo, 1.0), (hi, -1.0)):
            origin = rng.uniform(lo, hi)
            origin[axis] = face[axis]
            toward = rng.uniform(lo, hi) - origin
            for component in (inward, -inward, 0.0, -0.0):
                direction = toward.copy()
                direction[axis] = component
                add(origin, direction)
    for index in range(40):
        origin = rng.uniform(lo, hi)
        direction = rng.normal(size=3)
        direction[index % 3] = (0.0, -0.0)[index % 2]
        add(origin, direction)
    add(center, (0.0, 0.0, 0.0))
    add(center, (-0.0, -0.0, -0.0))
    limits = (np.inf, 1e6, 0.75, 0.0, 3.0)
    t_max = np.array([limits[i % len(limits)] for i in range(len(origins))])
    return np.stack(origins), np.stack(directions), t_max


def test_adversarial_trace_golden(update_golden):
    tree = tree_for("conference", "tiny")
    origins, directions, t_max = adversarial_batch(tree)
    preset = get_preset("tiny")
    snapshot = {
        "num_rays": len(origins),
        "rays": {"origins": digest(origins),
                 "directions": digest(directions), "t_max": digest(t_max)},
        "trace": trace_snapshot(trace_rays(tree, origins, directions,
                                           t_max)),
        "path": trace_snapshot(path_trace_rays(
            tree, origins, directions, t_max,
            max_depth=preset.path_max_depth,
            roulette_q=preset.path_roulette_q, seed=3)),
    }
    check_golden("trace_conference_tiny_adversarial", snapshot,
                 update_golden)
