"""Property tests for the BFS graph family: generator, oracle, kernels.

Two layers of invariants:

- **Oracle layer** (cheap, many examples): the seeded CSR generator is
  reproducible from its key alone, and :func:`reference_bfs` produces a
  valid BFS labelling — sources at level 0, every edge out of a reachable
  vertex relaxed, every reachable non-source reachable from the previous
  level.
- **Machine layer** (few examples, real simulator runs): the set of
  vertices a traversal visits equals the reachable set **regardless of
  worker-pool width or launch order** — the megakernel worker loop under
  block and warp scheduling and the self-respawning spawn µ-kernel must
  all visit exactly the reachable vertices, exactly once, with levels no
  better than the true BFS levels. The visit *count* is therefore the
  schedule-independent quantity the reachable-set size pins down.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import runner
from repro.harness.presets import get_preset
from repro.harness.runner import build_bfs_workload, run_mode
from repro.workloads import GRAPH_SCENES, make_graph, reference_bfs

graph_names = st.sampled_from(GRAPH_SCENES)


@settings(max_examples=20, deadline=None)
@given(name=graph_names, seed=st.integers(min_value=0, max_value=10_000),
       detail=st.sampled_from((0.06, 0.1, 0.25)))
def test_generator_is_reproducible(name, seed, detail):
    first = make_graph(name, detail=detail, seed=seed)
    second = make_graph(name, detail=detail, seed=seed)
    assert np.array_equal(first.indptr, second.indptr)
    assert np.array_equal(first.indices, second.indices)
    assert np.array_equal(first.sources, second.sources)
    assert np.all(first.indices >= 0)
    assert np.all(first.indices < first.num_vertices)


@settings(max_examples=20, deadline=None)
@given(name=graph_names, seed=st.integers(min_value=0, max_value=10_000),
       detail=st.sampled_from((0.06, 0.1, 0.25)))
def test_reference_bfs_is_a_valid_labelling(name, seed, detail):
    graph = make_graph(name, detail=detail, seed=seed)
    levels = reference_bfs(graph)
    assert np.all(levels[graph.sources] == 0)
    reachable = levels >= 0
    # Every edge out of a reachable vertex is relaxed ...
    for v in np.flatnonzero(reachable):
        targets = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
        assert np.all(levels[targets] >= 0)
        assert np.all(levels[targets] <= levels[v] + 1)
    # ... and every reachable non-source has a predecessor one level up.
    for v in np.flatnonzero(reachable):
        if levels[v] == 0:
            continue
        preds = [u for u in np.flatnonzero(reachable)
                 if v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]]
        assert min(levels[u] for u in preds) == levels[v] - 1


def run_with_image(mode, workload):
    """``run_mode`` plus the memory image the run wrote its results to."""
    images = []
    build = runner.image_for_workload

    def capture(workload):
        images.append(build(workload))
        return images[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "image_for_workload", capture)
        result = run_mode(mode, workload)
    return result, images[0]


#: (mode, worker-pool bound) pairs: a pool smaller than the vertex count,
#: one larger, and the spawn layout in between — three different visit
#: orders over the same frontier worklist.
MACHINE_CONFIGS = (("pdom_block", 4, 4), ("spawn", 8, 8),
                   ("pdom_warp", 12, 12))


@settings(max_examples=3, deadline=None)
@given(name=graph_names, seed=st.integers(min_value=0, max_value=31))
def test_visits_equal_reachable_set_for_any_schedule(name, seed):
    base = get_preset("bfs-tiny")
    for mode, width, height in MACHINE_CONFIGS:
        preset = replace(base, scene_detail=0.08, image_width=width,
                         image_height=height)
        workload = build_bfs_workload(name, preset, seed=seed)
        reachable = np.isfinite(workload.reference.t)
        result, image = run_with_image(mode, workload)
        level, flag = image.results()
        visited = ~np.isnan(level)
        # Visited set == reachable set, so the visit count is pinned.
        assert np.array_equal(visited, reachable), (name, seed, mode)
        assert int(visited.sum()) == workload.num_rays
        # Exactly-once: the visited flag is a one-shot atomic exchange.
        assert np.all(flag[visited] == 1)
        # A lock-free relaxed traversal can only do worse than true BFS.
        assert np.all(level[visited] >= workload.reference.t[visited])
        assert result.verify()
