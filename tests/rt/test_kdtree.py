"""kd-tree build, flatten, and traversal correctness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SceneError
from repro.rt import build_kdtree, trace_rays
from repro.rt.kdtree import LEAF_AXIS, NODE_WORDS, _median, _widest_axis
from repro.rt.trace import brute_force_trace
from tests.conftest import random_triangles


class TestBuild:
    def test_empty_raises(self):
        with pytest.raises(SceneError):
            build_kdtree([])

    def test_bad_params_raise(self, unit_triangles):
        with pytest.raises(SceneError):
            build_kdtree(unit_triangles, max_depth=-1)
        with pytest.raises(SceneError):
            build_kdtree(unit_triangles, leaf_size=0)

    def test_unknown_method_raises(self, unit_triangles):
        with pytest.raises(SceneError):
            build_kdtree(unit_triangles, method="bsp")

    def test_single_leaf_when_small(self, unit_triangles):
        tree = build_kdtree(unit_triangles, leaf_size=8)
        assert tree.root.is_leaf
        assert tree.num_nodes == 1

    def test_bounds_cover_all_triangles(self, tiny_scene):
        tree = build_kdtree(tiny_scene.triangles, max_depth=8)
        for tri in tiny_scene.triangles:
            for vertex in (tri.a, tri.b, tri.c):
                assert tree.bounds.contains(vertex, eps=1e-6)

    def test_depth_limit_respected(self, tiny_scene):
        tree = build_kdtree(tiny_scene.triangles, max_depth=4, leaf_size=1)
        assert tree.stats().max_depth <= 4

    def test_leaf_size_terminates(self, tiny_scene):
        tree = build_kdtree(tiny_scene.triangles, max_depth=30, leaf_size=64)
        # Leaves may exceed leaf_size only when splitting stopped helping.
        stats = tree.stats()
        assert stats.num_leaves >= 1

    def test_sah_build_works(self, tiny_scene):
        tree = build_kdtree(tiny_scene.triangles, max_depth=8, method="sah")
        assert tree.num_nodes >= 1

    def test_deterministic(self, tiny_scene):
        t1 = build_kdtree(tiny_scene.triangles, max_depth=8)
        t2 = build_kdtree(tiny_scene.triangles, max_depth=8)
        assert np.array_equal(t1.nodes, t2.nodes)
        assert np.array_equal(t1.leaf_indices, t2.leaf_indices)


class TestFlatten:
    def test_node_layout(self, tiny_tree):
        nodes = tiny_tree.nodes
        assert nodes.shape[1] == NODE_WORDS
        axes = nodes[:, 0]
        assert set(np.unique(axes)).issubset({0.0, 1.0, 2.0, float(LEAF_AXIS)})

    def test_inner_children_in_range(self, tiny_tree):
        nodes = tiny_tree.nodes
        inner = nodes[nodes[:, 0] != LEAF_AXIS]
        count = nodes.shape[0]
        assert np.all(inner[:, 2] >= 0) and np.all(inner[:, 2] < count)
        assert np.all(inner[:, 3] >= 0) and np.all(inner[:, 3] < count)

    def test_leaves_reference_valid_triangles(self, tiny_tree):
        nodes = tiny_tree.nodes
        leaves = nodes[nodes[:, 0] == LEAF_AXIS]
        total = tiny_tree.leaf_indices.shape[0]
        for row in leaves:
            count, first = int(row[1]), int(row[2])
            assert first + count <= total
        assert np.all(tiny_tree.leaf_indices >= 0)
        assert np.all(tiny_tree.leaf_indices < len(tiny_tree.triangles))

    def test_every_triangle_in_some_leaf(self, tiny_tree):
        referenced = set(tiny_tree.leaf_indices.tolist())
        assert referenced == set(range(len(tiny_tree.triangles)))

    def test_root_is_node_zero(self, tiny_tree):
        assert tiny_tree.root.index == 0


class TestStats:
    def test_stats_consistency(self, tiny_tree):
        stats = tiny_tree.stats()
        assert stats.num_nodes == tiny_tree.num_nodes
        assert stats.num_leaves <= stats.num_nodes
        assert stats.num_triangles == len(tiny_tree.triangles)
        assert 0 <= stats.empty_leaves <= stats.num_leaves
        assert stats.avg_leaf_depth <= stats.max_depth

    def test_inner_plus_leaves(self, tiny_tree):
        stats = tiny_tree.stats()
        # A full binary tree: inner = leaves - 1.
        assert stats.num_nodes == 2 * stats.num_leaves - 1


class TestTraversalCorrectness:
    def test_matches_brute_force_on_scene(self, tiny_scene, tiny_tree, tiny_rays):
        origins, directions = tiny_rays
        fast = trace_rays(tiny_tree, origins, directions)
        slow = brute_force_trace(tiny_scene.triangles, origins, directions)
        assert np.array_equal(fast.triangle, slow.triangle)
        assert np.allclose(np.where(np.isinf(fast.t), -1.0, fast.t),
                           np.where(np.isinf(slow.t), -1.0, slow.t))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        triangles = random_triangles(rng, 30)
        tree = build_kdtree(triangles, max_depth=8, leaf_size=2)
        origins = rng.uniform(-15, 15, size=(8, 3))
        directions = rng.normal(size=(8, 3))
        fast = trace_rays(tree, origins, directions)
        slow = brute_force_trace(triangles, origins, directions)
        assert np.array_equal(fast.triangle, slow.triangle)

    def test_rays_from_inside(self, tiny_tree, tiny_scene):
        center = (tiny_tree.bounds.lo + tiny_tree.bounds.hi) / 2.0
        directions = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]])
        origins = np.tile(center, (3, 1))
        fast = trace_rays(tiny_tree, origins, directions)
        slow = brute_force_trace(tiny_scene.triangles, origins, directions)
        assert np.array_equal(fast.triangle, slow.triangle)

    def test_counters_populated(self, tiny_tree, tiny_rays):
        origins, directions = tiny_rays
        result = trace_rays(tiny_tree, origins, directions)
        totals = result.counters.totals()
        assert totals["node_visits"] > 0
        assert totals["leaf_visits"] > 0
        assert totals["triangle_tests"] > 0

    def test_t_max_array_limits_hits(self, tiny_tree, tiny_rays):
        origins, directions = tiny_rays
        unlimited = trace_rays(tiny_tree, origins, directions)
        hits = unlimited.hit_mask
        # Cut every hit short: all previously-hit rays must now miss.
        limits = np.where(hits, unlimited.t * 0.5, np.inf)
        limited = trace_rays(tiny_tree, origins, directions, t_max=limits)
        assert not limited.hit_mask[hits].any()

    def test_t_max_scalar_allows_close_hits(self, tiny_tree, tiny_rays):
        origins, directions = tiny_rays
        unlimited = trace_rays(tiny_tree, origins, directions)
        generous = trace_rays(tiny_tree, origins, directions, t_max=1e9)
        assert np.array_equal(unlimited.triangle, generous.triangle)


class TestMatchesNumpyBitForBit:
    """The builder's float helpers keep numpy's answer in every bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e308]),
        st.floats(-100, 100)), min_size=1, max_size=40))
    def test_median(self, values):
        with np.errstate(over="ignore"):
            expected = np.median(values)
        assert np.float64(_median(values)).tobytes() == \
            np.float64(expected).tobytes()

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5]),
                    min_size=3, max_size=3))
    def test_widest_axis_takes_the_first_maximum(self, extent):
        assert _widest_axis([0.0] * 3, extent) == int(np.argmax(extent))
