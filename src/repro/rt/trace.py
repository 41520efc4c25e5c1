"""Reference tracer over the flattened kd-tree.

This scalar tracer executes exactly the algorithm of the paper's Example 1
(outer restart loop over leaves, down-traversal loop, intersection loop)
against the *flattened* node arrays — the same data layout the SIMT kernels
read from simulated global memory — so it serves both as functional ground
truth and as the operation counter feeding the Table IV bandwidth model.

The walk runs on plain Python values: the node and leaf-index arrays as
lists (``tolist()``), each ray as float tuples, and the tree's Wald records
(built once per tree, :attr:`KDTree.wald`) as float rows. Python floats and
numpy's float64 are both IEEE double with the same rounding and no fused
multiply-add, so every result is bit-identical to the numpy-scalar walk;
only exceptions differ, and the two places that meet them keep numpy's
answer: a zero direction component's reciprocal is ``+-inf`` by its sign
(:func:`repro.rt.geometry.reciprocal`), and a NaN split distance
(``0 * inf``) routes to ``+inf``. Each segment keeps its four counters in
locals and adds them to the ray's totals once, when it ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.rt.geometry import AABB, WaldTriangle, reciprocal
from repro.rt.kdtree import KDTree, LEAF_AXIS

#: Epsilon added to leaf t-ranges to keep hits on leaf boundaries.
T_EPS = 1e-9


@dataclass
class TraceCounters:
    """Per-ray dynamic operation counts (drives the bandwidth model).

    ``node_visits`` counts *down traversals* (inner-node visits);
    ``leaf_visits`` counts leaves entered; ``triangle_tests`` counts
    ray-triangle intersection tests — the quantities the paper says
    Table IV's bandwidth values were computed from.
    """

    node_visits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    leaf_visits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    triangle_tests: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    stack_pushes: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "TraceCounters":
        """Counters from one ``[node, leaf, triangle, push]`` row per ray."""
        table = np.array(rows, dtype=np.int64).reshape(-1, 4)
        return cls(*(np.ascontiguousarray(column) for column in table.T))

    def totals(self) -> dict[str, int]:
        return {
            "node_visits": int(self.node_visits.sum()),
            "leaf_visits": int(self.leaf_visits.sum()),
            "triangle_tests": int(self.triangle_tests.sum()),
            "stack_pushes": int(self.stack_pushes.sum()),
        }


@dataclass
class TraceResult:
    """Hit results for a batch of rays."""

    t: np.ndarray           # hit distance, inf on miss
    triangle: np.ndarray    # hit triangle index, -1 on miss
    counters: TraceCounters

    @property
    def hit_mask(self) -> np.ndarray:
        return self.triangle >= 0

    @property
    def num_rays(self) -> int:
        return self.t.shape[0]


def trace_rays(tree: KDTree, origins: np.ndarray, directions: np.ndarray,
               t_max: float | np.ndarray = np.inf) -> TraceResult:
    """Trace rays through ``tree``; returns closest hits plus counters.

    ``t_max`` may be a scalar or a per-ray array (shadow rays bound each
    ray at its light distance).
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    num_rays = origins.shape[0]
    limits = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (num_rays,))
    nodes = tree.nodes.tolist()
    leaf_indices = tree.leaf_indices.tolist()
    wald = [WaldTriangle.from_words(row) for row in tree.wald.tolist()]
    out_t = [math.inf] * num_rays
    out_tri = [-1] * num_rays
    rows = []
    for ray, (origin, direction, t_limit) in enumerate(zip(
            origins.tolist(), directions.tolist(), limits.tolist())):
        counts = [0, 0, 0, 0]
        result = _trace_one(nodes, leaf_indices, wald, tree.bounds,
                            origin, direction, t_limit, counts)
        rows.append(counts)
        if result is not None:
            out_t[ray], out_tri[ray] = result
    return TraceResult(t=np.array(out_t, dtype=np.float64),
                       triangle=np.array(out_tri, dtype=np.int64),
                       counters=TraceCounters.from_rows(rows))


def _trace_one(nodes: list[list[float]], leaf_indices: list[int],
               wald: list[WaldTriangle], bounds: AABB,
               origin: list[float], direction: list[float], t_limit: float,
               counts: list[int]) -> tuple[float, int] | None:
    """Trace one segment; add its counters to ``counts`` (node visits,
    leaf visits, triangle tests, stack pushes) and return the closest hit
    as ``(t, triangle)``, or None."""
    t_enter, t_exit = bounds.ray_range(origin, direction)
    t_exit = min(t_exit, t_limit)
    if t_enter > t_exit:
        return None
    inv_dir = [reciprocal(d) for d in direction]
    # best_t starts at the ray's limit so hits beyond it are never recorded
    # (matches the SIMT kernels, which initialize best_t from the ray record).
    best_t = t_limit
    best_tri = -1
    node_visits = leaf_visits = triangle_tests = stack_pushes = 0
    stack: list[tuple[int, float, float]] = []
    node_index = 0
    t_min, t_max = t_enter, t_exit
    while True:
        axis = int(nodes[node_index][0])
        # Down-traversal loop (Example 1 lines 2-7).
        while axis != LEAF_AXIS:
            node_visits += 1
            split = nodes[node_index][1]
            left = int(nodes[node_index][2])
            right = int(nodes[node_index][3])
            origin_a = origin[axis]
            t_split = (split - origin_a) * inv_dir[axis]
            if math.isnan(t_split):
                # Ray lies exactly in the split plane (d == 0, origin on
                # the plane): it never crosses, so only the near child
                # matters. +inf routes the t-range test to the near case.
                t_split = math.inf
            # Near child: the side holding the ray segment before the
            # crossing. With the origin exactly on the plane the forward
            # segment [ts, tmax] goes to the *far* child, which must then
            # be the side the direction points into.
            if origin_a < split or (origin_a == split and direction[axis] > 0.0):
                near, far = left, right
            else:
                near, far = right, left
            if t_split >= t_max + T_EPS or t_split < 0.0:
                node_index = near
            elif t_split <= t_min - T_EPS:
                node_index = far
            else:
                stack.append((far, max(t_split, t_min), t_max))
                stack_pushes += 1
                node_index = near
                t_max = min(t_split, t_max)
            axis = int(nodes[node_index][0])
        # Intersection loop (Example 1 lines 8-10).
        leaf_visits += 1
        count = int(nodes[node_index][1])
        first = int(nodes[node_index][2])
        for slot in range(first, first + count):
            tri_index = leaf_indices[slot]
            triangle_tests += 1
            t = wald[tri_index].intersect(origin, direction, best_t)
            if t is not None and t < best_t:
                best_t = t
                best_tri = tri_index
        # Early exit: a hit inside the current leaf's t-range is final.
        if best_tri >= 0 and best_t <= t_max + T_EPS:
            break
        if not stack:
            break
        node_index, t_min, t_max = stack.pop()
    counts[0] += node_visits
    counts[1] += leaf_visits
    counts[2] += triangle_tests
    counts[3] += stack_pushes
    if best_tri < 0:
        return None
    return best_t, best_tri


def brute_force_trace(triangles, origins: np.ndarray, directions: np.ndarray,
                      t_max: float = np.inf) -> TraceResult:
    """O(N*M) ground truth used to validate kd-tree traversal."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    wald = [WaldTriangle.precompute(tri) for tri in triangles]
    num_rays = origins.shape[0]
    out_t = np.full(num_rays, np.inf)
    out_tri = np.full(num_rays, -1, dtype=np.int64)
    counters = TraceCounters(
        node_visits=np.zeros(num_rays, np.int64),
        leaf_visits=np.zeros(num_rays, np.int64),
        triangle_tests=np.full(num_rays, len(wald), np.int64),
        stack_pushes=np.zeros(num_rays, np.int64),
    )
    for ray in range(num_rays):
        best_t, best_tri = t_max, -1
        for index, tri in enumerate(wald):
            t = tri.intersect(origins[ray], directions[ray], best_t)
            if t is not None and t < best_t:
                best_t, best_tri = t, index
        if best_tri >= 0:
            out_t[ray] = best_t
            out_tri[ray] = best_tri
    return TraceResult(t=out_t, triangle=out_tri, counters=counters)
