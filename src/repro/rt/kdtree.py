"""kd-tree acceleration structure (build, flatten, stats).

The paper's control workload (Radius-CUDA) uses a kd-tree: inner nodes
split space with an axis-aligned plane, leaf nodes list the triangles whose
bounds overlap the leaf volume. Build uses either a spatial-median split or
a binned surface-area heuristic (SAH); both terminate on depth or leaf size.

The flattened layout is what the SIMT kernels walk (4 words per node):

==========  ======================  ======================
word        inner node              leaf node
==========  ======================  ======================
0           split axis (0/1/2)      3 (leaf marker)
1           split position          triangle count
2           left child index        first index into the
                                    leaf-triangle index list
3           right child index       unused (0)
==========  ======================  ======================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import SceneError
from repro.rt.geometry import (
    AABB,
    Triangle,
    box_split,
    box_surface_area,
    triangles_to_wald_array,
)

#: Marker stored in word 0 of leaf nodes.
LEAF_AXIS = 3

#: Words per flattened node.
NODE_WORDS = 4


@dataclass
class KDNode:
    """Build-time node; exactly one of (children, triangle_indices) is set."""

    axis: int = LEAF_AXIS
    split: float = 0.0
    left: "KDNode | None" = None
    right: "KDNode | None" = None
    triangle_indices: list[int] = field(default_factory=list)
    index: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class KDTreeStats:
    """Tree shape statistics (paper Table III reports these per scene)."""

    num_triangles: int
    num_nodes: int
    num_leaves: int
    max_depth: int
    avg_leaf_depth: float
    avg_triangles_per_leaf: float
    max_triangles_per_leaf: int
    empty_leaves: int


@dataclass
class KDTree:
    """A built kd-tree plus its flattened arrays.

    ``root`` is None for trees rehydrated from the workload cache: only the
    flattened arrays are persisted, which is all that traversal and memory
    layout need. Such trees carry ``precomputed_stats`` from build time so
    :meth:`stats` keeps working without the node objects.
    """

    root: KDNode | None
    bounds: AABB
    triangles: list[Triangle]
    nodes: np.ndarray        # (num_nodes, NODE_WORDS) float64
    leaf_indices: np.ndarray  # flat triangle-index list referenced by leaves
    precomputed_stats: KDTreeStats | None = None

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def wald(self) -> np.ndarray:
        """The triangles' Wald records, ``(num_triangles, 12)``.

        Built on first use and shared, read-only, by the reference tracers
        and every memory image of this tree.
        """
        wald = triangles_to_wald_array(self.triangles)
        wald.flags.writeable = False
        return wald

    def stats(self) -> KDTreeStats:
        if self.root is None:
            if self.precomputed_stats is None:
                raise SceneError(
                    "tree has neither build-time nodes nor precomputed stats")
            return self.precomputed_stats
        leaves = 0
        max_depth = 0
        depth_sum = 0
        tri_sum = 0
        tri_max = 0
        empty = 0
        stack = [(self.root, 0)]
        total_nodes = 0
        while stack:
            node, depth = stack.pop()
            total_nodes += 1
            max_depth = max(max_depth, depth)
            if node.is_leaf:
                leaves += 1
                depth_sum += depth
                count = len(node.triangle_indices)
                tri_sum += count
                tri_max = max(tri_max, count)
                if count == 0:
                    empty += 1
            else:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return KDTreeStats(
            num_triangles=len(self.triangles),
            num_nodes=total_nodes,
            num_leaves=leaves,
            max_depth=max_depth,
            avg_leaf_depth=depth_sum / leaves if leaves else 0.0,
            avg_triangles_per_leaf=tri_sum / leaves if leaves else 0.0,
            max_triangles_per_leaf=tri_max,
            empty_leaves=empty,
        )


def _widest_axis(lo: list[float], hi: list[float]) -> int:
    """``np.argmax(hi - lo)``: the first axis of largest extent."""
    extent = [h - l for l, h in zip(lo, hi)]
    return extent.index(max(extent))


def _median(values: list[float]) -> float:
    """``np.median`` of a non-empty, NaN-free list, bit for bit.

    numpy averages the middle value, or the two middle values, of the
    sorted list with a sum that starts at ``+0.0``, so a zero median is
    ``+0.0`` whatever the signs of the zeros it came from.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[mid]
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0


def _median_split(lo: list[float], hi: list[float],
                  tri_lo: list[list[float]], tri_hi: list[list[float]],
                  indices: list[int]) -> tuple[int, float] | None:
    axis = _widest_axis(lo, hi)
    los, his = tri_lo[axis], tri_hi[axis]
    split = _median([(los[i] + his[i]) * 0.5 for i in indices])
    if not lo[axis] < split < hi[axis]:
        split = (lo[axis] + hi[axis]) * 0.5
        if not lo[axis] < split < hi[axis]:
            return None
    return axis, split


def _sah_split(lo: list[float], hi: list[float],
               tri_lo: list[list[float]], tri_hi: list[list[float]],
               indices: list[int], num_bins: int = 16
               ) -> tuple[int, float] | None:
    """Binned SAH: minimize SA(L)*N_L + SA(R)*N_R over candidate planes."""
    best = None
    best_cost = len(indices) * box_surface_area(lo, hi)  # not splitting
    for axis in range(3):
        low = lo[axis]
        high = hi[axis]
        if high - low <= 0.0:
            continue
        los, his = tri_lo[axis], tri_hi[axis]
        for bin_index in range(1, num_bins):
            split = low + (high - low) * bin_index / num_bins
            n_left = sum(1 for i in indices if los[i] <= split)
            n_right = sum(1 for i in indices if his[i] >= split)
            left_box, right_box = box_split(lo, hi, axis, split)
            cost = (box_surface_area(*left_box) * n_left
                    + box_surface_area(*right_box) * n_right)
            if cost < best_cost:
                best_cost = cost
                best = (axis, split)
    return best


_SPLITTERS = {"median": _median_split, "sah": _sah_split}


def build_kdtree(triangles: list[Triangle], *, max_depth: int = 18,
                 leaf_size: int = 8, method: str = "median",
                 bounds_eps: float = 1e-6) -> KDTree:
    """Build a kd-tree over ``triangles``.

    ``method`` selects the split heuristic (``"median"`` or ``"sah"``).
    ``leaf_size`` is the target triangle count below which nodes become
    leaves (the paper: "node subdivision is performed until leaf nodes
    contain a specified number of objects").
    """
    if method not in _SPLITTERS:
        raise SceneError(f"unknown kd-tree build method {method!r}")
    if not triangles:
        raise SceneError("cannot build a kd-tree over zero triangles")
    if max_depth < 0 or leaf_size < 1:
        raise SceneError("max_depth must be >= 0 and leaf_size >= 1")
    splitter = _SPLITTERS[method]
    # Triangle bounds and the world box, reduced over the vertex array:
    # vertices[i] holds triangle i's a, b, c rows.
    vertices = np.array([(tri.a, tri.b, tri.c) for tri in triangles],
                        dtype=np.float64)
    lo = vertices.min(axis=1)
    hi = vertices.max(axis=1)
    world = AABB(lo.min(axis=0), hi.max(axis=0))
    world = world.grown(max(bounds_eps, bounds_eps * float(np.max(world.extent))))
    # Per-axis float lists of the triangle bounds: tri_lo[axis][i].
    tri_lo = lo.T.tolist()
    tri_hi = hi.T.tolist()

    def build(lo: list[float], hi: list[float], indices: list[int],
              depth: int) -> KDNode:
        if depth >= max_depth or len(indices) <= leaf_size:
            return KDNode(triangle_indices=indices)
        plane = splitter(lo, hi, tri_lo, tri_hi, indices)
        if plane is None:
            return KDNode(triangle_indices=indices)
        axis, split = plane
        los, his = tri_lo[axis], tri_hi[axis]
        left_idx = [i for i in indices if los[i] <= split]
        right_idx = [i for i in indices if his[i] >= split]
        if len(left_idx) == len(indices) and len(right_idx) == len(indices):
            # Every triangle straddles the plane; splitting cannot help.
            return KDNode(triangle_indices=indices)
        (left_lo, left_hi), (right_lo, right_hi) = box_split(lo, hi, axis,
                                                             split)
        node = KDNode(axis=axis, split=split)
        node.left = build(left_lo, left_hi, left_idx, depth + 1)
        node.right = build(right_lo, right_hi, right_idx, depth + 1)
        return node

    root = build(world.lo.tolist(), world.hi.tolist(),
                 list(range(len(triangles))), 0)
    nodes, leaf_indices = _flatten(root)
    return KDTree(root=root, bounds=world, triangles=list(triangles),
                  nodes=nodes, leaf_indices=leaf_indices)


def _flatten(root: KDNode) -> tuple[np.ndarray, np.ndarray]:
    """Depth-first flatten into the documented array layout."""
    rows: list[list[float]] = []
    leaf_list: list[int] = []
    order: list[KDNode] = []

    def number(node: KDNode) -> None:
        node.index = len(order)
        order.append(node)
        rows.append([0.0] * NODE_WORDS)
        if not node.is_leaf:
            number(node.left)
            number(node.right)

    number(root)
    for node in order:
        if node.is_leaf:
            rows[node.index] = [float(LEAF_AXIS),
                                float(len(node.triangle_indices)),
                                float(len(leaf_list)), 0.0]
            leaf_list.extend(node.triangle_indices)
        else:
            rows[node.index] = [float(node.axis), node.split,
                                float(node.left.index),
                                float(node.right.index)]
    nodes = np.asarray(rows, dtype=np.float64)
    indices = np.asarray(leaf_list, dtype=np.int64)
    return nodes, indices
