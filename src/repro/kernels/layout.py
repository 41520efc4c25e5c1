"""Pack scene, kd-tree, and rays into simulated device memory.

Global memory map (word addresses, one word = 4 modelled bytes):

====================  =======================================================
region                contents
====================  =======================================================
nodes                 ``num_nodes x 4`` flattened kd-tree nodes
triangles             ``num_triangles x 12`` Wald records
leaf indices          flat triangle-index list referenced by leaves
rays                  ``num_rays x 8``: ox oy oz dx dy dz t_limit pad
results               ``num_rays x 2``: hit t (inf on miss), triangle (-1)
stacks                ``num_rays x STACK_WORDS`` per-ray traversal stacks
                      (32 entries x 3 words = 384 bytes — Table II's
                      per-thread global memory)
====================  =======================================================

Constant memory holds the region base addresses, ray count, and world
bounds (the data the paper's kernels keep in constant memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SceneError
from repro.rt.geometry import WALD_TRIANGLE_WORDS
from repro.rt.kdtree import KDTree, NODE_WORDS
from repro.simt.memory import GlobalMemory

#: Traversal-stack entries per ray and words per entry (3: node, tmin, tmax).
STACK_ENTRIES = 32
STACK_ENTRY_WORDS = 3
STACK_WORDS = STACK_ENTRIES * STACK_ENTRY_WORDS  # 96 words = 384 bytes

#: Words per ray record and per result record.
RAY_WORDS = 8
RESULT_WORDS = 2

#: Constant-memory slots.
CONST_NODE_BASE = 0
CONST_TRI_BASE = 1
CONST_LEAF_BASE = 2
CONST_RAY_BASE = 3
CONST_RESULT_BASE = 4
CONST_STACK_BASE = 5
CONST_STACK_WORDS = 6
CONST_NUM_RAYS = 7
CONST_WORLD_LO = 8   # 3 words
CONST_WORLD_HI = 11  # 3 words
CONST_COUNTER_BASE = 14  # global address of the work counter (persistent
                         # threads; see repro.kernels.persistent)
CONST_TOTAL_WORDS = 16


@dataclass
class MemoryImage:
    """A populated device-memory image ready to launch."""

    global_mem: GlobalMemory
    const_mem: np.ndarray
    node_base: int
    tri_base: int
    leaf_base: int
    ray_base: int
    result_base: int
    stack_base: int
    num_rays: int

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, triangle) arrays read back from the result region."""
        words = self.global_mem.words
        region = words[self.result_base:
                       self.result_base + self.num_rays * RESULT_WORDS]
        grid = region.reshape(self.num_rays, RESULT_WORDS)
        return grid[:, 0].copy(), grid[:, 1].astype(np.int64)


def build_memory_image(tree: KDTree, origins: np.ndarray,
                       directions: np.ndarray,
                       t_max: np.ndarray | float = np.inf) -> MemoryImage:
    """Build the device image for ``tree`` and a ray batch."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    if origins.shape != directions.shape:
        raise SceneError("origins and directions must have equal shapes")
    num_rays = origins.shape[0]
    if num_rays == 0:
        raise SceneError("cannot build an image for zero rays")
    limits = np.broadcast_to(np.asarray(t_max, dtype=np.float64),
                             (num_rays,)).copy()

    nodes = tree.nodes
    wald = tree.wald
    leaf_indices = tree.leaf_indices.astype(np.float64)

    node_base = 0
    tri_base = node_base + nodes.size
    leaf_base = tri_base + wald.size
    ray_base = leaf_base + max(leaf_indices.size, 1)
    result_base = ray_base + num_rays * RAY_WORDS
    stack_base = result_base + num_rays * RESULT_WORDS
    counter_base = stack_base + num_rays * STACK_WORDS
    total = counter_base + 1  # one word: the persistent-threads counter

    memory = GlobalMemory(total)
    memory.load_array(node_base, nodes)
    memory.load_array(tri_base, wald)
    if leaf_indices.size:
        memory.load_array(leaf_base, leaf_indices)
    rays = np.zeros((num_rays, RAY_WORDS))
    rays[:, 0:3] = origins
    rays[:, 3:6] = directions
    rays[:, 6] = limits
    memory.load_array(ray_base, rays)
    results = np.zeros((num_rays, RESULT_WORDS))
    results[:, 0] = np.nan  # sentinel: untouched result slots stay NaN
    results[:, 1] = -2.0
    memory.load_array(result_base, results)
    memory.set_result_range(result_base, num_rays * RESULT_WORDS,
                            stride=RESULT_WORDS)

    const = np.zeros(CONST_TOTAL_WORDS)
    const[CONST_NODE_BASE] = node_base
    const[CONST_TRI_BASE] = tri_base
    const[CONST_LEAF_BASE] = leaf_base
    const[CONST_RAY_BASE] = ray_base
    const[CONST_RESULT_BASE] = result_base
    const[CONST_STACK_BASE] = stack_base
    const[CONST_STACK_WORDS] = STACK_WORDS
    const[CONST_NUM_RAYS] = num_rays
    const[CONST_WORLD_LO:CONST_WORLD_LO + 3] = tree.bounds.lo
    const[CONST_WORLD_HI:CONST_WORLD_HI + 3] = tree.bounds.hi
    const[CONST_COUNTER_BASE] = counter_base

    assert nodes.shape[1] == NODE_WORDS
    assert wald.shape[1] == WALD_TRIANGLE_WORDS if wald.size else True
    return MemoryImage(global_mem=memory, const_mem=const,
                       node_base=node_base, tri_base=tri_base,
                       leaf_base=leaf_base, ray_base=ray_base,
                       result_base=result_base, stack_base=stack_base,
                       num_rays=num_rays)
