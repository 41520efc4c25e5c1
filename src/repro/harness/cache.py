"""Persistent workload cache: memoize ``prepare_workload`` products.

Building a workload — procedural scene, kd-tree, camera rays, and the
scalar reference trace — dominates experiment setup time and is identical
across every simulation that shares a (scene, preset geometry, ray kind,
seed) tuple. This module persists those products to ``.npz`` files so
repeated sweeps, benchmark sessions, and pool workers skip the rebuild
entirely, with a small in-process LRU in front of the disk.

Cache key schema (see :meth:`WorkloadCache.key`)::

    salt | scene | ray_kind | seed | detail | kd_max_depth,kd_leaf_size
         | image_width x image_height
         [| path=path_max_depth,path_roulette_q]   (ray_kind "path" only)
         ->  sha256 hex, first 16 chars

Only geometry-affecting preset fields participate: presets that differ
merely in simulation budget (``num_sms``, ``max_cycles``,
``divergence_window``) share entries. ``CACHE_SALT`` is the invalidation
salt — bump it whenever scene generation, kd-tree construction, camera,
ray generation, or the reference tracer change their output; a speedup
that keeps every output bit keeps it. The salt is both part of the key
hash (stale entries are simply never looked up) and stored inside each
file (a tampered or hand-copied entry with the wrong salt is detected,
deleted, and rebuilt rather than served).

Corrupt entries (truncated files, missing arrays, unreadable zip) are
likewise deleted and rebuilt — the cache never raises for a bad entry.

The cache directory resolves to ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``. ``REPRO_CACHE=0``
disables caching globally. The ``repro cache {info,clear}`` CLI verbs
inspect and empty the directory.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.harness.presets import SimPreset
from repro.rt.geometry import AABB, Triangle
from repro.rt.kdtree import KDTree, KDTreeStats
from repro.rt.trace import TraceCounters, TraceResult

#: Invalidation salt: bump when workload-producing code changes its output.
#: A speedup that the reference-build golden
#: (``tests/rt/test_reference_golden.py``) pins bit-identical keeps it.
CACHE_SALT = "workload-v2"

#: Arrays every ray-batch cache entry must contain (besides metadata).
_REQUIRED_KEYS = (
    "salt", "nodes", "leaf_indices", "bounds_lo", "bounds_hi", "vertices",
    "tree_stats_i", "tree_stats_f", "origins", "directions", "t_max",
    "ref_t", "ref_triangle", "ctr_node_visits", "ctr_leaf_visits",
    "ctr_triangle_tests", "ctr_stack_pushes", "light",
)

#: Arrays a graph-traversal (``ray_kind="bfs"``) entry must contain: the
#: CSR structure and BFS roots replace the kd-tree and ray batch.
_GRAPH_KEYS = (
    "salt", "graph_indptr", "graph_indices", "graph_sources",
    "ref_t", "ref_triangle", "ctr_node_visits", "ctr_leaf_visits",
    "ctr_triangle_tests", "ctr_stack_pushes",
)


def _required_keys(ray_kind: str) -> tuple[str, ...]:
    return _GRAPH_KEYS if ray_kind == "bfs" else _REQUIRED_KEYS


def atomic_write(path: pathlib.Path, writer) -> None:
    """Publish a file atomically: write a temp sibling, then ``os.replace``.

    ``writer`` receives a binary file handle. Concurrent writers (pool
    workers racing on one cache entry, a sweep checkpointing while another
    reads it) each write their own per-PID temp file, so a race is wasted
    work, never a torn file; readers see either the old content or the new,
    complete content.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}{path.suffix}")
    try:
        with open(tmp, "wb") as handle:
            writer(handle)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cache_enabled() -> bool:
    """Whether the persistent cache is on (``REPRO_CACHE=0`` turns it off)."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in (
        "0", "off", "false", "no")


_ENV_DIR_CACHE: dict[tuple[str, str], pathlib.Path] = {}


def resolve_env_dir(name: str, raw: str) -> pathlib.Path:
    """Resolve a directory-valued env var to a CWD-pinned absolute path.

    A relative ``REPRO_CHECKPOINT_DIR``/``REPRO_RESULTS_DIR``/
    ``REPRO_CACHE_DIR`` must mean one directory for the whole process:
    workers and serve jobs that ``chdir`` after startup would otherwise
    silently open a second manifest or store. The first resolution of
    each ``(name, value)`` pair is anchored to the CWD at that moment and
    cached; later calls — from any CWD — return the same absolute path.
    (Deliberately not ``Path.resolve()``: symlinked temp dirs should keep
    the spelling the user gave.)
    """
    key = (name, raw)
    if key not in _ENV_DIR_CACHE:
        path = pathlib.Path(raw).expanduser()
        if not path.is_absolute():
            path = pathlib.Path.cwd() / path
        _ENV_DIR_CACHE[key] = path
    return _ENV_DIR_CACHE[key]


def writable_env_dir(name: str, raw: str) -> pathlib.Path:
    """:func:`resolve_env_dir`, created and checked writable at once.

    For the directories a long run appends to (``REPRO_CHECKPOINT_DIR``,
    ``REPRO_RESULTS_DIR``): one that cannot be created or written raises
    :class:`~repro.errors.ConfigError` naming the variable, before the run
    starts rather than at its first append.
    """
    directory = resolve_env_dir(name, raw)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"{name}={raw!r} cannot be created: {exc}") from None
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"{name}={raw!r} is not writable")
    return directory


def resolve_cache_dir() -> pathlib.Path:
    """Cache directory: $REPRO_CACHE_DIR > $XDG_CACHE_HOME/repro > ~/.cache/repro."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return resolve_env_dir("REPRO_CACHE_DIR", override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Per-process counters for one :class:`WorkloadCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0          # full builds (scene + kd-tree + trace)
    derived: int = 0         # secondary batches derived from a cached primary
    stores: int = 0
    corrupt_entries: int = 0  # unreadable files deleted and rebuilt
    stale_entries: int = 0    # salt-mismatched files deleted and rebuilt
    evictions: int = 0

    @property
    def builds(self) -> int:
        """Workloads that required a kd-tree build (cache misses)."""
        return self.misses

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "derived": self.derived,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
            "stale_entries": self.stale_entries,
            "evictions": self.evictions,
        }


class WorkloadCache:
    """Two-level (memory LRU + ``.npz`` directory) workload cache."""

    def __init__(self, cache_dir: str | pathlib.Path | None = None,
                 salt: str = CACHE_SALT, max_memory_entries: int = 16):
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None \
            else resolve_cache_dir()
        self.salt = salt
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        self._memory: OrderedDict[str, object] = OrderedDict()

    # -- keys and paths ----------------------------------------------------

    def key(self, scene_name: str, preset: SimPreset,
            ray_kind: str = "primary", seed: int = 0) -> str:
        """Content hash of everything that determines the workload arrays."""
        parts = [
            self.salt, scene_name, ray_kind, f"seed={seed}",
            f"detail={preset.scene_detail!r}",
            f"kd={preset.kd_max_depth},{preset.kd_leaf_size}",
            f"img={preset.image_width}x{preset.image_height}",
        ]
        # Path references depend on the bounce budget and roulette
        # probability; joining them only for ray_kind="path" keeps every
        # pre-existing key stable.
        if ray_kind == "path":
            parts.append(f"path={preset.path_max_depth},"
                         f"{preset.path_roulette_q!r}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    def path(self, key: str, scene_name: str, ray_kind: str) -> pathlib.Path:
        return self.cache_dir / f"{scene_name}-{ray_kind}-{key}.npz"

    # -- public API --------------------------------------------------------

    def workload(self, scene_name: str, preset: SimPreset,
                 ray_kind: str = "primary", seed: int = 0):
        """Return the cached workload, loading or building as needed."""
        key = self.key(scene_name, preset, ray_kind, seed)
        cached = self._memory_get(key, preset)
        if cached is not None:
            self.stats.memory_hits += 1
            return cached
        path = self.path(key, scene_name, ray_kind)
        loaded = self._load(path, scene_name, ray_kind, preset, seed)
        if loaded is not None:
            self.stats.disk_hits += 1
            self._memory_put(key, loaded)
            return loaded
        built = self._build(scene_name, preset, ray_kind, seed)
        self._store(path, built)
        self._memory_put(key, built)
        return built

    def info(self) -> dict:
        """Directory contents plus this process's hit/miss counters."""
        entries = sorted(self.cache_dir.glob("*.npz")) \
            if self.cache_dir.is_dir() else []
        return {
            "dir": str(self.cache_dir),
            "enabled": cache_enabled(),
            "salt": self.salt,
            "entries": len(entries),
            "total_bytes": sum(p.stat().st_size for p in entries),
            "files": [p.name for p in entries],
            "stats": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every cache entry (and forget the memory LRU)."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.npz"):
                path.unlink(missing_ok=True)
                removed += 1
        self._memory.clear()
        return removed

    # -- memory LRU --------------------------------------------------------

    def _memory_get(self, key: str, preset: SimPreset):
        workload = self._memory.get(key)
        if workload is None:
            return None
        self._memory.move_to_end(key)
        # The key covers only geometry fields; hand back the caller's preset
        # so simulation-budget fields (max_cycles, num_sms, ...) are right.
        if workload.preset != preset:
            workload = replace(workload, preset=preset)
            self._memory[key] = workload
        return workload

    def _memory_put(self, key: str, workload) -> None:
        self._memory[key] = workload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- build -------------------------------------------------------------

    def _build(self, scene_name: str, preset: SimPreset, ray_kind: str,
               seed: int):
        from repro.harness.runner import (
            build_bfs_workload,
            build_primary_workload,
            derive_path_workload,
            derive_secondary_workload,
        )

        if ray_kind == "primary":
            self.stats.misses += 1
            return build_primary_workload(scene_name, preset, seed=seed)
        if ray_kind == "bfs":
            # Graphs share nothing with the ray workloads: a full build.
            self.stats.misses += 1
            return build_bfs_workload(scene_name, preset, seed=seed)
        # Secondary kinds derive from the (cached) primary workload: one
        # scene, one kd-tree, one primary trace shared across all kinds.
        primary = self.workload(scene_name, preset, "primary", 0)
        self.stats.derived += 1
        if ray_kind == "path":
            return derive_path_workload(primary, seed=seed)
        return derive_secondary_workload(primary, ray_kind, seed=seed)

    # -- serialization -----------------------------------------------------

    def _store(self, path: pathlib.Path, workload) -> None:
        if workload.graph is not None:
            self._store_graph(path, workload)
            return
        tree = workload.tree
        stats = tree.stats()
        counters = workload.reference.counters
        vertices = np.stack([np.stack([tri.a, tri.b, tri.c])
                             for tri in tree.triangles])
        light = (np.full(3, np.nan) if workload.light is None
                 else np.asarray(workload.light, dtype=np.float64))
        arrays = {
            "salt": np.array(self.salt),
            "nodes": tree.nodes,
            "leaf_indices": tree.leaf_indices,
            "bounds_lo": tree.bounds.lo,
            "bounds_hi": tree.bounds.hi,
            "vertices": vertices,
            "tree_stats_i": np.array([
                stats.num_triangles, stats.num_nodes, stats.num_leaves,
                stats.max_depth, stats.max_triangles_per_leaf,
                stats.empty_leaves], dtype=np.int64),
            "tree_stats_f": np.array([
                stats.avg_leaf_depth, stats.avg_triangles_per_leaf]),
            "origins": workload.origins,
            "directions": workload.directions,
            "t_max": np.asarray(workload.t_max, dtype=np.float64),
            "ref_t": workload.reference.t,
            "ref_triangle": workload.reference.triangle,
            "ctr_node_visits": counters.node_visits,
            "ctr_leaf_visits": counters.leaf_visits,
            "ctr_triangle_tests": counters.triangle_tests,
            "ctr_stack_pushes": counters.stack_pushes,
            "light": light,
        }
        # Atomic publish: concurrent pool workers may race on one entry.
        atomic_write(path, lambda handle: np.savez(handle, **arrays))
        self.stats.stores += 1

    def _store_graph(self, path: pathlib.Path, workload) -> None:
        graph = workload.graph
        counters = workload.reference.counters
        arrays = {
            "salt": np.array(self.salt),
            "graph_indptr": graph.indptr,
            "graph_indices": graph.indices,
            "graph_sources": graph.sources,
            "ref_t": workload.reference.t,
            "ref_triangle": workload.reference.triangle,
            "ctr_node_visits": counters.node_visits,
            "ctr_leaf_visits": counters.leaf_visits,
            "ctr_triangle_tests": counters.triangle_tests,
            "ctr_stack_pushes": counters.stack_pushes,
        }
        atomic_write(path, lambda handle: np.savez(handle, **arrays))
        self.stats.stores += 1

    def _load(self, path: pathlib.Path, scene_name: str, ray_kind: str,
              preset: SimPreset, seed: int = 0):
        """Load one entry; corrupt or stale files are deleted, not served."""
        from repro.harness.runner import Workload

        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name]
                          for name in _required_keys(ray_kind)}
            if str(arrays["salt"]) != self.salt:
                self.stats.stale_entries += 1
                path.unlink(missing_ok=True)
                return None
        except Exception:
            self.stats.corrupt_entries += 1
            path.unlink(missing_ok=True)
            return None
        counters = TraceCounters(
            node_visits=arrays["ctr_node_visits"],
            leaf_visits=arrays["ctr_leaf_visits"],
            triangle_tests=arrays["ctr_triangle_tests"],
            stack_pushes=arrays["ctr_stack_pushes"])
        reference = TraceResult(t=arrays["ref_t"],
                                triangle=arrays["ref_triangle"],
                                counters=counters)
        if ray_kind == "bfs":
            from repro.workloads.graphs import GraphWorkload

            graph = GraphWorkload(name=scene_name,
                                  indptr=arrays["graph_indptr"],
                                  indices=arrays["graph_indices"],
                                  sources=arrays["graph_sources"])
            empty = np.zeros((0, 3))
            return Workload(scene_name=scene_name, ray_kind=ray_kind,
                            tree=None, origins=empty,
                            directions=empty.copy(), t_max=np.zeros(0),
                            reference=reference, preset=preset, light=None,
                            seed=seed, graph=graph)
        triangles = [Triangle(row[0].copy(), row[1].copy(), row[2].copy())
                     for row in arrays["vertices"]]
        ints = arrays["tree_stats_i"]
        floats = arrays["tree_stats_f"]
        tree = KDTree(
            root=None,
            bounds=AABB(arrays["bounds_lo"], arrays["bounds_hi"]),
            triangles=triangles,
            nodes=arrays["nodes"],
            leaf_indices=arrays["leaf_indices"],
            precomputed_stats=KDTreeStats(
                num_triangles=int(ints[0]), num_nodes=int(ints[1]),
                num_leaves=int(ints[2]), max_depth=int(ints[3]),
                avg_leaf_depth=float(floats[0]),
                avg_triangles_per_leaf=float(floats[1]),
                max_triangles_per_leaf=int(ints[4]),
                empty_leaves=int(ints[5])))
        light = arrays["light"]
        return Workload(scene_name=scene_name, ray_kind=ray_kind, tree=tree,
                        origins=arrays["origins"],
                        directions=arrays["directions"],
                        t_max=arrays["t_max"], reference=reference,
                        preset=preset,
                        light=None if np.isnan(light).all() else light,
                        seed=seed)


_default: WorkloadCache | None = None


def default_cache() -> WorkloadCache:
    """The process-wide cache (re-created if the env-resolved dir changes)."""
    global _default
    directory = resolve_cache_dir()
    if _default is None or _default.cache_dir != directory:
        _default = WorkloadCache(directory)
    return _default
