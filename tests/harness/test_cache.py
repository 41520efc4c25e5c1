"""Persistent workload cache: bit-identity, recovery, and bookkeeping.

The cache's contract is that a loaded workload is indistinguishable from
a freshly built one — every float64 array roundtrips exactly through
``.npz`` — and that bad entries (corrupt files, stale salts) are deleted
and rebuilt rather than served or raised on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.harness.cache import (
    CACHE_SALT,
    WorkloadCache,
    cache_enabled,
    resolve_cache_dir,
)
from repro.harness.presets import get_preset
from repro.harness.runner import build_workload, prepare_workload, run_mode
from repro.harness.sweep import run_stats_digest

SCENE = "conference"


@pytest.fixture(scope="module")
def preset():
    return get_preset("tiny")


@pytest.fixture(scope="module")
def built(preset):
    """Uncached reference build to compare cache products against."""
    return build_workload(SCENE, preset)


def assert_workloads_identical(a, b):
    """Every array the simulator consumes must match bit-for-bit."""
    assert a.scene_name == b.scene_name and a.ray_kind == b.ray_kind
    assert np.array_equal(a.origins, b.origins)
    assert np.array_equal(a.directions, b.directions)
    assert np.array_equal(a.t_max, b.t_max)
    assert np.array_equal(a.reference.t, b.reference.t)
    assert np.array_equal(a.reference.triangle, b.reference.triangle)
    for field in ("node_visits", "leaf_visits", "triangle_tests",
                  "stack_pushes"):
        assert np.array_equal(getattr(a.reference.counters, field),
                              getattr(b.reference.counters, field))
    assert np.array_equal(a.tree.nodes, b.tree.nodes)
    assert np.array_equal(a.tree.leaf_indices, b.tree.leaf_indices)
    assert np.array_equal(a.tree.bounds.lo, b.tree.bounds.lo)
    assert np.array_equal(a.tree.bounds.hi, b.tree.bounds.hi)
    assert a.tree.stats() == b.tree.stats()
    assert len(a.tree.triangles) == len(b.tree.triangles)
    for tri_a, tri_b in zip(a.tree.triangles, b.tree.triangles):
        assert np.array_equal(tri_a.a, tri_b.a)
        assert np.array_equal(tri_a.b, tri_b.b)
        assert np.array_equal(tri_a.c, tri_b.c)
    if a.light is None:
        assert b.light is None
    else:
        assert np.array_equal(a.light, b.light)


class TestRoundtrip:
    def test_store_then_disk_load_is_bit_identical(self, tmp_path, preset,
                                                   built):
        writer = WorkloadCache(tmp_path)
        stored = writer.workload(SCENE, preset)
        assert writer.stats.misses == 1 and writer.stats.stores == 1
        assert_workloads_identical(stored, built)
        # A fresh instance sees only the file, never the build path.
        reader = WorkloadCache(tmp_path)
        loaded = reader.workload(SCENE, preset)
        assert reader.stats.disk_hits == 1 and reader.stats.misses == 0
        assert_workloads_identical(loaded, built)

    def test_simulation_on_loaded_workload_matches(self, tmp_path, preset,
                                                   built):
        cache = WorkloadCache(tmp_path)
        cache.workload(SCENE, preset)
        loaded = WorkloadCache(tmp_path).workload(SCENE, preset)
        fresh = run_mode("spawn", built, max_cycles=30_000)
        cached = run_mode("spawn", loaded, max_cycles=30_000)
        assert run_stats_digest(fresh.stats) == run_stats_digest(cached.stats)
        assert cached.verify()

    def test_secondary_derived_from_cached_primary(self, tmp_path, preset):
        cache = WorkloadCache(tmp_path)
        shadow = cache.workload(SCENE, preset, ray_kind="shadow")
        # One full build (the primary), one derivation, two stored entries.
        assert cache.stats.misses == 1
        assert cache.stats.derived == 1
        assert cache.stats.stores == 2
        assert_workloads_identical(
            shadow, build_workload(SCENE, preset, ray_kind="shadow"))

    def test_rehydrated_primary_derives_identical_secondary(self, tmp_path,
                                                            preset):
        WorkloadCache(tmp_path).workload(SCENE, preset)
        cache = WorkloadCache(tmp_path)  # primary comes from disk
        gi = cache.workload(SCENE, preset, ray_kind="gi", seed=3)
        assert cache.stats.disk_hits == 1 and cache.stats.misses == 0
        assert_workloads_identical(
            gi, build_workload(SCENE, preset, ray_kind="gi", seed=3))

    @pytest.mark.parametrize("ray_kind", ("primary", "shadow", "reflection",
                                          "gi", "path"))
    def test_fresh_build_and_disk_load_carry_one_seed(self, tmp_path,
                                                      preset, ray_kind):
        """The seed is part of the cache key, and run_mode takes a
        result's seed from the workload: a fresh build must report the
        seed it was built for, as the same batch loaded from disk does."""
        fresh = WorkloadCache(tmp_path).workload(SCENE, preset,
                                                 ray_kind=ray_kind, seed=3)
        reader = WorkloadCache(tmp_path)
        loaded = reader.workload(SCENE, preset, ray_kind=ray_kind, seed=3)
        assert reader.stats.disk_hits == 1
        assert fresh.seed == loaded.seed == 3
        assert_workloads_identical(fresh, loaded)
        uncached = build_workload(SCENE, preset, ray_kind=ray_kind, seed=3)
        assert uncached.seed == 3


class TestMemoryLRU:
    def test_second_lookup_hits_memory(self, tmp_path, preset):
        cache = WorkloadCache(tmp_path)
        first = cache.workload(SCENE, preset)
        second = cache.workload(SCENE, preset)
        assert cache.stats.memory_hits == 1
        assert second is first

    def test_budget_only_preset_change_shares_entry(self, tmp_path, preset):
        cache = WorkloadCache(tmp_path)
        cache.workload(SCENE, preset)
        budget = dataclasses.replace(preset, max_cycles=123, num_sms=2)
        assert cache.key(SCENE, budget) == cache.key(SCENE, preset)
        shared = cache.workload(SCENE, budget)
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 1
        assert shared.preset is budget

    def test_eviction(self, tmp_path, preset):
        cache = WorkloadCache(tmp_path, max_memory_entries=1)
        cache.workload(SCENE, preset)
        cache.workload(SCENE, preset, ray_kind="shadow")
        assert cache.stats.evictions >= 1
        # Evicted entry comes back from disk, not a rebuild.
        cache.workload(SCENE, preset)
        assert cache.stats.misses == 1
        assert cache.stats.disk_hits >= 1


class TestRecovery:
    def test_corrupt_entry_deleted_and_rebuilt(self, tmp_path, preset, built):
        WorkloadCache(tmp_path).workload(SCENE, preset)
        [entry] = tmp_path.glob("*.npz")
        entry.write_bytes(b"not a zip archive")
        cache = WorkloadCache(tmp_path)
        workload = cache.workload(SCENE, preset)
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.misses == 1  # rebuilt
        assert_workloads_identical(workload, built)
        # The rebuilt entry is valid again.
        reader = WorkloadCache(tmp_path)
        reader.workload(SCENE, preset)
        assert reader.stats.disk_hits == 1

    def test_stale_salt_entry_deleted_and_rebuilt(self, tmp_path, preset,
                                                  built):
        cache = WorkloadCache(tmp_path)
        cache.workload(SCENE, preset)
        [entry] = tmp_path.glob("*.npz")
        # Tamper the stored salt in place: same filename (same key hash),
        # wrong embedded salt — as if workload code changed under a
        # hand-copied cache directory.
        with np.load(entry, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["salt"] = np.array("workload-v0-stale")
        np.savez(entry.with_suffix(""), **arrays)
        fresh = WorkloadCache(tmp_path)
        workload = fresh.workload(SCENE, preset)
        assert fresh.stats.stale_entries == 1
        assert fresh.stats.misses == 1
        assert_workloads_identical(workload, built)

    def test_salt_participates_in_key(self, tmp_path, preset):
        a = WorkloadCache(tmp_path, salt=CACHE_SALT)
        b = WorkloadCache(tmp_path, salt=CACHE_SALT + "-alt")
        assert a.key(SCENE, preset) != b.key(SCENE, preset)


class TestManagement:
    def test_info_and_clear(self, tmp_path, preset):
        cache = WorkloadCache(tmp_path)
        cache.workload(SCENE, preset)
        cache.workload(SCENE, preset, ray_kind="shadow")
        info = cache.info()
        assert info["entries"] == 2
        assert info["total_bytes"] > 0
        assert info["stats"]["stores"] == 2
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0
        # Memory LRU is forgotten too: next lookup rebuilds.
        cache.workload(SCENE, preset)
        assert cache.stats.misses == 2

    def test_key_depends_on_geometry_fields(self, tmp_path, preset):
        cache = WorkloadCache(tmp_path)
        base = cache.key(SCENE, preset)
        assert cache.key("atrium", preset) != base
        assert cache.key(SCENE, preset, ray_kind="shadow") != base
        assert cache.key(SCENE, preset, seed=1) != base
        detail = dataclasses.replace(preset, scene_detail=0.5)
        assert cache.key(SCENE, detail) != base


class TestEnvControls:
    def test_cache_disabled_builds_without_files(self, tmp_path, monkeypatch,
                                                 preset):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        workload = prepare_workload(SCENE, preset)
        assert workload.num_rays == preset.num_rays
        assert list(tmp_path.glob("*.npz")) == []

    def test_cache_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        assert resolve_cache_dir() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert resolve_cache_dir() == tmp_path / "xdg" / "repro"

    def test_prepare_workload_explicit_instance_and_bypass(self, tmp_path,
                                                           preset):
        cache = WorkloadCache(tmp_path)
        prepare_workload(SCENE, preset, cache=cache)
        assert cache.stats.misses == 1
        prepare_workload(SCENE, preset, cache=cache)
        assert cache.stats.memory_hits == 1
        before = cache.stats.as_dict()
        prepare_workload(SCENE, preset, cache=False)  # full bypass
        assert cache.stats.as_dict() == before
