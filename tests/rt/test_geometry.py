"""AABB and Wald triangle intersection tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SceneError
from repro.rt.geometry import (
    AABB,
    Triangle,
    WaldTriangle,
    WALD_TRIANGLE_WORDS,
    triangles_to_wald_array,
)
from repro.rt.vecmath import cross, dot

coord = st.floats(min_value=-100, max_value=100, allow_nan=False,
                  allow_infinity=False)
point = st.tuples(coord, coord, coord).map(lambda t: np.array(t))

#: Conditioning floor for comparing the two intersection formulations:
#: twice the triangle's area over its longest edge squared, and the sine
#: of the ray–plane angle. Below it both formulations are ill-conditioned
#: and may legitimately disagree by more than rounding.
CONDITIONING_FLOOR = 1e-9


def well_conditioned(tri: Triangle, direction) -> bool:
    """True unless ``tri`` is a sliver or ``direction`` grazes its plane."""
    normal = np.linalg.norm(tri.normal)
    longest = max(float(np.dot(edge, edge)) for edge in
                  (tri.b - tri.a, tri.c - tri.b, tri.a - tri.c))
    if normal < CONDITIONING_FLOOR * longest:
        return False
    grazing = abs(float(np.dot(direction, tri.normal)))
    return grazing >= CONDITIONING_FLOOR * normal * np.linalg.norm(direction)


def moller_trumbore(tri: Triangle, origin, direction):
    """Independent reference intersection (Möller–Trumbore)."""
    e1 = tri.b - tri.a
    e2 = tri.c - tri.a
    p = np.cross(direction, e2)
    det = float(np.dot(e1, p))
    if det == 0.0:
        return None
    inv = 1.0 / det
    s = origin - tri.a
    u = float(np.dot(s, p)) * inv
    if u < 0.0 or u > 1.0:
        return None
    q = np.cross(s, e1)
    v = float(np.dot(direction, q)) * inv
    if v < 0.0 or u + v > 1.0:
        return None
    t = float(np.dot(e2, q)) * inv
    return t if t > 0.0 else None


class TestAABB:
    def test_of_points(self):
        box = AABB.of_points(np.array([[0, 1, 2], [3, -1, 5.0]]))
        assert box.lo.tolist() == [0, -1, 2]
        assert box.hi.tolist() == [3, 1, 5]

    def test_empty_box(self):
        assert AABB.empty().is_empty

    def test_union(self):
        a = AABB(np.zeros(3), np.ones(3))
        b = AABB(np.full(3, 2.0), np.full(3, 3.0))
        u = a.union(b)
        assert u.lo.tolist() == [0, 0, 0]
        assert u.hi.tolist() == [3, 3, 3]

    def test_surface_area_unit_cube(self):
        box = AABB(np.zeros(3), np.ones(3))
        assert box.surface_area == 6.0

    def test_split(self):
        box = AABB(np.zeros(3), np.ones(3))
        left, right = box.split(0, 0.25)
        assert left.hi[0] == 0.25
        assert right.lo[0] == 0.25
        assert left.lo[0] == 0.0 and right.hi[0] == 1.0

    def test_split_outside_raises(self):
        box = AABB(np.zeros(3), np.ones(3))
        with pytest.raises(SceneError):
            box.split(1, 2.0)

    def test_contains(self):
        box = AABB(np.zeros(3), np.ones(3))
        assert box.contains(np.array([0.5, 0.5, 0.5]))
        assert not box.contains(np.array([1.5, 0.5, 0.5]))

    def test_ray_range_hit(self):
        box = AABB(np.zeros(3), np.ones(3))
        enter, exit_ = box.ray_range(np.array([-1.0, 0.5, 0.5]),
                                     np.array([1.0, 0.0, 0.0]))
        assert enter == pytest.approx(1.0)
        assert exit_ == pytest.approx(2.0)

    def test_ray_range_miss(self):
        box = AABB(np.zeros(3), np.ones(3))
        enter, exit_ = box.ray_range(np.array([-1.0, 5.0, 0.5]),
                                     np.array([1.0, 0.0, 0.0]))
        assert enter > exit_

    def test_ray_range_inside_starts_at_zero(self):
        box = AABB(np.zeros(3), np.ones(3))
        enter, exit_ = box.ray_range(np.array([0.5, 0.5, 0.5]),
                                     np.array([1.0, 0.0, 0.0]))
        assert enter == 0.0
        assert exit_ == pytest.approx(0.5)

    def test_ray_range_zero_direction_component(self):
        box = AABB(np.zeros(3), np.ones(3))
        enter, exit_ = box.ray_range(np.array([-1.0, 0.5, 0.5]),
                                     np.array([1.0, 0.0, 0.0]))
        assert enter <= exit_

    def test_ray_range_zero_direction_outside_slab(self):
        box = AABB(np.zeros(3), np.ones(3))
        enter, exit_ = box.ray_range(np.array([-1.0, 5.0, 0.5]),
                                     np.array([1.0, 0.0, 0.0]))
        assert enter > exit_

    def test_ray_range_origin_on_boundary_zero_direction(self):
        box = AABB(np.zeros(3), np.ones(3))
        enter, exit_ = box.ray_range(np.array([0.0, 0.5, 0.5]),
                                     np.array([0.0, 1.0, 0.0]))
        assert enter <= exit_  # NaN fixups keep the slab unconstrained

    def test_grown(self):
        box = AABB(np.zeros(3), np.ones(3)).grown(0.5)
        assert box.lo.tolist() == [-0.5] * 3
        assert box.hi.tolist() == [1.5] * 3


class TestTriangle:
    def test_normal_direction(self):
        tri = Triangle(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert tri.normal.tolist() == [0, 0, 1]

    def test_degenerate_detection(self):
        tri = Triangle(np.zeros(3), np.ones(3), np.full(3, 2.0))
        assert tri.is_degenerate

    def test_bounds(self):
        tri = Triangle(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 2.0, 3.0]))
        box = tri.bounds()
        assert box.lo.tolist() == [0, 0, 0]
        assert box.hi.tolist() == [1, 2, 3]

    def test_centroid(self):
        tri = Triangle(np.zeros(3), np.array([3.0, 0, 0]), np.array([0, 3.0, 0]))
        assert tri.centroid().tolist() == [1, 1, 0]


class TestWaldTriangle:
    def test_precompute_degenerate_raises(self):
        tri = Triangle(np.zeros(3), np.ones(3), np.full(3, 2.0))
        with pytest.raises(SceneError):
            WaldTriangle.precompute(tri)

    def test_simple_hit(self):
        tri = Triangle(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                       np.array([0, 1.0, 0]))
        wald = WaldTriangle.precompute(tri)
        t = wald.intersect(np.array([0.25, 0.25, 1.0]),
                           np.array([0.0, 0.0, -1.0]))
        assert t == pytest.approx(1.0)

    def test_miss_outside(self):
        tri = Triangle(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                       np.array([0, 1.0, 0]))
        wald = WaldTriangle.precompute(tri)
        assert wald.intersect(np.array([0.9, 0.9, 1.0]),
                              np.array([0.0, 0.0, -1.0])) is None

    def test_behind_origin_misses(self):
        tri = Triangle(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                       np.array([0, 1.0, 0]))
        wald = WaldTriangle.precompute(tri)
        assert wald.intersect(np.array([0.25, 0.25, -1.0]),
                              np.array([0.0, 0.0, -1.0])) is None

    def test_t_max_bound(self):
        tri = Triangle(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                       np.array([0, 1.0, 0]))
        wald = WaldTriangle.precompute(tri)
        assert wald.intersect(np.array([0.25, 0.25, 1.0]),
                              np.array([0.0, 0.0, -1.0]), t_max=0.5) is None

    def test_parallel_ray_misses(self):
        tri = Triangle(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
                       np.array([0, 1.0, 0]))
        wald = WaldTriangle.precompute(tri)
        assert wald.intersect(np.array([0.0, 0.0, 1.0]),
                              np.array([1.0, 0.0, 0.0])) is None

    def test_words_round_trip(self):
        tri = Triangle(np.array([0.3, 0.1, 0]), np.array([1.2, 0, 0.4]),
                       np.array([0, 1.7, 0.2]))
        wald = WaldTriangle.precompute(tri)
        again = WaldTriangle.from_words(wald.to_words())
        assert again == wald

    def test_words_length(self):
        tri = Triangle(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert len(WaldTriangle.precompute(tri).to_words()) == WALD_TRIANGLE_WORDS

    def test_array_stacking(self, unit_triangles):
        rows = triangles_to_wald_array(unit_triangles)
        assert rows.shape == (2, WALD_TRIANGLE_WORDS)

    def test_empty_array(self):
        assert triangles_to_wald_array([]).shape == (0, WALD_TRIANGLE_WORDS)

    @settings(max_examples=200, deadline=None)
    @given(point, point, point, point, point)
    # A sliver triangle, and a ray lying in the triangle's plane along an
    # edge: both formulations are ill-conditioned there.
    @example(a=np.array([0.0, 1.0, 1.0]), b=np.array([3.0, 0.0, 0.0]),
             c=np.array([3.0, 3.28e-15, 0.0]), origin=np.zeros(3),
             target=np.array([3.0, 0.0, 0.0]))
    @example(a=np.array([0.0, 1.0, 1.0]), b=np.array([1.0, 0.0, 0.0]),
             c=np.array([0.0, 0.0, 3.28e-15]), origin=np.zeros(3),
             target=np.array([3.0, 0.0, 0.0]))
    def test_matches_moller_trumbore(self, a, b, c, origin, target):
        tri = Triangle(a, b, c)
        if tri.is_degenerate:
            return
        direction = target - origin
        if float(np.dot(direction, direction)) == 0.0:
            return
        if not well_conditioned(tri, direction):
            return
        try:
            wald = WaldTriangle.precompute(tri)
        except SceneError:
            return
        ours = wald.intersect(origin, direction)
        theirs = moller_trumbore(tri, origin, direction)
        if theirs is None or ours is None:
            # Boundary hits may legitimately differ between formulations;
            # require agreement away from edges.
            if theirs is not None and ours is not None:
                return
            if theirs is None and ours is None:
                return
            t = theirs if theirs is not None else ours
            hit = origin + t * direction
            # Verify the disputed hit is near the triangle plane/edges.
            n = tri.normal / np.linalg.norm(tri.normal)
            assert abs(float(np.dot(hit - tri.a, n))) < 1e-5 * (
                1.0 + float(np.abs(hit).max()))
        else:
            assert ours == pytest.approx(theirs, rel=1e-6, abs=1e-9)


#: Values that meet the float/numpy differences: signed zeros, equal
#: coordinates, infinities' sources (zero direction components).
edge_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-300])
edge_coord = st.one_of(edge_value, coord)
edge_point = st.tuples(edge_coord, edge_coord, edge_coord).map(np.array)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def numpy_ray_range(box: AABB, origin, direction) -> tuple[float, float]:
    """The slab test in numpy arrays, the reference for the float walk."""
    with np.errstate(all="ignore"):
        inv = 1.0 / np.asarray(direction, dtype=np.float64)
        t0 = (box.lo - origin) * inv
        t1 = (box.hi - origin) * inv
    t0 = np.where(np.isnan(t0), -np.inf, t0)
    t1 = np.where(np.isnan(t1), np.inf, t1)
    t_enter = float(np.max(np.minimum(t0, t1)))
    t_exit = float(np.min(np.maximum(t0, t1)))
    return max(t_enter, 0.0), t_exit


def numpy_wald_words(tri: Triangle) -> list[float]:
    """Wald's precomputation in numpy (``np.cross``, ``vecmath.dot``,
    ``np.argmax``), the reference for the float one."""
    normal = cross(tri.b - tri.a, tri.c - tri.a)
    k = int(np.argmax(np.abs(normal)))
    u, v = ((1, 2), (2, 0), (0, 1))[k]
    b_vec = tri.c - tri.a
    c_vec = tri.b - tri.a
    det = c_vec[u] * b_vec[v] - c_vec[v] * b_vec[u]
    return [float(k), normal[u] / normal[k], normal[v] / normal[k],
            dot(tri.a, normal) / normal[k], tri.a[u], tri.a[v],
            b_vec[v] / det, -b_vec[u] / det, -c_vec[v] / det,
            c_vec[u] / det, 0.0, 0.0]


class TestMatchesNumpyBitForBit:
    """The float forms keep numpy's answer in every bit, signed zeros
    included: the reference tracer's outputs depend on it."""

    @settings(max_examples=400, deadline=None)
    @given(edge_point, edge_point, edge_point, edge_point)
    def test_ray_range(self, lo, extent, origin, direction):
        box = AABB(lo, lo + np.abs(extent))
        assert bits(box.ray_range(origin.tolist(), direction.tolist())) == \
            bits(numpy_ray_range(box, origin, direction))

    @settings(max_examples=400, deadline=None)
    @given(edge_point, edge_point, edge_point)
    # Every product of A . normal is -0.0: numpy's sum is +0.0, so n_d is
    # 0.0 / -1.0 = -0.0.
    @example(a=np.zeros(3), b=np.array([0.0, 1.0, -1.0]),
             c=np.array([1.0, -1.0, 0.0]))
    def test_wald_precompute(self, a, b, c):
        tri = Triangle(a, b, c)
        try:
            words = WaldTriangle.precompute(tri).to_words()
        except SceneError:
            return
        assert bits(words) == bits(numpy_wald_words(tri))

    @settings(max_examples=200, deadline=None)
    @given(edge_point, edge_point, st.integers(0, 2), edge_coord)
    def test_surface_area_and_split(self, lo, extent, axis, offset):
        box = AABB(lo, lo + extent)
        e = np.maximum(box.extent, 0.0)
        area = 2.0 * (e[0] * e[1] + e[1] * e[2] + e[2] * e[0])
        assert bits(box.surface_area) == bits(area)
        position = box.lo[axis] + abs(offset)
        if not box.lo[axis] <= position <= box.hi[axis]:
            return
        left, right = box.split(axis, position)
        left_hi, right_lo = box.hi.copy(), box.lo.copy()
        left_hi[axis] = right_lo[axis] = position
        assert bits([left.lo, left.hi, right.lo, right.hi]) == \
            bits([box.lo, left_hi, right_lo, box.hi])
