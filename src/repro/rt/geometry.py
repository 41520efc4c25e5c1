"""Geometric primitives: AABB, triangles, and Wald's intersection test.

The paper's workload uses Wald's precomputed ray-triangle intersection
(Wald 2004, §7.2): per triangle, the plane equation is projected onto the
dominant normal axis ``k`` so the hit test needs only 9 floats plus ``k``
(48 bytes in the paper's 32-bit layout — the exact per-thread state size
Table II reports for spawn memory is the same 48 bytes by design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SceneError
from repro.rt.vecmath import cross, dot

#: Words (32-bit in hardware; one simulator word each) per Wald triangle
#: record: k, n_u, n_v, n_d, a_u, a_v, b_nu, b_nv, c_nu, c_nv, pad, pad.
WALD_TRIANGLE_WORDS = 12

_AXES = ((1, 2), (2, 0), (0, 1))  # (u, v) for each dominant axis k


@dataclass(frozen=True)
class AABB:
    """Axis-aligned bounding box."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def empty() -> "AABB":
        return AABB(np.full(3, np.inf), np.full(3, -np.inf))

    @staticmethod
    def of_points(points: np.ndarray) -> "AABB":
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return AABB(points.min(axis=0), points.max(axis=0))

    def union(self, other: "AABB") -> "AABB":
        return AABB(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def grown(self, eps: float) -> "AABB":
        return AABB(self.lo - eps, self.hi + eps)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def surface_area(self) -> float:
        return box_surface_area(self.lo.tolist(), self.hi.tolist())

    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.lo > self.hi))

    def contains(self, point: np.ndarray, eps: float = 1e-9) -> bool:
        point = np.asarray(point)
        return bool(np.all(point >= self.lo - eps) and np.all(point <= self.hi + eps))

    def split(self, axis: int, position: float) -> tuple["AABB", "AABB"]:
        """Cut along ``axis`` at ``position``; returns (left, right)."""
        left, right = box_split(self.lo.tolist(), self.hi.tolist(), axis,
                                position)
        return (AABB(np.array(left[0]), np.array(left[1])),
                AABB(np.array(right[0]), np.array(right[1])))

    def ray_range(self, origin, direction) -> tuple[float, float]:
        """Parametric [t_enter, t_exit] of the ray inside the box.

        ``origin`` and ``direction`` are 3-vectors, read as floats.
        Returns ``t_enter > t_exit`` when the ray misses. Zero direction
        components are handled with IEEE infinities (slab method):
        ``-0.0`` gives ``-inf``, and a NaN slab bound (``0 * inf``: the
        origin on a slab plane) becomes the infinity that leaves the slab
        open. Each pick keeps numpy's rule, so the result is bit-identical
        to the array form ``max(minimum(t0, t1))``,
        ``min(maximum(t0, t1))``, signed zeros included:
        ``np.minimum``/``np.maximum`` return their second operand on a tie,
        and the reductions fold the axes in order.
        """
        t_enter, t_exit = -math.inf, math.inf
        for lo, hi, o, d in zip(self.lo.tolist(), self.hi.tolist(),
                                map(float, origin), map(float, direction)):
            inv = reciprocal(d)
            t0 = (lo - o) * inv
            t1 = (hi - o) * inv
            if t0 != t0:
                t0 = -math.inf
            if t1 != t1:
                t1 = math.inf
            near = t0 if t0 < t1 else t1
            far = t0 if t0 > t1 else t1
            t_enter = t_enter if t_enter > near else near
            t_exit = t_exit if t_exit < far else far
        return max(t_enter, 0.0), t_exit


def reciprocal(d: float) -> float:
    """``1.0 / d`` with numpy's IEEE result on zero: ``+-inf`` by the sign
    of the zero (Python raises instead)."""
    return 1.0 / d if d else math.copysign(math.inf, d)


def box_surface_area(lo, hi) -> float:
    """Surface area of the box ``[lo, hi]`` (3-float sequences); negative
    extents count as zero."""
    e0, e1, e2 = (0.0 if h - l <= 0.0 else h - l for l, h in zip(lo, hi))
    return 2.0 * (e0 * e1 + e1 * e2 + e2 * e0)


def box_split(lo, hi, axis: int, position: float):
    """Cut the box ``[lo, hi]`` along ``axis`` at ``position``; returns
    ``((lo, left_hi), (right_lo, hi))`` as float lists."""
    if not lo[axis] <= position <= hi[axis]:
        raise SceneError(
            f"split position {position} outside box on axis {axis}")
    left_hi = list(hi)
    left_hi[axis] = position
    right_lo = list(lo)
    right_lo[axis] = position
    return (list(lo), left_hi), (right_lo, list(hi))


@dataclass(frozen=True)
class Triangle:
    """A raw triangle with vertices A, B, C (each shape (3,))."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def normal(self) -> np.ndarray:
        return cross(self.b - self.a, self.c - self.a)

    @property
    def is_degenerate(self) -> bool:
        n = self.normal
        return bool(dot(n, n) == 0.0)

    def bounds(self) -> AABB:
        return AABB.of_points(np.stack([self.a, self.b, self.c]))

    def centroid(self) -> np.ndarray:
        return (self.a + self.b + self.c) / 3.0


@dataclass(frozen=True)
class WaldTriangle:
    """Wald's precomputed intersection record for one triangle."""

    k: int
    n_u: float
    n_v: float
    n_d: float
    a_u: float
    a_v: float
    b_nu: float
    b_nv: float
    c_nu: float
    c_nv: float

    @staticmethod
    def precompute(tri: Triangle) -> "WaldTriangle":
        """Wald's record for ``tri``, computed on plain floats.

        Bit-identical to the numpy formulation: the normal is
        :attr:`Triangle.normal`'s ``np.cross`` term for term, the dot
        products sum in :func:`repro.rt.vecmath.dot`'s order, and the
        dominant axis is ``np.argmax``'s first maximum.
        """
        a, b, c = tri.a.tolist(), tri.b.tolist(), tri.c.tolist()
        # Edge vectors: c_vec = B - A carries beta, b_vec = C - A carries gamma.
        b_vec = [q - p for p, q in zip(a, c)]
        c_vec = [q - p for p, q in zip(a, b)]
        normal = _cross(c_vec, b_vec)
        if _dot(normal, normal) == 0.0:
            raise SceneError("cannot precompute a degenerate triangle")
        magnitudes = [abs(x) for x in normal]
        k = magnitudes.index(max(magnitudes))
        u, v = _AXES[k]
        n_k = normal[k]
        det = c_vec[u] * b_vec[v] - c_vec[v] * b_vec[u]
        if det == 0.0:
            raise SceneError("triangle projects to a degenerate 2D triangle")
        return WaldTriangle(
            k=k,
            n_u=normal[u] / n_k, n_v=normal[v] / n_k,
            n_d=_dot(a, normal) / n_k,
            a_u=a[u], a_v=a[v],
            b_nu=b_vec[v] / det, b_nv=-b_vec[u] / det,
            c_nu=-c_vec[v] / det, c_nv=c_vec[u] / det,
        )

    def intersect(self, origin: np.ndarray, direction: np.ndarray,
                  t_max: float = np.inf) -> float | None:
        """Hit distance ``t`` in (0, t_max], or None on miss."""
        u, v = _AXES[self.k]
        denom = direction[self.k] + self.n_u * direction[u] + self.n_v * direction[v]
        if denom == 0.0:
            return None
        t = (self.n_d - origin[self.k]
             - self.n_u * origin[u] - self.n_v * origin[v]) / denom
        if not (0.0 < t <= t_max):
            return None
        h_u = origin[u] + t * direction[u] - self.a_u
        h_v = origin[v] + t * direction[v] - self.a_v
        beta = h_u * self.b_nu + h_v * self.b_nv
        if beta < 0.0:
            return None
        gamma = h_u * self.c_nu + h_v * self.c_nv
        if gamma < 0.0 or beta + gamma > 1.0:
            return None
        return float(t)

    def to_words(self) -> list[float]:
        """Flatten to :data:`WALD_TRIANGLE_WORDS` memory words."""
        return [float(self.k), self.n_u, self.n_v, self.n_d,
                self.a_u, self.a_v, self.b_nu, self.b_nv,
                self.c_nu, self.c_nv, 0.0, 0.0]

    @staticmethod
    def from_words(words) -> "WaldTriangle":
        return WaldTriangle(k=int(words[0]), n_u=words[1], n_v=words[2],
                            n_d=words[3], a_u=words[4], a_v=words[5],
                            b_nu=words[6], b_nv=words[7],
                            c_nu=words[8], c_nv=words[9])


def _cross(a, b) -> list[float]:
    """``np.cross`` of two 3-float sequences, term for term."""
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _dot(a, b) -> float:
    """:func:`repro.rt.vecmath.dot` of two 3-float sequences, bit for bit:
    numpy's sum adds left to right from ``+0.0``, so an all-``-0.0`` sum
    is ``+0.0``."""
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def triangles_to_wald_array(triangles: list[Triangle]) -> np.ndarray:
    """Stack Wald records into an (N, 12) float array for simulated memory."""
    rows = [WaldTriangle.precompute(tri).to_words() for tri in triangles]
    if not rows:
        return np.zeros((0, WALD_TRIANGLE_WORDS), dtype=np.float64)
    return np.asarray(rows, dtype=np.float64)
