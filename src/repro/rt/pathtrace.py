"""Reference multi-bounce diffuse path tracer with russian roulette.

This is the functional oracle for the path-tracing kernel family in
:mod:`repro.kernels.pathtrace`. It mirrors the kernel **operation for
operation** in float64 — same op order, same separately-rounded
multiply/add pairs wherever the kernel uses ``mad``, the same integer LCG
realized in exact float64 arithmetic, the same ``selp`` fallbacks — so the
simulated result words can be compared for *exact* equality, the same bar
the single-bounce tracer meets.

Per-ray algorithm (both sides implement exactly this):

1. Seed a Park–Miller LCG from ``(ray_id, seed)``; every draw is
   ``state = (state * 48271) mod 2147483647`` followed by
   ``u = state / 2147483647`` — the product stays below 2**47, so float64
   arithmetic is exact and the kernel's ``mul``/``rem``/``div`` sequence
   reproduces it bit for bit.
2. Trace a segment through the kd-tree (identical traversal to
   :func:`repro.rt.trace._trace_one`). A miss terminates the path.
3. On a hit: advance the origin to the hit point, count the bounce, and
   terminate if the bounce budget is exhausted. Otherwise draw one
   roulette uniform — the path *continues* only while ``u < q`` — then
   draw three uniforms for a rejection-free sphere-offset diffuse bounce
   about the (incidence-flipped) geometric normal, nudge the origin off
   the surface, and trace the next segment.

The result record per ray is ``(bounce_count, last_hit_triangle)``: the
data-dependent quantity the roulette loop produces, stored where the
single-bounce kernels store ``(t, triangle)``.

Like :mod:`repro.rt.trace`, the loop runs on plain Python floats (the tree
as lists, each segment's origin and direction as float tuples), which is
bit-identical to float64 numpy arithmetic; the one exception-prone step,
the reciprocal square root of a zero-length sample, keeps the kernel's
``rsqrt`` answer ``+inf``. Every segment adds its traversal counters to
the path's totals once, when the segment ends.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rt.geometry import WaldTriangle
from repro.rt.kdtree import KDTree
from repro.rt.trace import TraceCounters, TraceResult, _trace_one

#: Park–Miller ("minimal standard") LCG constants. 48271 * (2**31 - 2) is
#: below 2**47, so the kernel's float64 ``mul`` is exact and ``rem`` (an
#: int64 modulus) recovers the integer sequence without drift.
LCG_MODULUS = 2147483647
LCG_MULTIPLIER = 48271

#: Draws consumed per *continuing* bounce: one roulette + three direction.
DRAWS_PER_BOUNCE = 4

_NORMAL_EPS = 1e-12
_ORIGIN_EPS = 1e-7


def rng_init(ray_id: int, seed: int) -> float:
    """Initial LCG state for one ray, as the kernel computes it."""
    state = float(int(ray_id * 9973.0 + seed * 12345.0 + 1.0) % LCG_MODULUS)
    return max(state, 1.0)


def rng_next(state: float) -> float:
    """One LCG step; exact in float64 (see :data:`LCG_MODULUS`)."""
    return float(int(state * float(LCG_MULTIPLIER)) % LCG_MODULUS)


def _rsqrt(x: float) -> float:
    """The kernel's ``rsqrt`` (``1 / sqrt``), ``+inf`` at zero."""
    return 1.0 / math.sqrt(x) if x else math.inf


def _decode_normal(words: list[float]) -> tuple[float, float, float]:
    """Unnormalized geometric normal from a Wald record's (k, n_u, n_v).

    The dominant-axis component is exactly 1, so the squared length is at
    least 1 and ``rsqrt`` is always finite — the kernel relies on this.
    """
    k = int(words[0])
    nu = words[1]
    nv = words[2]
    if k == 0:
        return 1.0, nu, nv
    if k == 1:
        return nv, 1.0, nu
    return nu, nv, 1.0


def path_trace_rays(tree: KDTree, origins: np.ndarray,
                    directions: np.ndarray,
                    t_max: float | np.ndarray = np.inf, *,
                    max_depth: int, roulette_q: float,
                    seed: int = 0) -> TraceResult:
    """Path-trace rays; ``t``/``triangle`` carry bounce count and last hit.

    ``t[r]`` is the bounce count as a float (0.0 when the primary segment
    missed), ``triangle[r]`` the last triangle hit (-1 when nothing was
    ever hit). Traversal counters accumulate across all segments of a
    path, so the bandwidth model sees the full multi-bounce footprint.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    num_rays = origins.shape[0]
    limits = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (num_rays,))
    nodes = tree.nodes.tolist()
    leaf_indices = tree.leaf_indices.tolist()
    wald_rows = tree.wald.tolist()
    wald = [WaldTriangle.from_words(row) for row in wald_rows]
    out_bounces = []
    out_tri = []
    rows = []
    q = float(roulette_q)
    for ray, (origin, direction, t_limit) in enumerate(zip(
            origins.tolist(), directions.tolist(), limits.tolist())):
        counts = [0, 0, 0, 0]
        bounces, last_tri = _path_trace_one(
            nodes, leaf_indices, wald, wald_rows, tree.bounds,
            origin, direction, t_limit, int(max_depth), q,
            rng_init(ray, seed), counts)
        out_bounces.append(float(bounces))
        out_tri.append(last_tri)
        rows.append(counts)
    return TraceResult(t=np.array(out_bounces, dtype=np.float64),
                       triangle=np.array(out_tri, dtype=np.int64),
                       counters=TraceCounters.from_rows(rows))


def _path_trace_one(nodes, leaf_indices, wald, wald_rows, bounds,
                    origin, direction, t_limit, max_depth, q, state,
                    counts) -> tuple[int, int]:
    ox, oy, oz = origin
    dx, dy, dz = direction
    bounces = 0
    last_tri = -1
    while True:
        hit = _trace_one(nodes, leaf_indices, wald, bounds,
                         (ox, oy, oz), (dx, dy, dz), t_limit, counts)
        if hit is None:
            return bounces, last_tri
        best_t, best_tri = hit
        bounces += 1
        last_tri = best_tri
        # Hit point via mad (separately rounded mul + add, like the kernel).
        ox = best_t * dx + ox
        oy = best_t * dy + oy
        oz = best_t * dz + oz
        if bounces >= max_depth:
            return bounces, last_tri
        state = rng_next(state)
        u = state / float(LCG_MODULUS)
        if u >= q:
            return bounces, last_tri
        state = rng_next(state)
        u1 = state / float(LCG_MODULUS)
        state = rng_next(state)
        u2 = state / float(LCG_MODULUS)
        state = rng_next(state)
        u3 = state / float(LCG_MODULUS)
        nx, ny, nz = _decode_normal(wald_rows[best_tri])
        # Flip toward the incoming side: left-associated dot, like the
        # kernel's mul + two mads.
        dot = nx * dx
        dot = ny * dy + dot
        dot = nz * dz + dot
        if dot > 0.0:
            nx, ny, nz = -nx, -ny, -nz
        nn = nx * nx
        nn = ny * ny + nn
        nn = nz * nz + nn
        ninv = 1.0 / math.sqrt(nn)
        nx *= ninv
        ny *= ninv
        nz *= ninv
        sx = u1 * 2.0 + -1.0
        sy = u2 * 2.0 + -1.0
        sz = u3 * 2.0 + -1.0
        slen = sx * sx
        slen = sy * sy + slen
        slen = sz * sz + slen
        sinv = _rsqrt(slen)
        if slen >= _NORMAL_EPS:
            sx, sy, sz = sx * sinv, sy * sinv, sz * sinv
        else:
            sx, sy, sz = nx, ny, nz
        bx = nx + sx
        by = ny + sy
        bz = nz + sz
        blen = bx * bx
        blen = by * by + blen
        blen = bz * bz + blen
        binv = _rsqrt(blen)
        if blen >= _NORMAL_EPS:
            dx, dy, dz = bx * binv, by * binv, bz * binv
        else:
            dx, dy, dz = nx, ny, nz
        ox = nx * _ORIGIN_EPS + ox
        oy = ny * _ORIGIN_EPS + oy
        oz = nz * _ORIGIN_EPS + oz
        t_limit = math.inf
