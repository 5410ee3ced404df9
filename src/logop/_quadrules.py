"""Shared log-radial quadrature rules.

All singular integrals in this package reduce, per ray, to integrals against
the measure d(rho)/rho = d(ln rho).  The canonical rule is composite Simpson
in s = ln(rho), with panel edges at decade boundaries and at the ray's
breaks (kernel support edges, indicator jumps, modulus kinks), so that the
integrand restricted to each panel is smooth.  Panel endpoints are nudged
into the panel interior by one part in 1e12 before the integrand is sampled,
which makes indicator-type integrands evaluate on the correct side of their
jumps at negligible cost for smooth integrands.

Breaks come from declarations, not per-ray callbacks: Kinks lists the
spheres and axis planes where a field has kinks or jumps, ray_breaks turns
them (and any radii shared by every ray) into one break array over all rays,
and panel_edges, ray_panels and polar_nodes build every ray's panels and
nodes from it in a few numpy passes.  The panels that every ray around a
point shares get one radial rule, shared_radial_nodes, cached by its edges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_NUDGE = 1e-12
_MERGE = 1e-10  # edges closer than this, relative, are one edge
_LN10 = math.log(10.0)


def radius(Y, squared=False):
    """|y| (or |y|^2 when squared) for every row y of the (m, N) array Y,
    summed column by column: faster than a reduction along the short axis,
    and equal to np.linalg.norm(Y, axis=1) to the bit for N <= 2."""
    acc = Y[:, 0] * Y[:, 0]
    for k in range(1, Y.shape[1]):
        acc += Y[:, k] * Y[:, k]
    return acc if squared else np.sqrt(acc)


@dataclass(frozen=True)
class Kinks:
    """Where a field on R^N has kinks or jumps, declared by their geometry.

    spheres holds (centre, radius) pairs for the spheres |y - centre| =
    radius, the centre a tuple of coordinates or () for the origin; a ray
    also breaks at its closest approach to every sphere centre, where |y -
    centre| has its minimum.  planes holds (axis, offset) pairs for the
    planes y[axis] = offset.  Kinks add by concatenation.
    """

    spheres: tuple = ()
    planes: tuple = ()

    def __add__(self, other):
        return Kinks(self.spheres + other.spheres, self.planes + other.planes)

    def shifted(self, x0):
        """The kinks of the translate y -> f(y + x0), given those of f."""
        x0 = np.asarray(x0, dtype=float)
        origin = (0.0,) * len(x0)
        spheres = tuple(
            (tuple((np.array(c or origin) - x0).tolist()), R) for c, R in self.spheres
        )
        planes = tuple((ax, off - float(x0[ax])) for ax, off in self.planes)
        return Kinks(spheres, planes)


def sphere_kinks(radii, centre=()):
    """Kinks of a field that is smooth off the spheres of the given radii
    around one centre (the origin by default)."""
    return Kinks(spheres=tuple((tuple(centre), float(R)) for R in radii))


@functools.lru_cache(maxsize=64)
def _kink_arrays(kinks, N):
    """The declarations as read-only arrays in dimension N: the distinct
    centres (S, N), each sphere's centre index and radius, and the planes'
    axes and offsets.  Cached: a field's kinks serve many evaluations."""
    full = np.array([c or (0.0,) * N for c, _ in kinks.spheres], dtype=float)
    centres, which = np.unique(full.reshape(-1, N), axis=0, return_inverse=True)
    out = (
        centres,
        which.reshape(-1),
        np.array([R for _, R in kinks.spheres], dtype=float),
        np.array([ax for ax, _ in kinks.planes], dtype=np.intp),
        np.array([off for _, off in kinks.planes], dtype=float),
    )
    for a in out:
        a.flags.writeable = False
    return out


def ray_breaks(x, thetas, kinks=Kinks(), radii=()):
    """Break array of the rays x + rho*theta, theta a row of thetas (M, N).

    Row k holds the given radii (shared by every ray) and the ray parameters
    rho > 0 at which ray k crosses a declared sphere or plane or passes
    closest to a sphere centre; the entries where a ray misses are inf.
    Shape (M, K), K the same for every ray.
    """
    M, N = thetas.shape
    cols = [np.broadcast_to(np.asarray(radii, dtype=float), (M, len(radii)))]
    centres, which, R, axes, offsets = _kink_arrays(kinks, N)
    with np.errstate(invalid="ignore", divide="ignore"):
        if len(centres):
            # theta . d by the dot-product kernel of np.dot, fused multiply-adds
            # included, as the per-ray formulas had it: a break one ulp off
            # moved boundary-barrier values sampled next to the kink by up to
            # 2e-8 relative
            d = x - centres
            b = np.vecdot(thetas[:, None, :], d)
            c = np.vecdot(d, d)[which] - R * R
            bs = b[:, which]
            root = np.sqrt(bs * bs - c)  # nan where the ray misses the sphere
            cols += [-b, -bs - root, -bs + root]
        if len(axes):
            cols.append((offsets - x[axes]) / thetas[:, axes])
        out = np.concatenate(cols, axis=1)
        return np.where(out > 0, out, np.inf)


def _decades(lo, hi):
    """The powers of ten strictly inside (lo, hi)."""
    out = []
    k = math.ceil(math.log10(lo) + 1e-12)
    while 10.0 ** k < hi * (1 - 1e-12):
        if 10.0 ** k > lo * (1 + 1e-12):
            out.append(10.0 ** k)
        k += 1
    return out


def panel_edges(lo, hi, breaks=()):
    """Panel edges of every ray in [lo, hi], for the (M, K) break array of
    ray_breaks (a flat list of breaks is one ray).

    Row k holds, sorted, lo, the decades and the breaks of row k strictly
    inside (lo, hi), and hi, each edge within relative 1e-10 of the last one
    kept merged into it, and the last edge set to hi; a range so short that
    hi merges into lo keeps the one panel [lo, hi].  Rows are padded with
    inf to a common width.
    """
    if not lo < hi:
        raise ValueError("empty radial range")
    breaks = np.atleast_2d(np.asarray(breaks, dtype=float))
    M = len(breaks)
    inside = (breaks > lo * (1 + _MERGE)) & (breaks < hi * (1 - _MERGE))
    fixed = [lo, *_decades(lo, hi), hi]
    fixed = np.broadcast_to(fixed, (M, len(fixed)))
    E = np.sort(np.concatenate([fixed, np.where(inside, breaks, np.inf)], axis=1), axis=1)
    # An edge is kept when it lies beyond the last edge kept before it.  The
    # guess "beyond the edge before it" differs only in chains of edges each
    # within 1e-10 of the next; iterating settles one more edge of such a
    # chain per pass.
    grow = 1 + _MERGE
    finite = E < np.inf
    keep = finite.copy()
    keep[:, 1:] &= E[:, 1:] > E[:, :-1] * grow
    while True:
        last = np.maximum.accumulate(np.where(keep, E, -np.inf), axis=1)
        settled = finite.copy()
        settled[:, 1:] &= E[:, 1:] > last[:, :-1] * grow
        if np.array_equal(settled, keep):
            break
        keep = settled
    edges = np.sort(np.where(keep, E, np.inf), axis=1)
    count = keep.sum(axis=1)
    edges[np.arange(M), np.maximum(count, 2) - 1] = hi
    return edges[:, :max(2, int(count.max()))]


class Panels(NamedTuple):
    """The panels of every ray of an edge array, in ray order: their ends a,
    b, the ends' logs sa, sb, the Simpson subinterval count m of each, and
    count, the number of panels of each ray."""

    a: np.ndarray
    b: np.ndarray
    sa: np.ndarray
    sb: np.ndarray
    m: np.ndarray
    count: np.ndarray

    def nodes(self):
        """The number of nodes polar_nodes puts on these panels."""
        return int(self.m.sum()) + len(self.m)

    def rays(self, block):
        """The panels of the rays in the slice block."""
        start = int(self.count[:block.start].sum())
        p = slice(start, start + int(self.count[block].sum()))
        return Panels(self.a[p], self.b[p], self.sa[p], self.sb[p], self.m[p],
                      self.count[block])


def ray_panels(edges, n_per_decade):
    """The Panels of every row of edges (panel_edges), with
    m = max(2, 2*ceil(n_per_decade*ln(b/a)/(2 ln 10))) subintervals on each
    panel [a, b]."""
    real = edges[:, 1:] < np.inf
    s = np.log(edges)
    a, b = edges[:, :-1][real], edges[:, 1:][real]
    sa, sb = s[:, :-1][real], s[:, 1:][real]
    m = np.maximum(2, 2 * np.ceil(n_per_decade * (sb - sa) / (2 * _LN10)))
    return Panels(a, b, sa, sb, m, real.sum(axis=1))


def polar_nodes(thetas, ang_w, panels):
    """Composite-Simpson polar nodes on the Panels of every ray.

    Each panel [a, b] gets its m subintervals of width ds in s = ln(rho),
    nodes s_a + j*ds with the two end nodes nudged into the panel, and
    weights (1, 4, 2, ..., 4, 1)*ds/3, times the ray's angular weight.
    Returns (Z, rho, w) as polar_rule does.
    """
    a, b, sa, sb, m, count = panels
    ds = (sb - sa) / m
    size = m.astype(np.intp) + 1
    last = np.cumsum(size) - 1
    first = last - (size - 1)
    j = np.arange(last[-1] + 1) - np.repeat(first, size)
    rho = np.exp(j * np.repeat(ds, size) + np.repeat(sa, size))
    rho[first] = a * (1 + _NUDGE)
    rho[last] = b * (1 - _NUDGE)
    w = np.where(j & 1, 4.0, 2.0)
    w[first] = w[last] = 1.0
    w *= np.repeat(ds / 3.0, size)
    per_ray = np.add.reduceat(size, np.cumsum(count) - count)
    Z = (rho * np.repeat(thetas.T, per_ray, axis=1)).T
    return Z, rho, np.repeat(ang_w, per_ray) * w


@functools.lru_cache(maxsize=32)
def shared_radial_nodes(edges, n_per_decade):
    """(rho, w) of polar_nodes on the panels between the given edges (a
    tuple; fewer than two give no nodes) for one ray of angular weight 1.
    These are the panels every ray around a point shares, from the inner
    radius out to the first break of one ray alone, so a few edge lists
    serve every evaluation; the arrays are cached read-only."""
    if len(edges) < 2:
        rho, w = np.empty(0), np.empty(0)
    else:
        panels = ray_panels(np.array([edges]), n_per_decade)
        _, rho, w = polar_nodes(np.ones((1, 1)), np.ones(1), panels)
    rho.flags.writeable = w.flags.writeable = False
    return rho, w


def radial_rule(lo, hi, n_per_decade, breakpoints=()):
    """Composite-Simpson nodes/weights for integral f(rho) d(rho)/rho.

    Returns (rho, w) with sum(w * f(rho)) approximating the integral over
    [lo, hi].  Node density is n_per_decade subintervals per factor of 10,
    with at least two subintervals per panel.  Nothing in the package calls
    it: it is polar_nodes on one ray, kept as the 1-D reference rule the
    tests and perfbench's tracer use by name.
    """
    panels = ray_panels(panel_edges(lo, hi, breakpoints), n_per_decade)
    _, rho, w = polar_nodes(np.ones((1, 1)), np.ones(1), panels)
    return rho, w


def polar_rule(N, n_angular, lo, hi, n_per_decade, radii=(), kinks=Kinks()):
    """Polar rule for integral over lo <= |z| <= hi of f(z) |z|^(-N) dz.

    Every ray theta of unit_directions(N, n_angular) carries the radial rule
    of radial_rule on its panel_edges, with breaks at the given radii and
    where the ray from the origin meets the kinks; all rays are built in one
    pass.  Returns (Z, rho, w): the offsets Z = rho*theta of shape (Q, N),
    their radii rho, and the combined weights (Simpson weight times angular
    weight), so that dot(w, f(Z)) approximates the integral.  Z is
    column-major: integrands work column by column over the Q nodes.
    """
    thetas, ang_w = unit_directions(N, n_angular)
    breaks = ray_breaks(np.zeros(N), thetas, kinks, radii)
    panels = ray_panels(panel_edges(lo, hi, breaks), n_per_decade)
    return polar_nodes(thetas, ang_w, panels)


@functools.lru_cache(maxsize=16)
def unit_directions(N, n_angular):
    """Quadrature directions and angular weights on the unit sphere.

    1-D: the two rays with weight 1 each (counting measure on S^0).
    2-D: uniform angles with the periodic-trapezoid weight 2*pi/M.
    Cached, so the arrays are read-only.
    """
    if N == 1:
        thetas, ang_w = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    elif N == 2:
        M = int(n_angular)
        phi = 2 * np.pi * np.arange(M) / M
        thetas, ang_w = np.column_stack([np.cos(phi), np.sin(phi)]), np.full(M, 2 * np.pi / M)
    else:
        raise ValueError("only dimensions 1 and 2 are supported")
    thetas.flags.writeable = ang_w.flags.writeable = False
    return thetas, ang_w
