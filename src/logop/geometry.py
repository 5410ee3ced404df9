"""Bounded convex domains, boundary distance, lattice grids, multilinear interpolation.

Shapes are deliberately restricted to interval / ball / box: all three are
convex, Lipschitz, and satisfy a uniform exterior ball condition, so none of
the boundary pathologies (re-entrant corners, cusps) can occur.  Grid
functions carry the zero-exterior convention: a value is stored per interior
node and every point outside the domain is implicitly zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "dist_to_boundary",
    "exterior_ball_radius",
    "build_grid",
    "interpolate",
    "interpolate_many",
]


class Domain:
    """A bounded convex domain: interval(a,b), ball(center,R) or box(lo,hi)."""

    def __init__(self, shape, **params):
        if shape not in ("interval", "ball", "box"):
            raise ValueError(f"unknown domain shape {shape!r}")
        self.shape = shape
        if shape == "interval":
            a, b = float(params["a"]), float(params["b"])
            if not a < b:
                raise ValueError("interval requires a < b")
            self.a, self.b = a, b
            self.lo = np.array([a])
            self.hi = np.array([b])
        elif shape == "ball":
            self.center_pt = np.atleast_1d(np.asarray(params["center"], dtype=float))
            self.radius = float(params["radius"])
            if self.radius <= 0:
                raise ValueError("ball requires radius > 0")
            self.lo = self.center_pt - self.radius
            self.hi = self.center_pt + self.radius
        else:
            self.lo = np.atleast_1d(np.asarray(params["lo"], dtype=float))
            self.hi = np.atleast_1d(np.asarray(params["hi"], dtype=float))
            if self.lo.shape != self.hi.shape or not np.all(self.lo < self.hi):
                raise ValueError("box requires lo < hi componentwise")
        self.N = len(self.lo)
        if self.N not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")

    # -- constructors ------------------------------------------------------

    @classmethod
    def interval(cls, a, b):
        return cls("interval", a=a, b=b)

    @classmethod
    def ball(cls, center, radius):
        return cls("ball", center=center, radius=radius)

    @classmethod
    def box(cls, lo, hi):
        return cls("box", lo=lo, hi=hi)

    # -- basic geometry ----------------------------------------------------

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def diameter(self):
        if self.shape == "ball":
            return 2.0 * self.radius
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, x):
        """Open-set membership; works on a single point or an (m,N) batch."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if self.shape == "ball":
            inside = np.linalg.norm(pts - self.center_pt, axis=1) < self.radius
        else:
            inside = np.all((pts > self.lo) & (pts < self.hi), axis=1)
        return bool(inside[0]) if single else inside

    def max_reach(self, x):
        """Largest |y - x| over y in the closure of the domain; works on a
        single point or an (m,N) batch."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if self.shape == "ball":
            reach = np.linalg.norm(pts - self.center_pt, axis=1) + self.radius
        else:
            # the farthest corner takes the farther of lo and hi on every axis
            far = np.maximum(np.abs(pts - self.lo), np.abs(pts - self.hi))
            reach = np.linalg.norm(far, axis=1)
        return float(reach[0]) if single else reach

    def boundary_point(self):
        """A canonical boundary point (used by regularity fits)."""
        if self.shape == "interval":
            return np.array([self.b])
        if self.shape == "ball":
            p = np.array(self.center_pt, dtype=float)
            p[0] += self.radius
            return p
        p = np.array(self.center, dtype=float)
        p[0] = self.hi[0]
        return p

    def inradius(self):
        if self.shape == "ball":
            return self.radius
        return float(np.min(0.5 * (self.hi - self.lo)))

    def __repr__(self):
        if self.shape == "interval":
            return f"Domain.interval({self.a}, {self.b})"
        if self.shape == "ball":
            return f"Domain.ball({self.center_pt.tolist()}, {self.radius})"
        return f"Domain.box({self.lo.tolist()}, {self.hi.tolist()})"


def dist_to_boundary(domain, x):
    """Euclidean distance from x (interior or exterior) to the boundary.

    Vectorized over an (m,N) batch of points.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if domain.shape == "interval":
        d = np.minimum(np.abs(pts[:, 0] - domain.a), np.abs(pts[:, 0] - domain.b))
    elif domain.shape == "ball":
        d = np.abs(domain.radius - np.linalg.norm(pts - domain.center_pt, axis=1))
    else:
        below = domain.lo - pts
        above = pts - domain.hi
        outside = np.maximum(np.maximum(below, above), 0.0)
        d_out = np.linalg.norm(outside, axis=1)
        d_in = np.min(np.minimum(pts - domain.lo, domain.hi - pts), axis=1)
        d = np.where(d_out > 0, d_out, np.maximum(d_in, 0.0))
    return float(d[0]) if single else d


def exterior_ball_radius(domain):
    """Largest uniform exterior-ball radius.

    Every shipped shape is convex, so an exterior half-space (a ball of any
    radius) touches each boundary point; the radius is unbounded.
    """
    return math.inf


@dataclass(frozen=True)
class Grid:
    """Uniform lattice strictly inside a domain, lexicographic node order."""

    domain: Domain
    h: float
    nodes: np.ndarray          # (n, N) float, lexicographically sorted
    lattice: np.ndarray        # (n, N) int, lattice coordinates of each node
    kmin: np.ndarray           # (N,) int, lattice lower corner
    dims: tuple                # lattice table shape per axis
    node_index: np.ndarray = field(repr=False)  # dense lattice -> node id (-1 hole)

    @property
    def n(self):
        return len(self.nodes)

    @property
    def anchor(self):
        return self.domain.center

    def value_table(self, values):
        """Dense lattice table of nodal values with zeros in the holes."""
        table = np.zeros(self.dims, dtype=float)
        flat = table.reshape(-1)
        idx = np.ravel_multi_index((self.lattice - self.kmin).T, self.dims)
        flat[idx] = values
        return table


def build_grid(domain, h):
    """Lattice nodes (domain center + h*Z^N) strictly inside the domain."""
    h = float(h)
    if h <= 0:
        raise ValueError("h must be positive")
    if h >= domain.diameter / 4:
        raise ValueError(f"h={h} too coarse for domain of diameter {domain.diameter}")
    center = domain.center
    axes = []
    for i in range(domain.N):
        klo = math.ceil((domain.lo[i] - center[i]) / h - 1e-12)
        khi = math.floor((domain.hi[i] - center[i]) / h + 1e-12)
        axes.append(np.arange(klo, khi + 1))
    if domain.N == 1:
        ks = axes[0][:, None]
    else:
        k1, k2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        ks = np.column_stack([k1.ravel(), k2.ravel()])
    pts = center + h * ks
    keep = domain.contains(pts)
    ks, pts = ks[keep], pts[keep]
    if len(pts) == 0:
        raise ValueError("grid is empty at this resolution")
    order = np.lexsort(tuple(pts[:, i] for i in reversed(range(domain.N))))
    ks, pts = ks[order], pts[order]
    kmin = ks.min(axis=0)
    dims = tuple((ks.max(axis=0) - kmin + 1).tolist())
    node_index = -np.ones(dims, dtype=np.int64)
    node_index.reshape(-1)[np.ravel_multi_index((ks - kmin).T, dims)] = np.arange(
        len(pts)
    )
    return Grid(
        domain=domain,
        h=h,
        nodes=pts,
        lattice=ks,
        kmin=kmin,
        dims=dims,
        node_index=node_index,
    )


class GridFunction:
    """Nodal values on a grid, implicitly zero everywhere outside the domain."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError("values length must match the node count")
        self.grid = grid
        self.values = values
        self._table = grid.value_table(values)

    def __call__(self, y):
        return interpolate(self, y)


def _gather(table, idx_per_axis):
    """Table lookup with out-of-range indices mapped to zero."""
    dims = table.shape
    valid = np.ones(idx_per_axis[0].shape, dtype=bool)
    clipped = []
    for ax, idx in enumerate(idx_per_axis):
        valid &= (idx >= 0) & (idx < dims[ax])
        clipped.append(np.clip(idx, 0, dims[ax] - 1))
    vals = table[tuple(clipped)]
    return np.where(valid, vals, 0.0)


def interpolate_many(u, Y):
    """Multilinear interpolation of a GridFunction at an (m,N) batch.

    Lattice neighbors outside the domain (holes in the grid) contribute zero,
    which realizes the zero-exterior contract; points farther than one cell
    from every node come out exactly zero.
    """
    grid = u.grid
    Y = np.asarray(Y, dtype=float)
    t = (Y - grid.anchor) / grid.h
    base = np.floor(t).astype(np.int64)
    frac = t - base
    base -= grid.kmin
    table = u._table
    if grid.domain.N == 1:
        b = base[:, 0]
        f = frac[:, 0]
        return (1 - f) * _gather(table, (b,)) + f * _gather(table, (b + 1,))
    b1, b2 = base[:, 0], base[:, 1]
    f1, f2 = frac[:, 0], frac[:, 1]
    v00 = _gather(table, (b1, b2))
    v10 = _gather(table, (b1 + 1, b2))
    v01 = _gather(table, (b1, b2 + 1))
    v11 = _gather(table, (b1 + 1, b2 + 1))
    return (
        v00 * (1 - f1) * (1 - f2)
        + v10 * f1 * (1 - f2)
        + v01 * (1 - f1) * f2
        + v11 * f1 * f2
    )


def interpolate(u, y):
    """Multilinear interpolation at a single point."""
    y = np.asarray(y, dtype=float)
    return float(interpolate_many(u, y[None, :])[0])


def scatter_weights(grid, Y):
    """Node ids and multilinear weights for a batch of points.

    Returns (idx, wts) with shape (m, 2^N); idx is -1 wherever the stencil
    corner is outside the grid (those weights multiply the implicit zero).
    Assembly no longer calls it: it projects once through
    difference_projection.  It stays as the per-node reference the tests
    check that projection against (and the benchmark tracer wraps it by
    name).
    """
    Y = np.asarray(Y, dtype=float)
    t = (Y - grid.anchor) / grid.h
    base = np.floor(t).astype(np.int64)
    frac = t - base
    base -= grid.kmin
    node_index = grid.node_index
    dims = grid.dims

    def look(idx_per_axis):
        valid = np.ones(idx_per_axis[0].shape, dtype=bool)
        clipped = []
        for ax, idx in enumerate(idx_per_axis):
            valid &= (idx >= 0) & (idx < dims[ax])
            clipped.append(np.clip(idx, 0, dims[ax] - 1))
        got = node_index[tuple(clipped)]
        return np.where(valid, got, -1)

    if grid.domain.N == 1:
        b = base[:, 0]
        f = frac[:, 0]
        idx = np.stack([look((b,)), look((b + 1,))], axis=1)
        wts = np.stack([1 - f, f], axis=1)
        return idx, wts
    b1, b2 = base[:, 0], base[:, 1]
    f1, f2 = frac[:, 0], frac[:, 1]
    idx = np.stack(
        [look((b1, b2)), look((b1 + 1, b2)), look((b1, b2 + 1)), look((b1 + 1, b2 + 1))],
        axis=1,
    )
    wts = np.stack(
        [(1 - f1) * (1 - f2), f1 * (1 - f2), (1 - f1) * f2, f1 * f2], axis=1
    )
    return idx, wts


def difference_projection(grid, offsets):
    """Sparse projection of quadrature offsets onto the lattice differences
    of a grid.

    Every node sees the same offsets fall into the same lattice cells with
    the same multilinear weights (nodes are anchor + h*Z^N); only the values
    weighting the offsets change from node to node.  So for one weight per
    offset, `P @ w` is the flattened table (shape 2*dims - 1) whose entry
    d + (dims - 1) is what scatter_weights would deposit from
    `node_i + offsets` onto node j whenever lattice[j] - lattice[i] = d.
    Column k of P holds the weights of offset k at its 2^N cell corners;
    corners beyond +-(dims - 1) cannot fall on a node of this grid and are
    dropped.
    """
    # imported here: only assembly projects, and the pointwise evaluators
    # should not pay for loading scipy.sparse
    from scipy import sparse

    dims = np.asarray(grid.dims)
    span = tuple((2 * dims - 1).tolist())
    t = np.asarray(offsets, dtype=float) / grid.h
    floor = np.floor(t)
    frac = t - floor
    base = floor.astype(np.int64) + (dims - 1)
    shifts = list(itertools.product((0, 1), repeat=grid.domain.N))
    rows = np.empty((len(t), len(shifts)), dtype=np.int64)
    vals = np.empty((len(t), len(shifts)))
    keep = np.empty((len(t), len(shifts)), dtype=bool)
    for c, shift in enumerate(shifts):
        k = base + shift
        keep[:, c] = np.all((k >= 0) & (k < span), axis=1)
        rows[:, c] = np.ravel_multi_index(k.T, span, mode="clip")
        vals[:, c] = np.prod(np.where(shift, frac, 1 - frac), axis=1)
    indptr = np.zeros(len(t) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sparse.csc_array(
        (vals[keep], rows[keep], indptr), shape=(math.prod(span), len(t))
    )
