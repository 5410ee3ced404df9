"""Bounded convex domains, boundary distance, lattice grids, multilinear interpolation.

Shapes are deliberately restricted to ball and box (an interval is a 1-D
box): both are convex, Lipschitz, and satisfy a uniform exterior ball
condition, so none of the boundary pathologies (re-entrant corners, cusps)
can occur.  Grid functions carry the zero-exterior convention: a value is
stored per interior node and every point outside the domain is implicitly
zero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "dist_to_boundary",
    "build_grid",
    "interpolate",
    "interpolate_many",
]

# Offsets per block of difference_projection.  A block's temporaries are
# 1-D arrays of at most 4096 doubles (32 KiB), below glibc's 128 KiB mmap
# threshold, so the heap reuses them for the next block and the next
# projection; arrays the size of a whole rule (Q = 24 928 offsets in 2-D)
# are mapped and faulted in afresh on every call.  Per solve-2d batch (five
# projections, 2 vCPU): 17-20 ms of projection in blocks of 1024 (per-block
# overhead), 10-12 ms in blocks of 2048, 6.5-9.3 ms in blocks of 4096 to
# 12 288 (~300 minor page faults), 12.8 ms in blocks of 16 384 and 14.9 ms
# in one block (2 600-3 600 faults).
_BLOCK_OFFSETS = 4096


def _one_or_many(cast):
    """Let f(owner, pts) of an (m,N) batch also take a single point (N,),
    for which it returns cast of the one value."""
    def decorate(f):
        @functools.wraps(f)
        def call(owner, x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return cast(f(owner, x[None, :])[0])
            return f(owner, x)
        return call
    return decorate


class Domain:
    """A bounded convex domain: ball(center,R) or box(lo,hi); interval(a,b) is
    the 1-D box [a, b]."""

    def __init__(self, shape, **params):
        if shape not in ("ball", "box"):
            raise ValueError(f"unknown domain shape {shape!r}")
        self.shape = shape
        if shape == "ball":
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
        return cls("box", lo=[a], hi=[b])

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

    @_one_or_many(bool)
    def contains(self, pts):
        """Open-set membership; works on a single point or an (m,N) batch."""
        if self.shape == "ball":
            return np.linalg.norm(pts - self.center_pt, axis=1) < self.radius
        return np.all((pts > self.lo) & (pts < self.hi), axis=1)

    @_one_or_many(float)
    def max_reach(self, pts):
        """Largest |y - x| over y in the closure of the domain; works on a
        single point or an (m,N) batch."""
        if self.shape == "ball":
            return np.linalg.norm(pts - self.center_pt, axis=1) + self.radius
        # the farthest corner takes the farther of lo and hi on every axis
        far = np.maximum(np.abs(pts - self.lo), np.abs(pts - self.hi))
        return np.linalg.norm(far, axis=1)

    def boundary_point(self):
        """A canonical boundary point (used by regularity fits)."""
        if self.shape == "ball":
            p = np.array(self.center_pt, dtype=float)
            p[0] += self.radius
            return p
        p = np.array(self.center, dtype=float)
        p[0] = self.hi[0]
        return p

    def __repr__(self):
        if self.shape == "ball":
            return f"Domain.ball({self.center_pt.tolist()}, {self.radius})"
        return f"Domain.box({self.lo.tolist()}, {self.hi.tolist()})"


@_one_or_many(float)
def dist_to_boundary(domain, pts):
    """Euclidean distance from x (interior or exterior) to the boundary.

    Vectorized over an (m,N) batch of points.
    """
    if domain.shape == "ball":
        return np.abs(domain.radius - np.linalg.norm(pts - domain.center_pt, axis=1))
    below = domain.lo - pts
    above = pts - domain.hi
    outside = np.maximum(np.maximum(below, above), 0.0)
    d_out = np.linalg.norm(outside, axis=1)
    d_in = np.min(np.minimum(pts - domain.lo, domain.hi - pts), axis=1)
    return np.where(d_out > 0, d_out, np.maximum(d_in, 0.0))


# eq=False: a grid holds arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform lattice strictly inside a domain, lexicographic node order."""

    domain: Domain
    h: float
    nodes: np.ndarray          # (n, N) float, lexicographically sorted
    lattice: np.ndarray        # (n, N) int, lattice coordinates of each node
    kmin: np.ndarray           # (N,) int, lattice lower corner
    dims: tuple                # lattice table shape per axis

    @property
    def n(self):
        return len(self.nodes)

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
    axes = [
        np.arange(
            math.ceil((domain.lo[i] - center[i]) / h - 1e-12),
            math.floor((domain.hi[i] - center[i]) / h + 1e-12) + 1,
        )
        for i in range(domain.N)
    ]
    # an ij meshgrid runs through the lattice in lexicographic order already
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, domain.N)
    pts = center + h * ks
    keep = domain.contains(pts)
    ks, pts = ks[keep], pts[keep]
    if len(pts) == 0:
        raise ValueError("grid is empty at this resolution")
    kmin = ks.min(axis=0)
    dims = tuple((ks.max(axis=0) - kmin + 1).tolist())
    return Grid(domain=domain, h=h, nodes=pts, lattice=ks, kmin=kmin, dims=dims)


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


def _cells(grid, Y):
    """Per axis, the lower corner (relative to kmin) of the lattice cell that
    holds each point of an (m,N) batch, and the point's offset in it."""
    t = (np.asarray(Y, dtype=float) - grid.domain.center) / grid.h
    base = np.floor(t).astype(np.int64)
    return (base - grid.kmin).T, (t - base).T


def _gather(table, idx_per_axis, fill):
    """Table lookup, with fill wherever an index is off the table."""
    valid = np.ones(idx_per_axis[0].shape, dtype=bool)
    clipped = []
    for size, idx in zip(table.shape, idx_per_axis):
        valid &= (idx >= 0) & (idx < size)
        clipped.append(np.clip(idx, 0, size - 1))
    return np.where(valid, table[tuple(clipped)], fill)


def _corners(grid, Y, table, fill):
    """The 2^N corners of the cell that holds each point of Y, first axis
    fastest: per corner, table there (fill off the table) and the
    multilinear factor of each axis."""
    base, frac = _cells(grid, Y)
    for shift in itertools.product((0, 1), repeat=grid.domain.N):
        shift = shift[::-1]
        factors = [f if s else 1 - f for s, f in zip(shift, frac)]
        yield _gather(table, [b + s for s, b in zip(shift, base)], fill), factors


def interpolate_many(u, Y):
    """Multilinear interpolation of a GridFunction at an (m,N) batch.

    Lattice neighbors outside the domain (holes in the grid) contribute zero,
    which realizes the zero-exterior contract; points farther than one cell
    from every node come out exactly zero.
    """
    terms = [
        functools.reduce(np.multiply, factors, value)
        for value, factors in _corners(u.grid, Y, u._table, 0.0)
    ]
    return functools.reduce(np.add, terms)


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
    node_id = np.full(grid.dims, -1)
    node_id[tuple((grid.lattice - grid.kmin).T)] = np.arange(grid.n)
    idx, wts = zip(*(
        (ids, functools.reduce(np.multiply, factors))
        for ids, factors in _corners(grid, Y, node_id, -1)
    ))
    return np.stack(idx, axis=1), np.stack(wts, axis=1)


def difference_projection(grid, offsets):
    """Projection of quadrature offsets onto the lattice differences of a
    grid, as (rows, vals): two (Q, 2^N) arrays.

    Every node sees the same offsets fall into the same lattice cells with
    the same multilinear weights (nodes are domain.center + h*Z^N); only the
    values weighting the offsets change from node to node.  rows[k] holds
    the flat indices, in the difference table padded by one cell on each
    side of every axis (shape 2*dims + 1), of the 2^N corners of the cell of
    offset k, in the order of itertools.product((0, 1), repeat=N), and
    vals[k] their multilinear weights.  So for one weight per offset,
    np.bincount(rows.ravel(), (vals * w[:, None]).ravel(), prod(2*dims + 1))
    is the flattened difference table, whose entry d + dims is what
    scatter_weights would deposit from `node_i + offsets` onto node j
    whenever lattice[j] - lattice[i] = d.  A corner beyond +-(dims - 1) on
    some axis cannot fall on a node of this grid: its index on that axis is
    clipped into the padding, which no node reads.  The table of the mirror
    images -offsets is this one reversed on every axis (the flat table
    reversed), up to the rounding of the cell fractions f and 1 - f:
    assembly projects one offset of each mirror pair and reverses the table
    for the other.  It projects only the offsets with |z| >= h: those inside
    the 2^N cells around the origin, most of a rule graded from r_min, enter
    through their radial moments (solver._origin_cells).

    Both arrays are filled _BLOCK_OFFSETS offsets at a time, allocated once
    at their final size, with one 1-D array per axis, so no temporary
    outgrows the heap (see _BLOCK_OFFSETS).
    """
    offsets = np.asarray(offsets, dtype=float)
    Q, N = offsets.shape
    span = [2 * d + 1 for d in grid.dims]
    stride = [math.prod(span[ax + 1:]) for ax in range(N)]
    corners = list(itertools.product((0, 1), repeat=N))
    # np.intp, what np.bincount reads without a converted copy
    rows = np.empty((Q, len(corners)), dtype=np.intp)
    vals = np.empty((Q, len(corners)))
    for start in range(0, Q, _BLOCK_OFFSETS):
        block = slice(start, start + _BLOCK_OFFSETS)
        at, weight = [], []
        for ax in range(N):
            frac = offsets[block, ax] / grid.h
            low = np.floor(frac)
            if not np.all(np.isfinite(low)):
                raise ValueError("non-finite quadrature offset")
            frac -= low
            # padded index of the lower corner, an exact integer in floating
            # point; a corner beyond the table is clipped into its padding
            low += grid.dims[ax]
            high = np.clip(low + 1, 0, span[ax] - 1)
            np.clip(low, 0, span[ax] - 1, out=low)
            at.append([k.astype(np.intp) * stride[ax] for k in (low, high)])
            weight.append([1 - frac, frac])
        for c, shift in enumerate(corners):
            r, v = rows[block, c], vals[block, c]
            r[...] = at[0][shift[0]]
            v[...] = weight[0][shift[0]]
            for ax in range(1, N):
                r += at[ax][shift[ax]]
                v *= weight[ax][shift[ax]]
    return rows, vals
