"""Chebyshev interpolation in the base point x of an x-dependent kernel's
stencils.

Collocation is linear in the kernel, so the stencil of node x_i is any
linear combination of stencils that reproduces the kernel at x_i: here the
Lagrange combination of the stencils at a tensor grid of Chebyshev-Lobatto
points spanning the nodes' bounding box, by the barycentric formula
(Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
ch. 5).  solver._lattice_matrix uses it to assemble an x-dependent kernel.
Only numpy is imported.
"""

from __future__ import annotations

import numpy as np

# the kernel is interpolated only where its samples and checks take at most
# this many full stencils per node
SAMPLE_SHARE = 0.25
# relative to max|S|: how closely the interpolant of degree p/2 must give the
# odd-indexed samples, and the interpolant the exact stencils at the checks;
# relative to the largest probed kernel value: how closely it must give the
# kernel at the probed offsets at every node
SAMPLE_RTOL = 1e-13
# where the checks sit among the nodes off the sample grid: no fraction is
# another's mirror image 1 - f, so an odd kernel cannot pass by symmetry
CHECK_AT = (0.1, 0.35, 0.6, 0.85)


def lobatto(p):
    """The p + 1 Chebyshev-Lobatto points cos(pi k / p), k = 0..p, in
    [-1, 1]: exact at -1, 0 and 1, and those of degree p/2 are the
    even-indexed ones of degree p bit for bit.  Degree 0 is the midpoint."""
    if p == 0:
        return np.zeros(1)
    return np.sin(np.pi * np.arange(p, -p - 1, -2) / (2 * p))


def lagrange(p, t):
    """(len(t), p + 1): the Lagrange basis of the degree-p Lobatto points at
    each t in [-1, 1], by the barycentric formula (weights (-1)^k, halved at
    both ends).  A t on a point gets that point's unit row."""
    if p == 0:
        return np.ones((len(t), 1))
    w = (-1.0) ** np.arange(p + 1)
    w[[0, -1]] *= 0.5
    d = t[:, None] - lobatto(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w / d
        c /= np.sum(c, axis=1, keepdims=True)
    on = np.any(d == 0.0, axis=1)
    c[on] = d[on] == 0.0
    return c


def _misfit(S, axis):
    """How far the samples S (Lobatto degrees along the leading axes, the
    table along the last) at the even indices along `axis`, of degree p/2,
    miss those at the odd indices when interpolated: the largest error."""
    S = np.moveaxis(S, axis, 0)
    p = len(S) - 1
    E = lagrange(p // 2, lobatto(p)[1::2])
    return np.max(np.abs(np.tensordot(E, S[::2], axes=1) - S[1::2]))


def sampled_stencils(nodes, h, size, stencils, probe):
    """(S, L): the stencils S (s, size) of an x-dependent kernel at a tensor
    grid of s Chebyshev-Lobatto points spanning the nodes' bounding box, and
    the Lagrange weights L (n, s) of those points at the nodes, so that
    L[i] @ S is node i's stencil.  stencils(X) gives the stencils at the
    base points X, one row each; probe(X) the kernel at a few fixed offsets
    at each base point.

    The degree p on each axis starts at 2.  An axis along which those three
    samples agree to SAMPLE_RTOL max|S| is taken at degree 0 (the middle
    sample alone).  Every other degree doubles, on the nested grids, while
    the samples of degree p/2 along that axis miss the odd-indexed ones by
    more than SAMPLE_RTOL max|S| (_misfit).  The interpolant is accepted
    only when it then gives the exact stencils at len(CHECK_AT) nodes, off
    every sample coordinate by h/8 and placed asymmetrically (an odd kernel
    on a symmetric grid passes the first test at degree 2), to the same
    tolerance, and the kernel at probe's offsets at every node to
    SAMPLE_RTOL of its largest value there.  The probe is what sees a
    feature in x narrower than the samples' spacing (a small inclusion);
    one that shows at none of those offsets, or lies between the nodes,
    goes unseen.

    None, and so every node's own stencil, when the samples and the checks
    would take more than SAMPLE_SHARE stencils per node, or twice the
    samples (a doubling takes the new ones beside them) and L more than
    n^2 entries, the matrix's own size, so that assembly stays within the
    16 n^2 bytes solver._check_dense_size reserves for the matrix and its
    LU copy; when the box is flat on an axis, a sample fails with an
    ArithmeticError or ValueError or is not finite, or a check fails."""
    n, N = nodes.shape
    lo, hi = np.min(nodes, axis=0), np.max(nodes, axis=0)
    mid, half = (lo + hi) / 2, (hi - lo) / 2

    def affordable(degrees):
        # s stencils, the new ones of a doubling beside them, and L
        s = np.prod(degrees + 1)
        return s <= SAMPLE_SHARE * n - len(CHECK_AT) and s * (2 * size + n) <= n * n

    def points(index, degrees):
        # the base points at tensor indices (m, N) of the Lobatto grid
        return mid + half * np.stack(
            [lobatto(degrees[a])[index[:, a]] for a in range(N)], axis=1)

    def sample(index, degrees):
        # the stencils there; None where evaluate fails (it may, at a point
        # outside the domain: a math domain error, a division by zero) or
        # gives a non-finite value.  The per-node path raises any such
        # failure at a node
        try:
            V = stencils(points(index, degrees))
        except (ArithmeticError, ValueError):
            return None
        return V if np.all(np.isfinite(V)) else None

    def grid(degrees):
        return np.indices(tuple(degrees + 1)).reshape(N, -1).T

    degrees = np.full(N, 2)
    if not (np.all(half > 0.0) and affordable(degrees)):
        return None
    S = sample(grid(degrees), degrees)
    if S is None:
        return None
    S = S.reshape(tuple(degrees + 1) + (size,))
    tol = SAMPLE_RTOL * np.max(np.abs(S))
    for a in range(N):
        if np.max(np.abs(S - np.take(S, [1], axis=a))) <= tol:
            S, degrees[a] = np.take(S, [1], axis=a), 0
    while True:
        tol = SAMPLE_RTOL * np.max(np.abs(S))
        coarse = np.array([degrees[a] > 0 and _misfit(S, a) > tol for a in range(N)])
        if not np.any(coarse):
            break
        fine = np.where(coarse, 2 * degrees, degrees)
        if not affordable(fine):
            return None
        kept = tuple(slice(None, None, 2) if c else slice(None) for c in coarse)
        fresh = np.ones(tuple(fine + 1), dtype=bool)
        fresh[kept] = False
        T = np.empty(tuple(fine + 1) + (size,))
        T[kept] = S
        S, degrees = T, fine  # the old samples freed before the new are taken
        V = sample(np.argwhere(fresh), fine)
        if V is None:
            return None
        S[fresh] = V
        del V  # freed before the next doubling's T
    S = S.reshape(-1, size)
    t = np.clip((nodes - mid) / half, -1.0, 1.0)
    L = lagrange(degrees[0], t[:, 0])
    for a in range(1, N):  # the tensor product, first axis slowest as in S
        L = (L[:, :, None] * lagrange(degrees[a], t[:, a])[:, None, :]).reshape(n, -1)
    off_grid = np.all(
        [np.min(np.abs(nodes[:, a, None] - (mid[a] + half[a] * lobatto(degrees[a]))), axis=1)
         > h / 8 for a in range(N)],
        axis=0,
    )
    eligible = np.flatnonzero(off_grid)
    if len(eligible) < len(CHECK_AT):
        return None
    check = eligible[(np.array(CHECK_AT) * len(eligible)).astype(int)]
    if not np.max(np.abs(L[check] @ S - stencils(nodes[check]))) <= tol:
        return None
    exact = probe(nodes)
    if not np.max(np.abs(L @ probe(points(grid(degrees), degrees)) - exact)) <= (
            SAMPLE_RTOL * np.max(np.abs(exact))):
        return None
    return S, L
