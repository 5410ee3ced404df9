"""Shared log-radial quadrature rules.

All singular integrals in this package reduce, per ray, to integrals against
the measure d(rho)/rho = d(ln rho).  The canonical rule is composite Simpson
in s = ln(rho), with panel edges at decade boundaries and at caller-declared
breakpoints (kernel support edges, indicator jumps, modulus kinks), so that
the integrand restricted to each panel is smooth.  Panel endpoints are nudged
into the panel interior by one part in 1e12 before the integrand is sampled,
which makes indicator-type integrands evaluate on the correct side of their
jumps at negligible cost for smooth integrands.
"""

from __future__ import annotations

import math

import numpy as np

_NUDGE = 1e-12
_LN10 = math.log(10.0)


def panel_edges(lo, hi, breakpoints=()):
    """Sorted panel edges in [lo, hi]: decades plus interior breakpoints."""
    if not lo < hi:
        raise ValueError("empty radial range")
    edges = {lo, hi}
    k = math.ceil(math.log10(lo) + 1e-12)
    while 10.0 ** k < hi * (1 - 1e-12):
        if 10.0 ** k > lo * (1 + 1e-12):
            edges.add(10.0 ** k)
        k += 1
    for b in breakpoints:
        if lo * (1 + 1e-10) < b < hi * (1 - 1e-10):
            edges.add(float(b))
    out = sorted(edges)
    # merge edges that collide up to relative 1e-10
    merged = [out[0]]
    for e in out[1:]:
        if e > merged[-1] * (1 + 1e-10):
            merged.append(e)
    if len(merged) == 1:  # hi itself collides with lo: keep one panel
        return [lo, hi]
    merged[-1] = hi
    return merged


def _simpson_panels(edge_lists, n_per_decade):
    """Composite-Simpson nodes and weights on the panels of every edge list,
    built in one pass.

    Each panel [a, b] gets m = max(2, 2*ceil(n_per_decade*ln(b/a)/(2 ln 10)))
    subintervals of width ds in s = ln(rho), nodes s_a + j*ds with the two end
    nodes nudged into the panel, and weights (1, 4, 2, ..., 4, 1)*ds/3.
    Returns (rho, w, counts) where counts[k] is the node count of list k.
    """
    a, b, sa, sb, panels = [], [], [], [], []
    for edges in edge_lists:
        s = [math.log(e) for e in edges]
        a += edges[:-1]
        b += edges[1:]
        sa += s[:-1]
        sb += s[1:]
        panels.append(len(edges) - 1)
    a, b, sa, sb = (np.array(v) for v in (a, b, sa, sb))
    m = np.maximum(2, 2 * np.ceil(n_per_decade * (sb - sa) / (2 * _LN10)))
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
    counts = np.add.reduceat(size, np.cumsum(panels) - panels)
    return rho, w, counts


def radial_rule(lo, hi, n_per_decade, breakpoints=()):
    """Composite-Simpson nodes/weights for integral f(rho) d(rho)/rho.

    Returns (rho, w) with sum(w * f(rho)) approximating the integral over
    [lo, hi].  Node density is n_per_decade subintervals per factor of 10,
    with at least two subintervals per panel.
    """
    rho, w, _ = _simpson_panels([panel_edges(lo, hi, breakpoints)], n_per_decade)
    return rho, w


def polar_rule(N, n_angular, lo, hi, n_per_decade, breaks_for_ray):
    """Polar rule for integral over lo <= |z| <= hi of f(z) |z|^(-N) dz.

    Every ray theta of unit_directions(N, n_angular) carries the radial rule
    of radial_rule on panel_edges(lo, hi, breaks_for_ray(theta)); all rays
    are built in one pass.  Returns (Z, rho, w): the offsets Z = rho*theta of
    shape (Q, N), their radii rho, and the combined weights (Simpson weight
    times angular weight), so that dot(w, f(Z)) approximates the integral.
    Z is column-major: integrands work column by column over the Q nodes.
    """
    thetas, ang_w = unit_directions(N, n_angular)
    edges = [panel_edges(lo, hi, breaks_for_ray(th)) for th in thetas]
    rho, w, counts = _simpson_panels(edges, n_per_decade)
    Z = (rho * np.repeat(thetas.T, counts, axis=1)).T
    return Z, rho, np.repeat(ang_w, counts) * w


def sphere_crossings(x, theta, radius):
    """Positive ray parameters rho with |x + rho*theta| = radius."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b = float(np.dot(x, theta))
    c = float(np.dot(x, x)) - radius * radius
    disc = b * b - c
    if disc < 0:
        return []
    root = math.sqrt(disc)
    return [t for t in (-b - root, -b + root) if t > 0]


def closest_approach(x, theta):
    """Ray parameter of the point closest to the origin (if ahead of x)."""
    t = -float(np.dot(np.asarray(x, float), np.asarray(theta, float)))
    return [t] if t > 0 else []


def unit_directions(N, n_angular):
    """Quadrature directions and angular weights on the unit sphere.

    1-D: the two rays with weight 1 each (counting measure on S^0).
    2-D: uniform angles with the periodic-trapezoid weight 2*pi/M.
    """
    if N == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if N == 2:
        M = int(n_angular)
        phi = 2 * np.pi * np.arange(M) / M
        thetas = np.column_stack([np.cos(phi), np.sin(phi)])
        return thetas, np.full(M, 2 * np.pi / M)
    raise ValueError("only dimensions 1 and 2 are supported")
