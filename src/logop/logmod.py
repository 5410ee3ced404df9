"""Truncated logarithmic modulus and exponent fits against it.

The modulus ell(rho) = |ln(min(rho, 0.1))|^(-1) replaces the power moduli of
classical Hölder theory everywhere in this package: the barrier fields and
kernel probes are built from powers of ell, and the exponent-fitting
diagnostics run ordinary least squares in (ln ell(r), ln osc) coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry

RHO0 = 0.1          # truncation cutoff of the modulus

__all__ = [
    "RHO0",
    "ell",
    "fit_exponent",
    "fit_second_order_exponent",
]


def ell(rho, alpha=1.0):
    """Truncated logarithmic modulus |ln(min(rho, 0.1))|^(-alpha).

    Nondecreasing and concave in rho, constant equal to (ln 10)^(-alpha) on
    [0.1, oo), and tending to 0 as rho -> 0+.  alpha = 0 returns 1.
    Vectorized; raises ValueError on non-positive rho.
    """
    arr = np.asarray(rho, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("ell requires rho > 0")
    out = np.abs(np.log(np.minimum(arr, RHO0))) ** (-alpha)
    if np.isscalar(rho) or arr.ndim == 0:
        return float(out)
    return out


def fit_exponent(radii, oscillations):
    """Least-squares exponent: slope of ln(osc) against ln ell(r).

    Radii outside (0, 0.1) are dropped (the modulus is constant there), as are
    non-positive oscillations; at least three points must survive.
    """
    r = np.asarray(radii, dtype=float)
    o = np.asarray(oscillations, dtype=float)
    keep = (r > 0) & (r < RHO0) & (o > 0)
    r, o = r[keep], o[keep]
    if len(r) < 3:
        raise ValueError("need at least three usable (radius, oscillation) points")
    x = np.log(ell(r))
    y = np.log(o)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


_DIRECTIONS = {
    1: np.array([[1.0]]),
    2: np.array([[1.0, 0.0], [0.0, 1.0],
                 [math.sqrt(0.5), math.sqrt(0.5)],
                 [math.sqrt(0.5), -math.sqrt(0.5)]]),
}


def fit_second_order_exponent(u, grid, center, radii):
    """Fit gamma with sup_e |u(x+eps e) - 2u(x) + u(x-eps e)| ~ C ell^gamma(eps).

    Returns inf when all second differences vanish (a flat sample); a very
    large fitted gamma means the function is smoother than any tested
    ell^gamma scale (e.g. a parabola, whose second differences are O(eps^2)).
    """
    center = np.asarray(center, dtype=float)
    dctr = geometry.dist_to_boundary(grid.domain, center)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii > dctr):
        raise ValueError("all radii must keep the ball inside the domain")
    dirs = _DIRECTIONS[grid.domain.N]
    second = []
    for eps in radii:
        pts_p = center + eps * dirs
        pts_m = center - eps * dirs
        vp = geometry.interpolate_many(u, pts_p)
        vm = geometry.interpolate_many(u, pts_m)
        v0 = geometry.interpolate(u, center)
        second.append(float(np.max(np.abs(vp + vm - 2 * v0))))
    second = np.asarray(second)
    scale = max(1.0, float(np.max(np.abs(u.values))))
    if np.all(second <= 1e-14 * scale):
        return math.inf
    return fit_exponent(radii, second)
