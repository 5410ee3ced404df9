"""Regularity exponents: least-squares slopes of ln q against ln ell(r).

Every exponent samples a quantity q > 0 at scales r in (0, 0.1), where ell is
not constant, and fits by `slope`, the package's one least-squares fit.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .logmod import RHO0, ell

__all__ = ["slope", "fit_exponent", "fit_second_order_exponent", "estimate_regularity"]


def slope(x, y):
    """Ordinary least-squares slope of y against x."""
    return float(np.polyfit(x, y, 1)[0])


def _usable(radii, quantities):
    """The samples an exponent fit keeps: radius in (0, RHO0), quantity > 0."""
    r, q = np.asarray(radii, dtype=float), np.asarray(quantities, dtype=float)
    keep = (r > 0) & (r < RHO0) & (q > 0)
    return r[keep], q[keep]


def fit_exponent(radii, oscillations):
    """Least-squares exponent: slope of ln(osc) against ln ell(r).

    Radii outside (0, 0.1) are dropped (the modulus is constant there), as are
    non-positive oscillations; at least three points must survive.
    """
    r, o = _usable(radii, oscillations)
    if len(r) < 3:
        raise ValueError("need at least three usable (radius, oscillation) points")
    return slope(np.log(ell(r)), np.log(o))


_DIRECTIONS = {
    1: np.array([[1.0]]),
    2: np.array([[1.0, 0.0], [0.0, 1.0],
                 [math.sqrt(0.5), math.sqrt(0.5)],
                 [math.sqrt(0.5), -math.sqrt(0.5)]]),
}


def _second_differences(u, center, radii):
    """sup_e |u(x+eps e) - 2u(x) + u(x-eps e)| at each eps of radii, or None
    when all of them vanish (a flat sample).  u is interpolated once, at
    every center +- eps*e and at the center."""
    center = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii > geometry.dist_to_boundary(u.grid.domain, center)):
        raise ValueError("all radii must keep the ball inside the domain")
    steps = radii[:, None, None] * _DIRECTIONS[center.size]
    pts = np.concatenate([center + steps, center - steps]).reshape(-1, center.size)
    vals = geometry.interpolate_many(u, np.vstack([pts, center]))
    vp, vm = vals[:-1].reshape(2, len(radii), -1)
    second = np.max(np.abs(vp + vm - 2 * vals[-1]), axis=1)
    scale = max(1.0, float(np.max(np.abs(u.values))))
    return None if np.all(second <= 1e-14 * scale) else second


def fit_second_order_exponent(u, center, radii):
    """Fit gamma with sup_e |u(x+eps e) - 2u(x) + u(x-eps e)| ~ C ell^gamma(eps).

    Returns inf when all second differences vanish (a flat sample); a very
    large fitted gamma means the function is smoother than any tested
    ell^gamma scale (e.g. a parabola, whose second differences are O(eps^2)).
    """
    second = _second_differences(u, center, radii)
    return math.inf if second is None else fit_exponent(radii, second)


def _halvings(top, floor):
    """The scale ladder top, top/2, top/4, ... down to floor."""
    rungs = []
    while top >= floor:
        rungs.append(top)
        top /= 2
    return rungs


def estimate_regularity(u, f_desc):
    """Fit the three regularity exponents of a solved grid function.

    alpha_global fits the oscillation of the zero-extension over balls centered
    at a boundary point; alpha_interior fits second differences at the domain
    center (reported as the fitted exponent minus one); alpha_boundary fits
    |u| against the log modulus of the boundary distance along the inward
    normal ray, discarding the two nodes nearest the boundary.  Each fit
    needs three usable scales, or a ValueError names the fit and f_desc.
    """
    domain, h = u.grid.domain, u.grid.h
    x0 = domain.boundary_point()

    def require(count, fit):
        if count < 3:
            raise ValueError(f"insufficient scales for the {fit} fit (rhs {f_desc!r});"
                             " refine the grid")

    dist = np.linalg.norm(u.grid.nodes - x0, axis=1)
    radii, oscs = [], []
    for r in _halvings(0.08, 3 * h):
        vals = u.values[dist < r]
        if len(vals) >= 2:
            # the ball crosses the boundary, so the exterior zero extension
            # always contributes to the oscillation
            oscs.append(max(float(vals.max()), 0.0) - min(float(vals.min()), 0.0))
            radii.append(r)
    require(len(_usable(radii, oscs)[0]), "global oscillation")
    alpha_global = fit_exponent(radii, oscs)

    center = domain.center
    d_center = float(geometry.dist_to_boundary(domain, center))
    int_radii = _halvings(min(0.08, 0.45 * d_center), 2 * h)[:6]
    require(len(int_radii), "interior")
    second = _second_differences(u, center, int_radii)
    if second is None:
        alpha_interior = math.inf  # a flat sample
    else:
        # some second differences may vanish where others do not (a kink
        # that only the wider scales reach)
        require(len(_usable(int_radii, second)[0]), "interior")
        alpha_interior = fit_exponent(int_radii, second) - 1.0

    nu = center - x0
    nu_norm = float(np.linalg.norm(nu))
    if nu_norm == 0.0:
        raise ValueError("degenerate domain: boundary point equals center")
    nu = nu / nu_norm
    j_max = int(min(0.1, nu_norm) / h)
    ts = h * np.arange(3, max(4, j_max))
    pts = x0 + ts[:, None] * nu
    d = geometry.dist_to_boundary(domain, pts)
    vals = np.abs(geometry.interpolate_many(u, pts))
    require(len(_usable(d, vals)[0]), "boundary")
    alpha_boundary = fit_exponent(d, vals)

    return {"alpha_global": alpha_global, "alpha_interior": alpha_interior,
            "alpha_boundary": alpha_boundary}
