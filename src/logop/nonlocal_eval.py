"""Pointwise evaluation of the singular integral operators.

Every operator here integrates a difference quotient (u(x)-u(y))/|y-x|^N
against a bounded kernel weight over a radial range; in polar coordinates
around x the volume factor rho^(N-1) cancels all but drho/rho, so the
canonical quadrature is composite Simpson in ln(rho) on panels aligned with
decade boundaries and with the integrand's breakpoints (see _quadrules).

Evaluation is organized around FieldFunction objects: the evaluate callable
must be total on R^N and vectorized over (m, N) batches, and fields that know
where their kinks and jumps live declare them through a breakpoints callback,
which is what keeps indicator-type barriers integrable at full Simpson order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quadrules, geometry, kernels
from .logmod import RHO0, ell

__all__ = [
    "QuadratureConfig",
    "FieldFunction",
    "const_field",
    "linear_field",
    "quadratic_field",
    "gaussian_field",
    "ell_profile_field",
    "shell_field",
    "box_field",
    "field_sum",
    "shift_field",
    "grid_field",
    "make_field",
    "eval_LK",
    "eval_loglap",
    "eval_J_conv",
    "eval_schrodinger",
    "eval_remainder",
    "sector_integral",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Log-radial quadrature resolution.

    n_radial counts Simpson subintervals per radial decade; n_angular counts
    uniform angles (2-D only); r_min is the inner truncation radius; oracle
    mode quadruples the node counts for use as an independent slow reference.
    """

    n_radial: int = 128
    n_angular: int = 16
    r_min: float = 1e-12
    mode: str = "fast"

    def __post_init__(self):
        if self.n_radial < 8:
            raise ValueError("n_radial must be at least 8 per decade")
        if self.n_angular < 8:
            raise ValueError("n_angular must be at least 8")
        if not 0 < self.r_min < RHO0:
            raise ValueError("r_min must lie in (0, 0.1)")
        if self.mode not in ("fast", "oracle"):
            raise ValueError("mode must be 'fast' or 'oracle'")

    def node_factor(self):
        return 4 if self.mode == "oracle" else 1

    def node_counts(self):
        """(angles, radial subintervals per decade) scaled by the mode."""
        f = self.node_factor()
        return self.n_angular * f, self.n_radial * f


@dataclass(frozen=True)
class FieldFunction:
    """An evaluable scalar field on R^N.

    support_radius None means the field is not compactly supported (such
    fields cannot appear under the far-field convolution).  breakpoints, when
    given, maps a quadrature base point and ray direction to the list of ray
    parameters where the field has a kink or jump.
    """

    evaluate: callable
    support_radius: float | None = None
    breakpoints: callable | None = None
    label: str = ""

    def ray_breaks(self, x, theta):
        if self.breakpoints is None:
            return []
        return list(self.breakpoints(x, theta))


def _radial_breaks(radii):
    """Ray breakpoints: the closest approach to the origin and the crossings
    of the spheres of the given radii."""
    radii = tuple(radii)

    def breaks(x, theta):
        out = _quadrules.closest_approach(x, theta)
        for R in radii:
            out += _quadrules.sphere_crossings(x, theta, R)
        return out

    return breaks


def const_field(c=1.0):
    c = float(c)
    return FieldFunction(
        evaluate=lambda Y: np.full(len(Y), c), label=f"const({c})"
    )


def linear_field(coef=None):
    """u(y) = coef . y (defaults to the first coordinate)."""

    def evaluate(Y):
        Y = np.atleast_2d(Y)
        if coef is None:
            return Y[:, 0].astype(float)
        return Y @ np.asarray(coef, dtype=float)

    return FieldFunction(evaluate=evaluate, label="linear")


def quadratic_field():
    """u(y) = |y|^2."""
    return FieldFunction(
        evaluate=lambda Y: np.sum(np.atleast_2d(Y) ** 2, axis=1), label="quadratic"
    )


def gaussian_field(sigma=math.sqrt(0.5)):
    """u(y) = exp(-|y|^2 / (2 sigma^2)); default sigma gives exp(-|y|^2)."""
    s2 = 2.0 * float(sigma) ** 2
    return FieldFunction(
        evaluate=lambda Y: np.exp(-np.sum(np.atleast_2d(Y) ** 2, axis=1) / s2),
        support_radius=40.0 * float(sigma),
        label=f"gaussian({sigma})",
    )


def ell_profile_field(alpha):
    """u(y) = ell^alpha(|y|); the profile saturating the seminorm quotients."""
    a = float(alpha)

    def evaluate(Y):
        rho = np.linalg.norm(np.atleast_2d(Y), axis=1)
        return ell(np.maximum(rho, 1e-300), a)

    return FieldFunction(
        evaluate=evaluate,
        breakpoints=_radial_breaks([RHO0]),
        label=f"ell_profile({alpha})",
    )


def shell_field(a, b):
    """Indicator of the closed radial shell a <= |y| <= b."""
    a, b = float(a), float(b)
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")

    def evaluate(Y):
        rho = np.linalg.norm(np.atleast_2d(Y), axis=1)
        return np.where((rho >= a) & (rho <= b), 1.0, 0.0)

    return FieldFunction(
        evaluate=evaluate,
        support_radius=b,
        breakpoints=_radial_breaks([a, b] if a > 0 else [b]),
        label=f"shell({a},{b})",
    )


def box_field(lo, hi):
    """Indicator of the axis-aligned closed box [lo, hi] (an interval in 1-D,
    e.g. box_field([2], [3]) for the indicator of [2, 3])."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("need lo < hi componentwise")

    def evaluate(Y):
        Y = np.atleast_2d(Y)
        inside = np.all((Y >= lo) & (Y <= hi), axis=1)
        return np.where(inside, 1.0, 0.0)

    def breaks(x, theta):
        # ray-parameter values where x + t*theta crosses a face plane
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = []
        for ax in range(len(lo)):
            if theta[ax] != 0.0:
                for plane in (lo[ax], hi[ax]):
                    t = (plane - x[ax]) / theta[ax]
                    if t > 0:
                        out.append(float(t))
        return out

    corners = np.array(np.meshgrid(*zip(lo, hi))).T.reshape(-1, len(lo))
    return FieldFunction(
        evaluate=evaluate,
        support_radius=float(np.max(np.linalg.norm(corners, axis=1))),
        breakpoints=breaks,
        label="box",
    )


def field_sum(terms):
    """Linear combination sum(c * f) of (coefficient, field) pairs."""
    terms = [(float(c), f) for c, f in terms]

    def evaluate(Y):
        Y = np.atleast_2d(Y)
        out = np.zeros(len(Y))
        for c, f in terms:
            out += c * f.evaluate(Y)
        return out

    def breaks(x, theta):
        out = []
        for _, f in terms:
            out += f.ray_breaks(x, theta)
        return out

    supports = [f.support_radius for _, f in terms]
    support = None if any(s is None for s in supports) else max(supports)
    return FieldFunction(
        evaluate=evaluate, support_radius=support, breakpoints=breaks, label="sum"
    )


def shift_field(f, x0):
    """The translate y -> f(y + x0)."""
    x0 = np.asarray(x0, dtype=float)

    def evaluate(Y):
        return f.evaluate(np.atleast_2d(Y) + x0)

    def breaks(x, theta):
        return f.ray_breaks(np.asarray(x, dtype=float) + x0, theta)

    support = None
    if f.support_radius is not None:
        support = f.support_radius + float(np.linalg.norm(x0))
    return FieldFunction(
        evaluate=evaluate,
        support_radius=support,
        breakpoints=breaks,
        label=f"shift({f.label})",
    )


def grid_field(u):
    """Wrap a GridFunction (zero outside the domain) as a field."""
    dom = u.grid.domain
    reach = dom.max_reach(np.zeros(dom.N))
    return FieldFunction(
        evaluate=lambda Y: geometry.interpolate_many(u, np.atleast_2d(Y)),
        support_radius=reach,
        label="grid",
    )


def make_field(name):
    """Parse a catalog field description like 'gaussian(0.5)' or 'const(2)'."""
    name = name.strip()
    if "(" in name:
        base, arg = name.split("(", 1)
        arg = arg.rstrip(")")
        args = [float(a) for a in arg.split(",")] if arg else []
    else:
        base, args = name, []
    base = base.strip()
    if base == "const":
        return const_field(*args) if args else const_field(1.0)
    if base == "linear":
        return linear_field()
    if base == "quadratic":
        return quadratic_field()
    if base == "gaussian":
        return gaussian_field(*args) if args else gaussian_field()
    if base == "ell_profile":
        if not args:
            raise ValueError("ell_profile requires an exponent argument")
        return ell_profile_field(args[0])
    if base == "shell":
        return shell_field(*args)
    if base == "box":
        if len(args) % 2 or not args:
            raise ValueError("box requires lo and hi coordinate lists")
        half = len(args) // 2
        return box_field(args[:half], args[half:])
    raise ValueError(f"unknown field {name!r}")


# --------------------------------------------------------------------------
# quadrature engine
# --------------------------------------------------------------------------


def _polar_sum(x, N, cfg, level, lo, hi, integrand, breaks_for_ray):
    """Polar quadrature around x over radii [lo, hi]: dot(w, integrand(Z,
    rho, Y)) with the offsets Z, radii rho and weights w of
    _quadrules.polar_rule for every ray at once and the points Y = x + Z.

    The integrand is called once per evaluation with all Q nodes; it returns
    the Q values of f(Y) whose integral against |Y - x|^(-N) dY is wanted.
    level scales the radial and angular node counts of cfg."""
    n_ang = max(4, int(round(cfg.n_angular * level)))
    n_rad = max(2, int(round(cfg.n_radial * level)))
    Z, rho, w = _quadrules.polar_rule(N, n_ang, lo, hi, n_rad, breaks_for_ray)
    return float(np.dot(w, integrand(Z, rho, x + Z)))


def _with_estimate(fn, cfg, return_estimate):
    level = float(cfg.node_factor())
    value = fn(level)
    if not np.isfinite(value):
        raise ValueError("quadrature produced a non-finite value")
    if not return_estimate:
        return value
    half = fn(level / 2)
    return value, abs(value - half)


def eval_LK(K, u, x, cfg, return_estimate=False):
    """The zero-order operator: integral over B_1(x) of
    (u(x) - u(y)) / |y-x|^N * K(x, y-x).

    The integrand must be Dini-continuous at x (put differently: u should be
    locally Lipschitz or a grid interpolant near x), which keeps the polar
    integrand bounded; no singularity subtraction is applied beyond the
    logarithmic grading.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    N = len(x)
    ux = float(u.evaluate(x[None, :])[0])
    kernel_breaks = list(K.radial_breakpoints)

    def integrand(Z, rho, Y):
        return (ux - u.evaluate(Y)) * K.evaluate(x, Z)

    def breaks(th):
        return u.ray_breaks(x, th) + kernel_breaks

    def run(level):
        return _polar_sum(x, N, cfg, level, cfg.r_min, 1.0, integrand, breaks)

    return _with_estimate(run, cfg, return_estimate)


def eval_J_conv(u, x, cfg, return_estimate=False):
    """Far-field convolution (J * u)(x) = integral over |y-x| >= 1 of
    u(y)/|y-x|^N; requires a declared bounded support."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    N = len(x)
    if u.support_radius is None:
        raise ValueError("J convolution requires a field with bounded support")
    r_out = float(np.linalg.norm(x)) + u.support_radius
    if r_out <= 1.0:
        return (0.0, 0.0) if return_estimate else 0.0

    def integrand(Z, rho, Y):
        return u.evaluate(Y)

    def breaks(th):
        return u.ray_breaks(x, th)

    def run(level):
        return _polar_sum(x, N, cfg, level, 1.0, r_out, integrand, breaks)

    return _with_estimate(run, cfg, return_estimate)


def eval_loglap(u, x, cfg, N, path="decomposition", return_estimate=False):
    """Logarithmic Laplacian at x.

    path='decomposition' composes c_N * L(K=1) - c_N * (J*u) + rho_N * u(x);
    path='direct' integrates (u(x) chi_{B_1(x)}(y) - u(y)) / |x-y|^N in one
    polar pass.  The two must agree up to quadrature error.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != N:
        raise ValueError("point dimension does not match N")
    consts = kernels.loglap_constants(N)
    ux = float(u.evaluate(x[None, :])[0])
    if u.support_radius is None:
        raise ValueError("the logarithmic Laplacian requires a declared support")
    if path == "decomposition":
        unit = kernels.unit_kernel()
        lk = eval_LK(unit, u, x, cfg, return_estimate=return_estimate)
        jc = eval_J_conv(u, x, cfg, return_estimate=return_estimate)
        if return_estimate:
            (v1, e1), (v2, e2) = lk, jc
            return consts.c_N * (v1 - v2) + consts.rho_N * ux, consts.c_N * (e1 + e2)
        return consts.c_N * (lk - jc) + consts.rho_N * ux
    if path != "direct":
        raise ValueError("path must be 'decomposition' or 'direct'")
    r_out = max(1.0 + 1e-6, float(np.linalg.norm(x)) + u.support_radius)

    def integrand(Z, rho, Y):
        vals = u.evaluate(Y)
        return np.where(rho < 1.0, ux - vals, -vals)

    def breaks(th):
        return u.ray_breaks(x, th) + [1.0]

    def run(level):
        core = _polar_sum(x, N, cfg, level, cfg.r_min, r_out, integrand, breaks)
        return consts.c_N * core + consts.rho_N * ux

    return _with_estimate(run, cfg, return_estimate)


def eval_schrodinger(u, x, cfg, N, return_estimate=False):
    """Logarithmic Schrodinger operator: the difference quotient integrated
    against the exponentially decaying Bessel weight over all of R^N."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != N:
        raise ValueError("point dimension does not match N")
    ux = float(u.evaluate(x[None, :])[0])
    if u.support_radius is None:
        r_out = 60.0
    else:
        r_out = max(40.0, float(np.linalg.norm(x)) + u.support_radius)

    def integrand(Z, rho, Y):
        return (ux - u.evaluate(Y)) * kernels.schrodinger_weight(rho, N)

    def breaks(th):
        return u.ray_breaks(x, th)

    def run(level):
        return _polar_sum(x, N, cfg, level, cfg.r_min, r_out, integrand, breaks)

    return _with_estimate(run, cfg, return_estimate)


def eval_remainder(Ki, u, x, cfg, return_estimate=False):
    """Mollification remainder: the difference quotient against K_i over the
    annulus B_{1+1/i} minus B_1 (where the mollified kernel leaks outside the
    unit ball)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    N = len(x)
    ux = float(u.evaluate(x[None, :])[0])
    hi = Ki.support_radius

    def integrand(Z, rho, Y):
        return (ux - u.evaluate(Y)) * Ki.evaluate(Z)

    def breaks(th):
        return u.ray_breaks(x, th)

    def run(level):
        return _polar_sum(x, N, cfg, level, 1.0, hi, integrand, breaks)

    return _with_estimate(run, cfg, return_estimate)


def sector_integral(r, d, N, cfg):
    """integral over B_r of |y - x|^(-N) dy for x at distance r + d from 0.

    The quantity that drives the boundary barrier: it grows like |ln d| as
    the evaluation point approaches the ball.  d must lie in (0, r^2).
    """
    r, d = float(r), float(d)
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    if not 0 < d < r * r:
        raise ValueError("d must lie in (0, r^2)")
    if N == 1:
        rho, w = _quadrules.radial_rule(d, d + 2 * r, cfg.node_counts()[1])
        return float(np.sum(w))
    if N != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    # Substitute sin(theta) = q sin(phi), q = r/(r+d): the angular integrand
    # of the chord integral becomes smooth up to phi = pi/2.
    c = r + d
    q = r / c
    m = 8 * cfg.node_counts()[0]
    phi = np.linspace(0.0, math.pi / 2, 2 * m + 1)
    sphi, cphi = np.sin(phi), np.cos(phi)
    ctheta = np.sqrt(1.0 - (q * sphi) ** 2)
    rho_plus = c * ctheta + r * cphi
    rho_minus = c * ctheta - r * cphi
    vals = np.log(rho_plus / np.maximum(rho_minus, 1e-300)) * q * cphi / ctheta
    w = np.full(len(phi), 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (math.pi / 2) / (2 * m) / 3.0
    return 2.0 * float(np.sum(w * vals))
