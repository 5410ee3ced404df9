"""Pointwise evaluation of the singular integral operators.

Every operator here integrates a difference quotient (u(x)-u(y))/|y-x|^N
against a bounded kernel weight over a radial range; in polar coordinates
around x the volume factor rho^(N-1) cancels all but drho/rho, so the
canonical quadrature is composite Simpson in ln(rho) on panels aligned with
decade boundaries and with the integrand's kinks and jumps (see _quadrules).

Each operator is defined once, as an _Operator record: _operator builds
those of L_K, the logarithmic Laplacian and the logarithmic Schrodinger
operator, which solver.assemble shares; J*u and the mollification remainder
build theirs in place.  Every eval_* applies its record through _apply.

Evaluation is organized around FieldFunction objects: the evaluate callable
must be total on R^N and vectorized over (m, N) batches, and fields that know
where their kinks and jumps live declare them as spheres and planes
(_quadrules.Kinks), which is what keeps indicator-type barriers integrable at
full Simpson order.  _quadrules.polar_sum turns the declarations into every
ray's breaks, integrates the panels every ray shares with one cached radial
rule, and the rest of each ray a block of rays at a time.  A weight of |z|
alone (a kernel's profile, the Schrodinger weight) is evaluated once per
radius, not once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quadrules, geometry, kernels
from ._quadrules import Kinks, radius, sphere_kinks
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
    "FIELDS",
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
    node_counts is the one place that scales the counts, by the mode and by
    the level of an evaluation (1, or 1/2 for its error estimate).
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

    def node_counts(self, level=1.0):
        """(angles, radial subintervals per decade) scaled by the mode and by
        level, at least 4 angles and 2 subintervals."""
        f = (4 if self.mode == "oracle" else 1) * level
        return max(4, round(self.n_angular * f)), max(2, round(self.n_radial * f))


@dataclass(frozen=True)
class FieldFunction:
    """An evaluable scalar field on R^N.

    support_radius None means the field is not compactly supported (such
    fields cannot appear under the far-field convolution).  kinks declares
    where the field has kinks or jumps, as spheres (with their centres) and
    axis planes; every quadrature ray around a base point gets a panel edge
    where it crosses one of them or passes closest to a sphere's centre.
    A field that declares none is integrated on decade panels alone.
    """

    evaluate: callable
    support_radius: float | None = None
    kinks: Kinks = Kinks()


def const_field(value=1.0):
    value = float(value)
    return FieldFunction(evaluate=lambda Y: np.full(len(Y), value))


def linear_field(coef=None):
    """u(y) = coef . y (defaults to the first coordinate)."""

    def evaluate(Y):
        Y = np.atleast_2d(Y)
        if coef is None:
            return Y[:, 0].astype(float)
        return Y @ np.asarray(coef, dtype=float)

    return FieldFunction(evaluate=evaluate)


def quadratic_field():
    """u(y) = |y|^2."""
    return FieldFunction(evaluate=lambda Y: radius(np.atleast_2d(Y), squared=True))


def gaussian_field(sigma=math.sqrt(0.5)):
    """u(y) = exp(-|y|^2 / (2 sigma^2)); default sigma gives exp(-|y|^2)."""
    s2 = 2.0 * float(sigma) ** 2
    return FieldFunction(
        evaluate=lambda Y: np.exp(-radius(np.atleast_2d(Y), squared=True) / s2),
        support_radius=40.0 * float(sigma),
    )


def ell_profile_field(alpha):
    """u(y) = ell^alpha(|y|); the profile saturating the seminorm quotients."""
    a = float(alpha)

    def evaluate(Y):
        rho = radius(np.atleast_2d(Y))
        return ell(np.maximum(rho, 1e-300), a)

    return FieldFunction(evaluate=evaluate, kinks=sphere_kinks([RHO0]))


def shell_field(a, b):
    """Indicator of the closed radial shell a <= |y| <= b."""
    a, b = float(a), float(b)
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")

    def evaluate(Y):
        rho = radius(np.atleast_2d(Y))
        return np.where((rho >= a) & (rho <= b), 1.0, 0.0)

    return FieldFunction(
        evaluate=evaluate,
        support_radius=b,
        kinks=sphere_kinks([a, b] if a > 0 else [b]),
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

    corners = np.array(np.meshgrid(*zip(lo, hi))).T.reshape(-1, len(lo))
    faces = tuple((ax, float(v)) for ax in range(len(lo)) for v in (lo[ax], hi[ax]))
    return FieldFunction(
        evaluate=evaluate,
        support_radius=float(np.max(radius(corners))),
        kinks=Kinks(planes=faces),
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

    supports = [f.support_radius for _, f in terms]
    support = None if any(s is None for s in supports) else max(supports)
    kinks = sum((f.kinks for _, f in terms), Kinks())
    return FieldFunction(evaluate=evaluate, support_radius=support, kinks=kinks)


def shift_field(f, x0):
    """The translate y -> f(y + x0)."""
    x0 = np.asarray(x0, dtype=float)

    def evaluate(Y):
        return f.evaluate(np.atleast_2d(Y) + x0)

    support = None
    if f.support_radius is not None:
        support = f.support_radius + float(np.linalg.norm(x0))
    return FieldFunction(evaluate=evaluate, support_radius=support, kinks=f.kinks.shifted(x0))


def grid_field(u):
    """Wrap a GridFunction (zero outside the domain) as a field."""
    dom = u.grid.domain
    reach = dom.max_reach(np.zeros(dom.N))
    return FieldFunction(
        evaluate=lambda Y: geometry.interpolate_many(u, np.atleast_2d(Y)),
        support_radius=reach,
    )


# The field catalog: name -> (constructor, the parameters a description gives
# it, in order).  make_field reads it, and so does the CLI's JSON form
# {"name": ..., parameter: value}; parameters left out take the constructor's
# defaults.
FIELDS = {
    "const": (const_field, ("value",)),
    "linear": (linear_field, ()),
    "quadratic": (quadratic_field, ()),
    "gaussian": (gaussian_field, ("sigma",)),
    "ell_profile": (ell_profile_field, ("alpha",)),
    "shell": (shell_field, ("a", "b")),
    "box": (box_field, ("lo", "hi")),
}


def make_field(name):
    """Parse a catalog field description like 'gaussian(0.5)', 'const(2)' or
    'box(0,0,1,1)'.  The numbers are shared out evenly over the field's
    FIELDS parameters, in order (box takes its lo, then its hi coordinates);
    a field given no numbers takes its constructor's defaults."""
    base, _, arg = name.strip().partition("(")
    base = base.strip()
    if base not in FIELDS:
        raise ValueError(f"unknown field {name!r}")
    make, params = FIELDS[base]
    arg = arg.rstrip(")")
    args = [float(a) for a in arg.split(",")] if arg.strip() else []
    wrong = ValueError(f"{name!r}: {base} takes the parameters {list(params)}")
    if args and (not params or len(args) % len(params)):
        raise wrong
    k = len(args) // len(params) if args else 0
    shares = [args[i * k:(i + 1) * k] for i in range(len(params))] if k else []
    try:
        return make(*[share[0] if k == 1 else share for share in shares])
    except TypeError as e:
        # a required parameter left out, or several numbers for a scalar one
        raise wrong from e


# --------------------------------------------------------------------------
# the operators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Operator:
    """One operator, as both the pointwise evaluators and solver.assemble
    read it:

        scale * integral over lo <= |z| <= hi of
            (c(z) u(x) - u(x+z)) * weight / |z|^N dz  +  const * u(x)

    with c = 1 on [lo, near] and c = 0 on [near, hi].  A weight of |z| alone
    is the profile: profile(|z|), evaluated once per radius of the rule.
    Any other weight is weight(x, z), evaluated at every node; with neither
    the weight is 1.  breaks lists the radii where the weight has kinks or
    jumps."""

    lo: float
    near: float
    hi: float
    weight: callable | None = None
    profile: callable | None = None
    breaks: tuple = ()
    scale: float = 1.0
    const: float = 0.0
    translation_invariant: bool = True

    def ranges(self):
        """The non-empty radial ranges (a, b, carries u(x)), [lo, near] first."""
        pairs = ((self.lo, self.near, True), (self.near, self.hi, False))
        return [(a, b, carry) for a, b, carry in pairs if a < b]


def _operator(name, N, r_min, reach, K=None):
    """The record of operator 'generic' (kernel K over B_1), 'loglap' or
    'schrodinger' in dimension N, integrated from r_min out to the radius
    reach beyond which u(x+z) vanishes."""
    if name == "generic":
        return _Operator(
            r_min, 1.0, 1.0,
            weight=K.evaluate if K.profile is None else None,
            profile=K.profile,
            breaks=K.radial_breakpoints,
            translation_invariant=K.translation_invariant,
        )
    if name == "loglap":
        # Chen-Weth splitting: c_N times (the difference quotient over B_1
        # minus J*u over |z| >= 1), plus rho_N u(x)
        c = kernels.loglap_constants(N)
        return _Operator(r_min, 1.0, max(1.0, reach), scale=c.c_N, const=c.rho_N)
    if name == "schrodinger":
        hi = max(40.0, reach)  # omega(40) / omega(0+) < 2e-16 for N <= 3
        return _Operator(
            r_min, hi, hi, profile=lambda rho: kernels.schrodinger_weight(rho, N)
        )
    raise ValueError(f"unknown operator {name!r}")


def _apply(op, u, x, cfg, return_estimate):
    """The operator op applied to u at x: one _quadrules.polar_sum per range.
    With return_estimate, also |value - value at half the node counts|."""
    ux = float(u.evaluate(x[None, :])[0])

    def integrand(carry):
        def f(Z, Y):
            diff = carry - u.evaluate(Y)
            return diff if op.weight is None else diff * op.weight(x, Z)
        return f

    def run(level):
        n_ang, n_rad = cfg.node_counts(level)
        total = 0.0
        for lo, hi, carries in op.ranges():
            f = integrand(ux if carries else 0.0)
            total += _quadrules.polar_sum(
                x, n_ang, n_rad, lo, hi, f, op.profile, u.kinks, op.breaks
            )
        return op.scale * total + op.const * ux

    value = run(1.0)
    if not np.isfinite(value):
        raise ValueError("quadrature produced a non-finite value")
    if not return_estimate:
        return value
    return value, abs(value - run(0.5))


def eval_LK(K, u, x, cfg, return_estimate=False):
    """The zero-order operator: integral over B_1(x) of
    (u(x) - u(y)) / |y-x|^N * K(x, y-x).

    The integrand must be Dini-continuous at x (put differently: u should be
    locally Lipschitz or a grid interpolant near x), which keeps the polar
    integrand bounded; no singularity subtraction is applied beyond the
    logarithmic grading.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    op = _operator("generic", len(x), cfg.r_min, None, K)
    return _apply(op, u, x, cfg, return_estimate)


def eval_J_conv(u, x, cfg, return_estimate=False):
    """Far-field convolution (J * u)(x) = integral over |y-x| >= 1 of
    u(y)/|y-x|^N; requires a declared bounded support."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if u.support_radius is None:
        raise ValueError("J convolution requires a field with bounded support")
    r_out = float(np.linalg.norm(x)) + u.support_radius
    if r_out <= 1.0:
        return (0.0, 0.0) if return_estimate else 0.0
    # minus the far range, which integrates -u(y)
    return _apply(_Operator(1.0, 1.0, r_out, scale=-1.0), u, x, cfg, return_estimate)


def eval_loglap(u, x, cfg, N, path="decomposition", return_estimate=False):
    """Logarithmic Laplacian at x.

    path='direct' applies the log-Laplacian's operator record: c_N times the
    difference quotient over B_1(x) minus c_N times the far field, each range
    with its own polar rule, plus rho_N * u(x).  path='decomposition' names
    the composition c_N * (eval_LK(K=1) - eval_J_conv) + rho_N * u(x); that
    is the same sum over the same ranges and rules, so both paths run the
    record and agree to the bit, value and estimate, and the decomposition
    checks nothing independently.  The estimate is |value - value at half
    the node counts| of the whole sum: adding the estimates of the two
    parts would overstate it wherever their errors cancel in the sum.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != N:
        raise ValueError("point dimension does not match N")
    if u.support_radius is None:
        raise ValueError("the logarithmic Laplacian requires a declared support")
    if path not in ("decomposition", "direct"):
        raise ValueError("path must be 'decomposition' or 'direct'")
    op = _operator("loglap", N, cfg.r_min, float(np.linalg.norm(x)) + u.support_radius)
    return _apply(op, u, x, cfg, return_estimate)


def eval_schrodinger(u, x, cfg, N, return_estimate=False):
    """Logarithmic Schrodinger operator: the difference quotient integrated
    against the exponentially decaying Bessel weight over all of R^N (a field
    without declared support is integrated out to radius 60)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != N:
        raise ValueError("point dimension does not match N")
    reach = 60.0
    if u.support_radius is not None:
        reach = float(np.linalg.norm(x)) + u.support_radius
    op = _operator("schrodinger", N, cfg.r_min, reach)
    return _apply(op, u, x, cfg, return_estimate)


def eval_remainder(Ki, u, x, cfg, return_estimate=False):
    """Mollification remainder: the difference quotient against K_i over the
    annulus B_{1+1/i} minus B_1 (where the mollified kernel leaks outside the
    unit ball)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    hi = Ki.support_radius
    op = _Operator(
        1.0, hi, hi,
        weight=lambda x, Z: Ki.evaluate(Z),
        breaks=Ki.radial_breakpoints,
    )
    return _apply(op, u, x, cfg, return_estimate)


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
        # the chord is [d, d + 2r] on one side of x: integral of d(rho)/rho
        return math.log((d + 2 * r) / d)
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
