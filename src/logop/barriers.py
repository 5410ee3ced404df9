"""Explicit barrier fields and their numerical verifiers.

Each verifier samples the relevant region with a fixed low-discrepancy rule
(32 points per scale, golden-ratio radial placement), evaluates the operator
on the barrier by quadrature, and reports the empirical constant of the
inequality being checked.  The verifiers demonstrate existence-with-margin at
the sampled scales; they do not compute sharp universal constants.
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrules import radius, sphere_kinks
from .logmod import RHO0, ell
from .nonlocal_eval import (
    FieldFunction,
    eval_LK,
    field_sum,
    sector_integral,
    shell_field,
)

__all__ = [
    "SAMPLES_PER_SCALE",
    "boundary_barrier_field",
    "bump_field",
    "tail_field",
    "exponential_field",
    "composite_barrier_field",
    "log_modulus_measure",
    "gain_shell",
    "sample_annulus",
    "verify_boundary_barrier",
    "verify_bump",
    "verify_gain",
    "verify_tail",
    "verify_exponential",
    "verify_composite",
    "verify_sector",
]

SAMPLES_PER_SCALE = 32
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0
_OMEGA = {1: 2.0, 2: 2.0 * math.pi}  # boundary measure of the unit sphere


def boundary_barrier_field(r, alpha):
    """phi(x) = ell^alpha((|x| - r)_+): zero on the closed ball B_r, growing
    with the log modulus of the distance to it."""
    r, alpha = float(r), float(alpha)

    def evaluate(Y):
        t = radius(np.atleast_2d(Y)) - r
        return np.where(t > 0, ell(np.maximum(t, 1e-300), alpha), 0.0)

    return FieldFunction(evaluate=evaluate, kinks=sphere_kinks([r, r + RHO0]))


def bump_field(r):
    """Radial bump: 1 on B_{r/2}, 0 outside B_r, profile exp(1 - 1/(1-t^2))
    in the clamped variable t = (2|x|/r - 1)_+."""
    r = float(r)

    def evaluate(Y):
        rho = radius(np.atleast_2d(Y))
        t = np.clip(2.0 * rho / r - 1.0, 0.0, 1.0)
        inside = t < 1.0
        tt = np.where(inside, t, 0.0)
        with np.errstate(divide="ignore"):
            vals = np.exp(1.0 - 1.0 / np.maximum(1.0 - tt * tt, 1e-300))
        return np.where(inside, vals, 0.0)

    return FieldFunction(
        evaluate=evaluate,
        support_radius=r,
        kinks=sphere_kinks([r / 2, r]),
    )


def tail_field(rho, alpha):
    """t(x) = (ell^alpha(|x|) - ell^alpha(rho))_+: zero on B_rho, bounded by
    the plateau value of the modulus."""
    rho, alpha = float(rho), float(alpha)
    offset = float(ell(rho, alpha))

    def evaluate(Y):
        rr = radius(np.atleast_2d(Y))
        return np.maximum(ell(np.maximum(rr, 1e-300), alpha) - offset, 0.0)

    return FieldFunction(evaluate=evaluate, kinks=sphere_kinks([rho, RHO0]))


def exponential_field(alpha):
    """phi(x) = exp(-alpha * x_N) (last coordinate)."""
    alpha = float(alpha)
    return FieldFunction(evaluate=lambda Y: np.exp(-alpha * np.atleast_2d(Y)[:, -1]))


def composite_barrier_field(rho, alpha, gain_set):
    """The oscillation-diminishing barrier: a scaled bump on B_{2 rho^2},
    plus half the modulus gap on the gain set, minus the tail."""
    rho, alpha = float(rho), float(alpha)
    c_bump = float(ell(rho, alpha) - ell(rho * rho, alpha))
    c_gain = float(ell(rho, alpha)) / 2.0
    return field_sum(
        [
            (c_bump, bump_field(2.0 * rho * rho)),
            (c_gain, gain_set),
            (-1.0, tail_field(rho, alpha)),
        ]
    )


# --------------------------------------------------------------------------
# the weighted radial measure mu(dx) = ell(|x|) |x|^{-N} dx
# --------------------------------------------------------------------------


def log_modulus_measure(a, b, N):
    """mu([a, b]) = omega_N * integral of ell(t)/t over [a, b], in closed form:
    ln ell is an antiderivative of ell(t)/t below the plateau."""
    a, b = float(a), float(b)
    if not 0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if N not in _OMEGA:
        raise ValueError("only dimensions 1 and 2 are supported")
    val = 0.0
    if a < RHO0:
        val += math.log(ell(min(b, RHO0)) / ell(a))
    if b > RHO0:
        val += ell(RHO0) * math.log(b / max(a, RHO0))
    return _OMEGA[N] * val


def gain_shell(rho, fraction, N):
    """Radial shell A = {3 rho^2 <= |x| <= b} inside B_rho carrying the given
    mu-fraction of the full annulus; returns (field, mu(A), mu(annulus))."""
    rho = float(rho)
    fraction = float(fraction)
    a = 3.0 * rho * rho
    if a >= rho:
        raise ValueError("rho must be below 1/3 so the annulus is nonempty")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    total = log_modulus_measure(a, rho, N)
    target = fraction * total
    lo, hi = a, rho
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_modulus_measure(a, mid, N) < target:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi) if fraction < 1 else rho
    return shell_field(a, b), log_modulus_measure(a, b, N), total


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


def sample_annulus(n, N, r_lo, r_hi, phase=0.0):
    """n low-discrepancy points with radii strictly inside (r_lo, r_hi):
    golden-ratio fractions for the radius, silver-ratio angles in 2-D,
    alternating signs in 1-D.  Deterministic."""
    if N not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    k = np.arange(1, n + 1, dtype=float)
    t = np.mod(phase + 0.5 + k * _GOLDEN, 1.0)
    radii = r_lo + (r_hi - r_lo) * (0.02 + 0.96 * t)
    if N == 1:
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        return (radii * signs)[:, None]
    ang = 2.0 * math.pi * np.mod(phase + k * _SILVER, 1.0)
    return radii[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _scan(K, field, points, cfg):
    return np.array([eval_LK(K, field, x, cfg) for x in points])


def _stable_within(values, rel):
    mean = sum(values) / len(values)
    if mean == 0:
        return all(v == 0 for v in values)
    return all(abs(v - mean) <= rel * abs(mean) for v in values)


# --------------------------------------------------------------------------
# verifiers
# --------------------------------------------------------------------------


def verify_boundary_barrier(K, r, alpha_list, cfg, N=1):
    """Check that the boundary barrier is a positive supersolution on the
    collar B_{r+r^2} minus B_r; returns the largest passing exponent and its
    margin."""
    r = float(r)
    if not 0 < r <= RHO0:
        raise ValueError("r must lie in (0, 0.1]")
    pts = sample_annulus(SAMPLES_PER_SCALE, N, r, r + r * r)
    per_alpha = {}
    for alpha in alpha_list:
        phi = boundary_barrier_field(r, alpha)
        per_alpha[float(alpha)] = float(np.min(_scan(K, phi, pts, cfg)))
    passing = {a: m for a, m in per_alpha.items() if m > 0}
    if not passing:
        raise RuntimeError(
            "boundary barrier not positive for any exponent in "
            f"{sorted(per_alpha)}; sampled minima {per_alpha}"
        )
    alpha_star = max(passing)
    return {
        "alpha_star": alpha_star,
        "delta_hat": passing[alpha_star],
        "per_alpha": per_alpha,
    }


def verify_bump(K, r_list, cfg, N=1):
    """Empirical constant in  L_K bump_r <= C * Lam / ell(r)  over B_r."""
    per_r = {}
    for r in r_list:
        r = float(r)
        if not 0 < r < 1:
            raise ValueError("bump radii must lie in (0, 1)")
        beta = bump_field(r)
        pts = sample_annulus(SAMPLES_PER_SCALE, N, 0.0, r)
        vals = _scan(K, beta, pts, cfg)
        per_r[r] = float(np.max(vals)) * float(ell(r)) / K.Lam
    c_hat = max(per_r.values())
    return {
        "C_hat": c_hat,
        "per_r": per_r,
        "stable": _stable_within(list(per_r.values()), 0.25),
    }


def verify_gain(K, rho, cfg, N=1, A_fraction=1.0):
    """Check  L_K chi_A <= -c * lam * mu(A) / ell(rho)  on B_{2 rho^2} for a
    radial gain set A of the prescribed mu-fraction."""
    rho = float(rho)
    if not 0 < rho < 1.0 / 3.0:
        raise ValueError("rho must lie in (0, 1/3)")
    A, mu_A, mu_annulus = gain_shell(rho, A_fraction, N)
    if mu_A <= 0:
        raise ValueError("gain set has zero measure")
    pts = sample_annulus(SAMPLES_PER_SCALE, N, 0.0, 2.0 * rho * rho)
    vals = _scan(K, A, pts, cfg)
    c_vals = (-vals) * float(ell(rho)) / (K.lam * mu_A)
    c_hat = float(np.min(c_vals))
    return {
        "c_hat": c_hat,
        "pass": c_hat > 0,
        "mu_A": mu_A,
        "mu_annulus": mu_annulus,
        "mu_annulus_smallrho_limit": _OMEGA[N] * math.log(2.0),
    }


def verify_tail(K, rho, alpha, cfg, N=1):
    """Empirical constant in  L_K t_alpha >= -C * Lam * (1 + alpha *
    ell^(alpha-1)(rho))  over B_{rho/2}."""
    rho, alpha = float(rho), float(alpha)
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    t = tail_field(rho, alpha)
    pts = sample_annulus(SAMPLES_PER_SCALE, N, 0.0, rho / 2.0)
    vals = _scan(K, t, pts, cfg)
    worst = float(np.min(vals))
    scale = K.Lam * (1.0 + alpha * float(ell(rho, alpha - 1.0)))
    c_hat = max(0.0, -worst) / scale
    return {"C_hat": c_hat, "min_value": worst}


def verify_exponential(K, alpha_list, cfg, N=1, half_width=1.0):
    """Find a decay rate alpha with  L_K exp(-alpha x_N) <= -c0 exp(-alpha
    x_N)  on the strip |x_N| <= half_width."""
    xs = sample_annulus(SAMPLES_PER_SCALE, 1, 0.0, half_width)[:, 0]
    tried = {}
    for alpha in alpha_list:
        alpha = float(alpha)
        phi = exponential_field(alpha)
        sup = -math.inf
        for xn in xs:
            x = np.zeros(N)
            x[-1] = xn
            val = eval_LK(K, phi, x, cfg) * math.exp(alpha * xn)
            sup = max(sup, val)
        tried[alpha] = sup
        if sup < 0:
            return {"alpha_star": alpha, "c0_hat": -sup, "per_alpha": tried}
    raise RuntimeError(
        f"no exponential rate in {sorted(tried)} gave a negative supremum "
        f"(suprema {tried}); enlarge the alpha range"
    )


def verify_composite(K, rho, alpha_list, cfg, N=1, A_fraction=1.0):
    """Integration check of the oscillation-diminishing barrier: find an
    exponent for which L_K of the composite is uniformly below
    -delta * ell^(alpha-1)(rho^2) on B_{2 rho^2}."""
    rho = float(rho)
    if not 0 < rho < 1.0 / 3.0:
        raise ValueError("rho must lie in (0, 1/3)")
    A, _, _ = gain_shell(rho, A_fraction, N)
    pts = sample_annulus(SAMPLES_PER_SCALE, N, 0.0, 2.0 * rho * rho)
    tried = {}
    for alpha in alpha_list:
        alpha = float(alpha)
        phi = composite_barrier_field(rho, alpha, A)
        worst = float(np.max(_scan(K, phi, pts, cfg)))
        tried[alpha] = worst
        if worst < 0:
            delta_hat = -worst / float(ell(rho * rho, alpha - 1.0))
            return {
                "alpha_star": alpha,
                "delta_hat": delta_hat,
                "max_value": worst,
                "per_alpha": tried,
            }
    raise RuntimeError(
        f"composite barrier not negative for any exponent in {sorted(tried)}; "
        f"maxima {tried}"
    )


def verify_sector(r, d, N, cfg, c_min=0.1):
    """Check the interior sector lower bound: the chord integral must exceed
    c_min * |ln d|."""
    value = sector_integral(r, d, N, cfg)
    lower = c_min * abs(math.log(d))
    return {"value": value, "lower_bound": lower, "pass": value >= lower}
