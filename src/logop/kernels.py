"""Kernel definitions and validation.

Covers the generic uniformly elliptic kernel K(x,y) with interaction range 1,
the constants of the logarithmic Laplacian, the Bessel-type weight of the
logarithmic Schrodinger operator, smooth mollifications of radial kernels,
and the ellipticity / 1-regularity checks (the latter on _quadrules.polar_sum).

The special functions (gamma, digamma, modified Bessel K) are implemented
here rather than imported: the values feed operator constants that the rest
of the package treats as exact, so we want them pinned to explicit, testable
formulas.  scipy is used only as an independent oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _quadrules
from .logmod import RHO0, ell

EULER_GAMMA = 0.5772156649015328606065
_BESSEL_BLOCK = 256  # arguments per block of the K_nu trapezoid table

__all__ = [
    "EULER_GAMMA",
    "gamma_fn",
    "digamma",
    "bessel_k_generic",
    "bessel_k1",
    "LogLapConstants",
    "loglap_constants",
    "schrodinger_weight",
    "KernelSpec",
    "unit_kernel",
    "sinlog_kernel",
    "loglap_kernel",
    "schrodinger_kernel",
    "table_kernel",
    "kernel_from_name",
    "check_uniform_ellipticity",
    "check_one_regularity",
    "MollifiedKernel",
    "mollify_kernel",
]


# --------------------------------------------------------------------------
# special functions
# --------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x):
    """Gamma function for real x (poles excepted), Lanczos approximation."""
    x = float(x)
    if x < 0.5:
        if x == math.floor(x):
            raise ValueError("gamma pole at non-positive integer")
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def digamma(x):
    """Digamma for x > 0: recurrence up to x >= 10, then asymptotic series."""
    x = float(x)
    if x <= 0:
        raise ValueError("digamma implemented for x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 1.0 / 240 - inv2 * (1.0 / 132 - inv2 * (691.0 / 32760))
    series = (
        math.log(x)
        - 0.5 / x
        - inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * tail)))
    )
    return acc + series


def bessel_k_generic(nu, r):
    """K_nu(r) by trapezoid on the integral of exp(-r*cosh t)*cosh(nu*t).

    The integrand decays doubly exponentially in t, so the trapezoid rule
    converges geometrically in 1/step.  The peak at t = 0 narrows like
    r^(-1/2), so the step shrinks with the largest argument to keep
    the relative error near roundoff.  Vectorized in r.
    """
    arr = np.asarray(r, dtype=float)
    r = arr.reshape(-1)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    step = min(0.1, 0.5 / math.sqrt(float(np.max(r))))
    t_max = math.acosh(max(760.0 / float(np.min(r)), 2.0))
    n = int(math.ceil(t_max / step))
    t = np.linspace(0.0, n * step, n + 1)
    ch = np.cosh(t)
    w = step * np.cosh(nu * t)
    w[0] *= 0.5
    # a bounded block of r at a time keeps the (r, t) table small
    out = np.empty(len(r))
    with np.errstate(under="ignore"):
        for k in range(0, len(r), _BESSEL_BLOCK):
            block = slice(k, k + _BESSEL_BLOCK)
            out[block] = np.exp(-np.outer(r[block], ch)) @ w
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _bessel_k1_series(r):
    """Power series for K_1 (accurate for r <= 2, convergent everywhere)."""
    r = np.asarray(r, dtype=float)
    q = r * r / 4.0
    term_i = np.ones_like(r)        # (q^k)/(k! (k+1)!)
    i1_sum = term_i.copy()
    psi_a, psi_b = -EULER_GAMMA, 1.0 - EULER_GAMMA   # psi(1), psi(2)
    term_s = (psi_a + psi_b) * np.ones_like(r)
    s_sum = term_s.copy()
    for k in range(1, 40):
        term_i = term_i * q / (k * (k + 1))
        i1_sum += term_i
        psi_a += 1.0 / k
        psi_b += 1.0 / (k + 1)
        term_s = term_i * (psi_a + psi_b)
        s_sum += term_s
    i1 = (r / 2.0) * i1_sum
    return 1.0 / r + np.log(r / 2.0) * i1 - (r / 4.0) * s_sum


def bessel_k1(r):
    """Modified Bessel K_1: series for r <= 2, integral representation above."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("r must be positive")
    out = np.empty_like(arr)
    small = arr <= 2.0
    if np.any(small):
        out[small] = _bessel_k1_series(arr[small])
    if np.any(~small):
        out[~small] = bessel_k_generic(1.0, arr[~small])
    return float(out) if arr.ndim == 0 else out


# --------------------------------------------------------------------------
# logarithmic Laplacian constants and the Schrodinger weight
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LogLapConstants:
    c_N: float
    rho_N: float


def loglap_constants(N):
    """c_N = pi^(-N/2) Gamma(N/2) and rho_N = 2 ln 2 + psi(N/2) - gamma."""
    if int(N) != N or N < 1:
        raise ValueError("dimension must be a positive integer")
    N = int(N)
    c = math.pi ** (-N / 2.0) * gamma_fn(N / 2.0)
    rho = 2 * math.log(2.0) + digamma(N / 2.0) - EULER_GAMMA
    return LogLapConstants(c_N=c, rho_N=rho)


def schrodinger_weight(r, N):
    """Radial weight of the logarithmic Schrodinger operator.

    omega(r) is proportional to r^(N/2) K_{N/2}(r), normalized so that
    omega(0+) equals the logarithmic-Laplacian constant c_N.  Supported for
    N in {1, 2, 3}; closed forms in odd dimension, the K_1 evaluator in 2-D.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("r must be positive")
    if N == 1:
        out = np.exp(-arr)
    elif N == 2:
        out = arr * bessel_k1(arr) / math.pi
    elif N == 3:
        out = (1 + arr) * np.exp(-arr) / (2 * math.pi)
    else:
        raise ValueError(f"unsupported dimension N={N} for the Schrodinger weight")
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


# --------------------------------------------------------------------------
# kernel specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A zero-order kernel weight K(x, y) on Omega x B_1.

    evaluate(x, Y) takes the base point x (shape (N,)) and offsets Y of shape
    (m, N) and returns the m kernel values.  lam/Lam are the ellipticity
    bounds; translation-invariant kernels ignore x entirely.
    radial_breakpoints lists radii |y| where the kernel profile has kinks or
    jumps, so quadrature panels can be aligned with them.  profile, when
    given, is the kernel as a function of rho = |y| alone, vectorized over an
    array of radii: then evaluate(x, Y) = profile(|Y|) for every x, and the
    quadratures evaluate it once per radius of their rule instead of once
    per node.  The catalog kernels are all radial (_radial_kernel).
    """

    evaluate: callable
    lam: float
    Lam: float
    translation_invariant: bool = True
    name: str = ""
    radial_breakpoints: tuple = ()
    profile: callable | None = None

    def __post_init__(self):
        if not 0 < self.lam <= self.Lam:
            raise ValueError("need 0 < lam <= Lam")
        if self.profile is not None and not self.translation_invariant:
            raise ValueError("a kernel of |y| alone is translation invariant")


def _radial_kernel(profile, lam, Lam, name, radial_breakpoints=()):
    """The KernelSpec of the kernel K(x, y) = profile(|y|): its evaluate is
    the profile at the radii of the offsets, so the two cannot disagree."""
    return KernelSpec(
        evaluate=lambda x, Y: profile(_quadrules.radius(Y)),
        lam=lam,
        Lam=Lam,
        name=name,
        radial_breakpoints=radial_breakpoints,
        profile=profile,
    )


def unit_kernel():
    return _radial_kernel(np.ones_like, 1.0, 1.0, "unit")


def sinlog_kernel():
    """K(y) = 1 + sin(ln|y|)/2: bounded oscillatory sample, 0.5 <= K <= 1.5."""
    return _radial_kernel(lambda rho: 1.0 + 0.5 * np.sin(np.log(rho)), 0.5, 1.5, "sinlog")


def loglap_kernel(N):
    """The constant kernel c_N of the logarithmic Laplacian's local part."""
    c = loglap_constants(N).c_N
    return _radial_kernel(lambda rho: np.full(np.shape(rho), c), c, c, "loglap")


def schrodinger_kernel(N):
    """K(y) = omega(|y|) restricted to B_1 (the weight is decreasing)."""
    c = loglap_constants(N).c_N
    w1 = schrodinger_weight(1.0, N)
    return _radial_kernel(
        lambda rho: schrodinger_weight(np.maximum(rho, 1e-300), N), w1, c, "schrodinger"
    )


def table_kernel(path):
    """Radial kernel linearly interpolated from a two-column CSV (r, K(r))."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    knots, vals = data[:, 0], data[:, 1]
    if np.any(np.diff(knots) <= 0):
        raise ValueError("table radii must be strictly increasing")
    if np.any(vals < 0):
        raise ValueError("table kernel values must be nonnegative")
    inner = knots[(knots > 0) & (knots < 1)]
    return _radial_kernel(
        lambda rho: np.interp(rho, knots, vals),
        float(np.min(vals)),
        float(np.max(vals)),
        f"table:{path}",
        tuple(inner[:64]),
    )


def kernel_from_name(name, N=1):
    if name == "unit":
        return unit_kernel()
    if name == "sinlog":
        return sinlog_kernel()
    if name == "loglap":
        return loglap_kernel(N)
    if name == "schrodinger":
        return schrodinger_kernel(N)
    if name.startswith("table:"):
        return table_kernel(name.split(":", 1)[1])
    raise ValueError(f"unknown kernel {name!r}")


# --------------------------------------------------------------------------
# validation checks
# --------------------------------------------------------------------------


def _ball_samples(rng, n, N):
    """Uniform sample of B_1 \\ {0}."""
    y = rng.normal(size=(n, N))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    radii = rng.uniform(size=n) ** (1.0 / N)
    radii = np.maximum(radii, 1e-8)
    return y * radii[:, None]


def check_uniform_ellipticity(K, samples, domain=None, N=1, seed=101):
    """Spot-check lam <= K(x,y) <= Lam on random (x, y) in Omega x B_1."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    N = domain.N if domain is not None else N
    Y = _ball_samples(rng, samples, N)
    if domain is not None:
        span = domain.hi - domain.lo
        X = domain.lo + rng.uniform(size=(samples, N)) * span
        keep = domain.contains(X)
        X[~keep] = domain.center
    else:
        X = np.zeros((samples, N))
    vals = np.empty(samples)
    for k in range(samples):
        vals[k] = float(K.evaluate(X[k], Y[k : k + 1])[0])
    if np.any(~np.isfinite(vals)) or np.any(vals < 0):
        raise ValueError("kernel defect: NaN or negative value encountered")
    min_seen, max_seen = float(np.min(vals)), float(np.max(vals))
    eps = 1e-12
    return {
        "min_seen": min_seen,
        "max_seen": max_seen,
        "pass": (K.lam - eps <= min_seen) and (max_seen <= K.Lam + eps),
    }


def _regularity_integral(K, z, w, n_radial, n_angular):
    """The kernel-oscillation integral of the alpha-regularity condition, by
    polar_sum around 0 with the profile ell(|xi|) |xi|^N (which undoes |xi|^-N)."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    N = len(z)
    wn = float(np.linalg.norm(w))
    if wn == 0:
        raise ValueError("w must be nonzero")
    lo, hi = 2 * wn, 1 + wn / 2
    if lo >= hi:
        return 0.0
    half = w / 2
    # K(z +- w/2, xi +- w/2) is cut off outside the unit spheres around -+w/2
    kinks = _quadrules.sphere_kinks([1.0], -half) + _quadrules.sphere_kinks([1.0], half)

    def quotient(shift, xi):  # K(z + shift, y) / |y|^N for |y| < 1, y = xi + shift
        r = _quadrules.radius(xi + shift)
        with np.errstate(divide="ignore"):
            return np.where(r < 1, K.evaluate(z + shift, xi + shift) / r ** N, 0.0)

    def integrand(xi, _):
        return np.abs(quotient(half, xi) - quotient(-half, xi))

    return _quadrules.polar_sum(np.zeros(N), n_angular, n_radial, lo, hi, integrand,
                                lambda rho: ell(rho) * rho ** N, kinks, (RHO0,))


def check_one_regularity(K, pairs, quad):
    """1-regularity probe: the oscillation integral against ell(|w|).

    For each pair (z, w) the integral over R^N minus B_{2|w|} of
    |K(z+w/2, xi+w/2)/|xi+w/2|^N - K(z-w/2, xi-w/2)/|xi-w/2|^N| ell(|xi|)
    is evaluated and normalized by ell(|w|); Lambda_hat is the largest
    normalized value.  The verdict fails when the quadrature drifts by more
    than 10% under a doubling of the radial resolution, or when the
    normalized values grow with 1/ell(|w|) across the sampled scales (at
    least three distinct |w| needed): a 1-regular kernel admits one constant
    for every pair, so systematic growth is exactly the failure signature.
    Radial jumps in y shift the disagreement window by |w| and contribute
    only O(|w|), which ell(|w|) absorbs; a kernel rough in x does blow up.
    """
    n_ang, n_rad = quad.node_counts()
    per_pair = []
    drifts = []
    wns = []
    for z, w in pairs:
        wn = float(np.linalg.norm(np.asarray(w, dtype=float)))
        coarse = _regularity_integral(K, z, w, n_rad, n_ang)
        fine = _regularity_integral(K, z, w, 2 * n_rad, n_ang)
        per_pair.append(fine / ell(wn))
        wns.append(wn)
        denom = max(abs(fine), 1e-300)
        drifts.append(abs(fine - coarse) / denom)
    lam_hat = float(np.max(per_pair))
    drift_max = float(np.max(drifts))
    growth_slope = math.nan
    scales = np.array(wns)
    ratios = np.array(per_pair)
    if len(np.unique(scales)) >= 3 and np.all(ratios > 0):
        growth_slope = float(
            np.polyfit(np.log(1.0 / ell(scales)), np.log(ratios), 1)[0]
        )
    grows = math.isfinite(growth_slope) and growth_slope > 0.5
    return {
        "Lambda_hat": lam_hat,
        "pass": bool(np.isfinite(lam_hat) and drift_max < 0.10 and not grows),
        "drift_max": drift_max,
        "growth_slope": growth_slope,
        "per_pair": per_pair,
    }


# --------------------------------------------------------------------------
# mollified kernels
# --------------------------------------------------------------------------

_MOLL_NODES, _MOLL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_MOLL_MASS = float(np.sum(_MOLL_WEIGHTS * np.exp(-1.0 / (1.0 - _MOLL_NODES ** 2))))


@dataclass(frozen=True)
class MollifiedKernel:
    """Smooth, clamped mollification K_i of a radial kernel.

    Satisfies lam/2 <= K_i on B_1, 0 <= K_i <= Lam everywhere, and K_i = 0
    outside B_{1+1/(2i)} (a subset of B_{1+1/i}).
    """

    base: KernelSpec
    i: int
    delta: float
    profile: callable = field(repr=False)

    @property
    def support_radius(self):
        return 1.0 + self.delta

    @property
    def radial_breakpoints(self):
        return (1.0 - self.delta, 1.0, 1.0 + self.delta)

    def evaluate(self, Y):
        rho = _quadrules.radius(np.atleast_2d(Y))
        raw = self.profile(rho)
        clamped = np.clip(raw, 0.0, self.base.Lam)
        return np.where(rho < 1.0, np.maximum(clamped, self.base.lam / 2), clamped)


def mollify_kernel(K, i):
    """Mollify K.profile, extended by zero outside B_1; a kernel without a
    radial profile is refused."""
    if K.profile is None:
        raise ValueError("mollification needs a radial kernel (KernelSpec.profile)")
    if i < 1:
        raise ValueError("index i must be a positive integer")
    delta = 1.0 / (2 * int(i))

    def base_profile(r):
        r = np.abs(r)
        return np.where(r < 1.0, K.profile(np.maximum(r, 1e-300)), 0.0)

    def profile(rho):
        rho = np.asarray(rho, dtype=float)
        t = delta * _MOLL_NODES
        w = _MOLL_WEIGHTS * np.exp(-1.0 / (1.0 - _MOLL_NODES ** 2)) / _MOLL_MASS
        samples = base_profile(rho[:, None] - t[None, :])
        return samples @ w

    return MollifiedKernel(base=K, i=int(i), delta=delta, profile=profile)
