import math

import numpy as np
import pytest
from scipy.integrate import quad

from logop.barriers import (
    SAMPLES_PER_SCALE,
    boundary_barrier_field,
    bump_field,
    composite_barrier_field,
    exponential_field,
    gain_shell,
    log_modulus_measure,
    sample_annulus,
    tail_field,
    verify_boundary_barrier,
    verify_bump,
    verify_composite,
    verify_exponential,
    verify_gain,
    verify_sector,
    verify_tail,
)
from logop._quadrules import radius
from logop.logmod import RHO0, ell
from logop.nonlocal_eval import (
    FieldFunction,
    QuadratureConfig,
    box_field,
    eval_LK,
    field_sum,
    shell_field,
)
from logop.kernels import sinlog_kernel, unit_kernel

CFG = QuadratureConfig()
K1 = unit_kernel()


# ---------------------------------------------------------------------------
# field shapes
# ---------------------------------------------------------------------------


def test_boundary_barrier_field_shape():
    phi = boundary_barrier_field(0.05, 0.5)
    inside = sample_annulus(50, 1, 0.0, 0.05)
    assert np.all(phi.evaluate(inside) == 0.0)
    assert phi.evaluate(np.array([[0.05]]))[0] == 0.0
    outside = sample_annulus(50, 1, 0.0500001, 0.2)
    vals = phi.evaluate(outside)
    assert np.all(vals > 0)
    # grows with the log modulus of the gap
    assert phi.evaluate(np.array([[0.06]]))[0] == pytest.approx(
        math.sqrt(ell(0.01)), rel=1e-12
    )


def test_bump_field_shape():
    r = 0.08
    beta = bump_field(r)
    assert beta.support_radius == r
    core = sample_annulus(30, 2, 0.0, r / 2)
    assert np.allclose(beta.evaluate(core), 1.0)
    ring = sample_annulus(30, 2, r / 2 + 1e-9, r - 1e-9)
    vals = beta.evaluate(ring)
    assert np.all((vals > 0) & (vals < 1))
    assert np.all(beta.evaluate(sample_annulus(30, 2, r, 2 * r)) == 0.0)


def test_tail_field_shape():
    rho, alpha = 0.01, 0.3
    t = tail_field(rho, alpha)
    assert np.all(t.evaluate(sample_annulus(40, 1, 0.0, rho)) == 0.0)
    far = t.evaluate(sample_annulus(40, 1, rho + 1e-9, 0.5))
    assert np.all(far > 0)
    cap = ell(0.1, alpha) - ell(rho, alpha)  # the modulus plateaus at 0.1
    assert np.all(far <= cap + 1e-15)
    assert t.evaluate(np.array([[5.0]]))[0] == pytest.approx(cap)


# ---------------------------------------------------------------------------
# radial fields: one profile of |y|, evaluated only where it varies
# ---------------------------------------------------------------------------

# The unmasked formulas that the radial profiles replaced, as references.


def _unmasked_boundary(r, alpha):
    def evaluate(Y):
        t = radius(np.atleast_2d(Y)) - r
        return np.where(t > 0, ell(np.maximum(t, 1e-300), alpha), 0.0)
    return evaluate


def _unmasked_bump(r):
    def evaluate(Y):
        rho = radius(np.atleast_2d(Y))
        t = np.clip(2.0 * rho / r - 1.0, 0.0, 1.0)
        inside = t < 1.0
        tt = np.where(inside, t, 0.0)
        with np.errstate(divide="ignore"):
            vals = np.exp(1.0 - 1.0 / np.maximum(1.0 - tt * tt, 1e-300))
        return np.where(inside, vals, 0.0)
    return evaluate


def _unmasked_tail(rho, alpha):
    offset = float(ell(rho, alpha))

    def evaluate(Y):
        rr = radius(np.atleast_2d(Y))
        return np.maximum(ell(np.maximum(rr, 1e-300), alpha) - offset, 0.0)
    return evaluate


def _unmasked_shell(a, b):
    def evaluate(Y):
        rho = radius(np.atleast_2d(Y))
        return np.where((rho >= a) & (rho <= b), 1.0, 0.0)
    return evaluate


_R, _RHO, _ALPHA = 0.05, 0.01, 0.3
_GAIN = gain_shell(_R, 0.5, 2)[0]  # the shell [3 r^2, b]
_GAIN_B = max(_GAIN.kinks.spheres)[1]

# name: (the field, its field without a profile from the unmasked formulas)
_RADIAL = {
    "boundary": (boundary_barrier_field(_R, _ALPHA), _unmasked_boundary(_R, _ALPHA)),
    "bump": (bump_field(_R), _unmasked_bump(_R)),
    "tail": (tail_field(_RHO, _ALPHA), _unmasked_tail(_RHO, _ALPHA)),
    "shell": (_GAIN, _unmasked_shell(3 * _R * _R, _GAIN_B)),
}


def _unmasked(name):
    return _without_profile(*_RADIAL[name])


def _without_profile(f, evaluate):
    return FieldFunction(evaluate=evaluate, support_radius=f.support_radius, kinks=f.kinks)


def _radial_sum(terms):
    # the composite barrier's sum, of the fields above
    c_bump = float(ell(_R, _ALPHA) - ell(_R * _R, _ALPHA))
    return field_sum([(c_bump, terms["bump"]), (float(ell(_R, _ALPHA)) / 2, terms["shell"]),
                      (-1.0, terms["tail"])])


def _radii_at_the_kinks():
    # r/2, r, r + RHO0, rho and RHO0 exactly and one ulp either side, among
    # radii from 0 to past every kink
    kinks = np.array([_R / 2, _R, _R + RHO0, _RHO, RHO0, 3 * _R * _R, _GAIN_B])
    near = np.concatenate([np.nextafter(kinks, 0.0), kinks, np.nextafter(kinks, 1.0)])
    return np.concatenate([[0.0], near, np.logspace(-13, 1, 2001)])


@pytest.mark.parametrize("name", list(_RADIAL))
def test_masked_profile_is_the_unmasked_formula(name):
    f, unmasked = _RADIAL[name]
    rho = _radii_at_the_kinks()
    Y = rho[:, None]
    assert np.array_equal(radius(Y), rho)  # |y| is each radius exactly
    assert np.array_equal(f.profile(rho), unmasked(Y))
    # and off the axis, where |y| rounds
    Y2 = rho[:, None] * np.array([0.6, 0.8])
    assert np.array_equal(f.evaluate(Y2), unmasked(Y2))
    assert np.array_equal(f.evaluate(Y2), f.profile(radius(Y2)))


def test_tail_vanishes_at_its_radius_to_the_bit():
    # the tail's mask |y| > rho against the formula's max(., 0) at and next
    # to |y| = rho: both read exactly 0 up to rho, and agree past it
    f, unmasked = _RADIAL["tail"]
    rho = [_RHO]
    for _ in range(64):
        rho = [np.nextafter(rho[0], 0.0)] + rho + [np.nextafter(rho[-1], 1.0)]
    Y = np.array(rho)[:, None]
    below = Y[:, 0] <= _RHO
    assert np.all(unmasked(Y)[below] == 0.0) and np.all(f.evaluate(Y)[below] == 0.0)
    assert np.array_equal(f.evaluate(Y), unmasked(Y))


def test_sum_of_radial_fields_is_radial_and_the_sum_of_its_terms():
    Y = _radii_at_the_kinks()[:, None] * np.array([0.28, -0.96])
    phi = composite_barrier_field(_R, _ALPHA, _GAIN)
    assert phi.profile is not None
    coefs = (float(ell(_R, _ALPHA) - ell(_R * _R, _ALPHA)), float(ell(_R, _ALPHA)) / 2, -1.0)
    terms = list(zip(coefs, (bump_field(2 * _R * _R), _GAIN, tail_field(_R, _ALPHA))))
    by_term = np.zeros(len(Y))
    for c, f in terms:
        by_term += c * f.evaluate(Y)
    assert np.array_equal(phi.evaluate(Y), by_term)
    unmasked = (_unmasked_bump(2 * _R * _R), _RADIAL["shell"][1], _unmasked_tail(_R, _ALPHA))
    assert np.array_equal(sum(c * f(Y) for c, f in zip(coefs, unmasked)), by_term)
    # one term that is not radial makes the sum not radial, with the same values
    box = box_field([-0.1, -0.1], [0.1, 0.1])
    mixed = field_sum(terms + [(2.0, box)])
    assert mixed.profile is None
    assert np.array_equal(mixed.evaluate(Y), by_term + 2.0 * box.evaluate(Y))


@pytest.mark.parametrize("N", [1, 2])
def test_eval_LK_of_radial_fields_is_that_of_the_unmasked_fields(N):
    # the fields without profile: the unmasked formulas, and their sum
    # term by term
    fields = {n: _RADIAL[n][0] for n in _RADIAL}
    unmasked = {n: _unmasked(n) for n in _RADIAL}
    fields["sum"] = _radial_sum(fields)
    unmasked["sum"] = _radial_sum(unmasked)
    assert fields["sum"].profile is not None and unmasked["sum"].profile is None
    fields["composite"] = composite_barrier_field(_R, _ALPHA, _GAIN)
    bump, tail = bump_field(2 * _R * _R), tail_field(_R, _ALPHA)
    unmasked["composite"] = field_sum([
        (float(ell(_R, _ALPHA) - ell(_R * _R, _ALPHA)),
         _without_profile(bump, _unmasked_bump(2 * _R * _R))),
        (float(ell(_R, _ALPHA)) / 2, unmasked["shell"]),
        (-1.0, _without_profile(tail, _unmasked_tail(_R, _ALPHA))),
    ])
    pts = np.concatenate([sample_annulus(SAMPLES_PER_SCALE, N, 0.0, 2 * _R),
                          np.array([[_RHO, 0.0][:N], [_R, 0.0][:N]])])
    for K in (unit_kernel(), sinlog_kernel()):
        for name, f in fields.items():
            got = eval_LK(K, f, pts, CFG)
            assert got.tolist() == eval_LK(K, unmasked[name], pts, CFG).tolist(), name


def test_composite_barrier_sign_structure():
    rho, alpha = 0.05, 0.25
    A, _, _ = gain_shell(rho, 1.0, 1)
    phi = composite_barrier_field(rho, alpha, A)
    c_bump = ell(rho, alpha) - ell(rho * rho, alpha)
    c_gain = ell(rho, alpha) / 2.0
    assert phi.evaluate(np.zeros((1, 1)))[0] == pytest.approx(c_bump)
    # bump support ends at 2 rho^2, gain set starts at 3 rho^2: a true gap
    mid_gap = np.array([[2.5 * rho * rho]])
    assert phi.evaluate(mid_gap)[0] == 0.0
    on_shell = np.array([[0.5 * (3.0 * rho * rho + rho)]])
    assert phi.evaluate(on_shell)[0] == pytest.approx(c_gain)
    beyond = phi.evaluate(np.array([[0.3], [0.7]]))
    assert np.all(beyond < 0)


def test_exponential_field_uses_last_coordinate():
    phi = exponential_field(2.0)
    assert phi.evaluate(np.array([[0.5, 0.25]]))[0] == pytest.approx(math.exp(-0.5))


# ---------------------------------------------------------------------------
# the weighted measure and the gain set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(0.001, 0.05), (0.05, 0.2), (0.2, 0.5)])
@pytest.mark.parametrize("N", [1, 2])
def test_log_modulus_measure_closed_form(a, b, N):
    omega = 2.0 if N == 1 else 2.0 * math.pi
    kink = [0.1] if a < 0.1 < b else None
    ref, err = quad(lambda t: omega * ell(t) / t, a, b, points=kink, limit=200)
    assert log_modulus_measure(a, b, N) == pytest.approx(ref, rel=1e-9)
    assert err < 1e-10


def test_log_modulus_measure_validation():
    with pytest.raises(ValueError):
        log_modulus_measure(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        log_modulus_measure(0.2, 0.1, 1)
    with pytest.raises(ValueError):
        log_modulus_measure(0.01, 0.1, 3)


def test_gain_shell_fractions():
    rho = 0.05
    field, mu_A, mu_total = gain_shell(rho, 1.0, 1)
    assert mu_A == pytest.approx(mu_total, rel=1e-12)
    assert field.evaluate(np.array([[3.0 * rho * rho], [rho]])) == pytest.approx(
        [1.0, 1.0]
    )
    half_field, mu_half, mu_total2 = gain_shell(rho, 0.5, 1)
    assert mu_total2 == mu_total
    assert mu_half == pytest.approx(0.5 * mu_total, rel=1e-9)
    assert half_field.evaluate(np.array([[2.0 * rho * rho]]))[0] == 0.0


def _bisected_shell_radius(rho, fraction, N):
    # the outer radius b with mu([3 rho^2, b]) = fraction * mu(annulus), by
    # 200 bisection steps on the closed-form measure
    a = 3.0 * rho * rho
    target = fraction * log_modulus_measure(a, rho, N)
    lo, hi = a, rho
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_modulus_measure(a, mid, N) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("N", [1, 2])
def test_gain_shell_inverts_the_measure_in_closed_form(N):
    # the inverted measure agrees with bisection to rounding on both
    # branches (outer radius below and above RHO0 = 0.1); against a
    # 40-digit root it is the closer of the two (8.8 against 18.6 ulps in 1-D)
    for rho in np.linspace(0.01, 0.33, 33):
        total = log_modulus_measure(3.0 * rho * rho, rho, N)
        for fraction in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            field, mu_A, mu_total = gain_shell(rho, fraction, N)
            ref = _bisected_shell_radius(rho, fraction, N)
            assert field.support_radius == pytest.approx(ref, rel=1e-14, abs=0)
            assert mu_total == total
            assert mu_A == pytest.approx(fraction * total, rel=1e-13)
        field, mu_A, mu_total = gain_shell(rho, 1.0, N)
        assert field.support_radius == rho
        assert mu_A == mu_total == total


def test_gain_shell_validation():
    with pytest.raises(ValueError):
        gain_shell(0.4, 1.0, 1)  # annulus empty once 3 rho^2 >= rho
    with pytest.raises(ValueError):
        gain_shell(0.05, 0.0, 1)
    with pytest.raises(ValueError):
        gain_shell(0.05, 1.5, 1)


def test_sample_annulus_is_deterministic_and_in_range():
    a = sample_annulus(64, 2, 0.1, 0.3)
    b = sample_annulus(64, 2, 0.1, 0.3)
    assert np.array_equal(a, b)
    radii = np.linalg.norm(a, axis=1)
    assert np.all((radii > 0.1) & (radii < 0.3))
    line = sample_annulus(33, 1, 0.2, 0.4)
    assert line.shape == (33, 1)
    assert np.any(line > 0) and np.any(line < 0)
    shifted = sample_annulus(64, 2, 0.1, 0.3, phase=0.37)
    assert not np.allclose(a, shifted)
    with pytest.raises(ValueError):
        sample_annulus(8, 3, 0.1, 0.3)


# ---------------------------------------------------------------------------
# verifiers (unit kernel, 1-D unless stated)
# ---------------------------------------------------------------------------


def test_verify_boundary_barrier_finds_positive_exponent():
    out = verify_boundary_barrier(K1, 0.01, [0.1, 0.25, 0.5], CFG)
    assert set(out["per_alpha"]) == {0.1, 0.25, 0.5}
    assert out["alpha_star"] in out["per_alpha"]
    assert out["delta_hat"] > 0
    assert out["per_alpha"][out["alpha_star"]] == out["delta_hat"]


def test_verify_boundary_barrier_fails_near_exponent_one():
    with pytest.raises(RuntimeError):
        verify_boundary_barrier(K1, 0.01, [0.999], CFG)
    with pytest.raises(ValueError):
        verify_boundary_barrier(K1, 0.5, [0.5], CFG)


def test_verify_bump_constant_scales_with_log_modulus():
    out = verify_bump(K1, [0.05, 0.005, 0.0005], CFG)
    vals = list(out["per_r"].values())
    assert all(v > 0 for v in vals)
    # L beta_r alone grows like |ln r|; the ell(r) weighting flattens it
    assert max(vals) / min(vals) < 1.15
    assert out["stable"]
    assert out["C_hat"] == pytest.approx(max(vals))
    assert 1.5 < out["C_hat"] < 3.0
    with pytest.raises(ValueError):
        verify_bump(K1, [1.5], CFG)


def test_verify_gain_negative_inside_core():
    out = verify_gain(K1, 0.05, CFG)
    assert out["pass"] and out["c_hat"] > 0
    assert out["mu_A"] == pytest.approx(out["mu_annulus"])
    assert out["mu_annulus"] < out["mu_annulus_smallrho_limit"]


def test_verify_gain_measure_approaches_limit():
    ratios = []
    for rho in (0.01, 1e-3, 1e-4):
        out = verify_gain(K1, rho, CFG)
        ratios.append(out["mu_annulus"] / out["mu_annulus_smallrho_limit"])
    assert ratios == sorted(ratios)
    assert ratios[-1] > 0.9
    with pytest.raises(ValueError):
        verify_gain(K1, 0.4, CFG)


def test_verify_tail_stability_needs_small_scales():
    small = [verify_tail(K1, rho, 0.25, CFG)["C_hat"] for rho in (1e-3, 1e-4)]
    assert all(c > 0 for c in small)
    mean = sum(small) / len(small)
    assert all(abs(c - mean) <= 0.25 * mean for c in small)
    # at the coarse scales the prefactor has not settled yet
    coarse = [verify_tail(K1, rho, 0.25, CFG)["C_hat"] for rho in (0.05, 0.02)]
    assert max(coarse) / min(coarse) > 1.5


def test_verify_tail_vanishes_with_the_exponent():
    mags = [abs(verify_tail(K1, 1e-3, a, CFG)["min_value"]) for a in (0.1, 0.2, 0.4)]
    assert mags == sorted(mags)  # the whole field shrinks as alpha -> 0
    with pytest.raises(ValueError):
        verify_tail(K1, 1e-3, 0.6, CFG)
    with pytest.raises(ValueError):
        verify_tail(K1, 1.2, 0.25, CFG)


def test_verify_exponential_series_oracle():
    # for the unit kernel the normalized supremum is exactly
    # -sum_k 2 alpha^{2k} / ((2k)! 2k), independent of the base point
    out = verify_exponential(K1, [1.0], CFG)
    series = sum(2.0 / (math.factorial(2 * k) * 2 * k) for k in range(1, 30))
    assert out["alpha_star"] == 1.0
    assert out["c0_hat"] == pytest.approx(series, abs=1e-5)
    slower = verify_exponential(K1, [0.5], CFG)
    assert slower["c0_hat"] < out["c0_hat"]


def test_verify_exponential_rejects_zero_rate():
    with pytest.raises(RuntimeError):
        verify_exponential(K1, [0.0], CFG)


def test_verify_composite_picks_small_exponent():
    out = verify_composite(K1, 0.05, [0.25, 0.05], CFG)
    assert out["alpha_star"] == 0.05
    assert out["max_value"] < 0
    assert out["delta_hat"] > 0
    assert out["per_alpha"][0.25] > 0  # the aggressive exponent fails first
    with pytest.raises(RuntimeError):
        verify_composite(K1, 0.05, [0.45], CFG)
    with pytest.raises(ValueError):
        verify_composite(K1, 0.4, [0.05], CFG)


def test_verify_sector_lower_bound():
    for N in (1, 2):
        out = verify_sector(0.05, 1e-5, N, CFG)
        assert out["pass"]
        assert out["value"] >= out["lower_bound"]
        assert out["lower_bound"] == pytest.approx(0.1 * abs(math.log(1e-5)))


def test_samples_per_scale_constant():
    assert SAMPLES_PER_SCALE == 32
