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
from logop.logmod import ell
from logop.nonlocal_eval import QuadratureConfig
from logop.kernels import unit_kernel

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
