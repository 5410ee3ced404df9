import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logop import geometry
from logop.logmod import RHO0, ell, fit_exponent, fit_second_order_exponent

PLATEAU = 1.0 / math.log(10.0)


# ---------------------------------------------------------------------------
# the modulus
# ---------------------------------------------------------------------------


def test_ell_reference_values():
    assert ell(0.1) == pytest.approx(PLATEAU, abs=1e-15)
    assert ell(0.5) == pytest.approx(PLATEAU, abs=1e-15)  # truncated at 0.1
    assert ell(math.exp(-10.0)) == pytest.approx(0.1, abs=1e-15)
    assert ell(0.01, 2.0) == pytest.approx((1.0 / math.log(100.0)) ** 2, abs=1e-15)
    assert ell(0.37, 0.0) == 1.0


def test_ell_rejects_nonpositive():
    with pytest.raises(ValueError):
        ell(0.0)
    with pytest.raises(ValueError):
        ell(np.array([0.5, -1.0]))


def test_ell_vectorized_matches_scalar():
    rho = np.array([1e-8, 1e-3, 0.05, 0.1, 2.0])
    vec = ell(rho, 1.3)
    for r, v in zip(rho, vec):
        assert v == ell(float(r), 1.3)


@given(st.floats(min_value=1e-12, max_value=10.0), st.floats(min_value=1e-12, max_value=10.0))
def test_ell_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert ell(lo) <= ell(hi) + 1e-15


@given(st.floats(min_value=1e-10, max_value=5.0), st.floats(min_value=1e-10, max_value=5.0))
def test_ell_midpoint_concavity(a, b):
    # concave on (0, oo), including across the plateau kink at 0.1
    assert ell(0.5 * (a + b)) >= 0.5 * (ell(a) + ell(b)) - 1e-14


@given(st.floats(min_value=1e-12, max_value=100.0))
def test_ell_range(rho):
    v = ell(rho)
    assert 0.0 < v <= PLATEAU + 1e-15


@given(st.floats(min_value=1e-6, max_value=0.316))
def test_ell_halves_at_square(r):
    # |ln r^2| = 2|ln r| once both arguments are below the cutoff
    if r * r < RHO0 and r < RHO0:
        assert ell(r * r) == pytest.approx(ell(r) / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------


def test_fit_exponent_recovers_generator():
    radii = [0.08 / 2 ** k for k in range(6)]
    assert fit_exponent(radii, ell(np.array(radii), 0.5)) == pytest.approx(0.5, abs=1e-9)
    assert fit_exponent(radii, ell(np.array(radii), 1.0)) == pytest.approx(1.0, abs=1e-9)


def test_fit_exponent_with_multiplicative_noise():
    rng = np.random.default_rng(42)
    radii = np.array([0.08 / 2 ** k for k in range(6)])
    osc = ell(radii, 0.5) * (1.0 + 0.05 * rng.uniform(-1, 1, size=len(radii)))
    assert fit_exponent(radii, osc) == pytest.approx(0.5, abs=0.05)


def test_fit_exponent_needs_three_usable_points():
    with pytest.raises(ValueError):
        fit_exponent([0.5, 0.2, 0.04], [1.0, 1.0, 1.0])  # two are above the cutoff
    with pytest.raises(ValueError):
        fit_exponent([0.05, 0.02], [0.1, 0.05])


def _interval_grid_function(profile, h=0.0005, half=1.0):
    dom = geometry.Domain.interval(-half, half)
    grid = geometry.build_grid(dom, h)
    return grid, geometry.GridFunction(grid, profile(grid.nodes[:, 0]))


def test_second_order_fit_parabola_saturates():
    grid, u = _interval_grid_function(lambda x: 3.0 * x ** 2)
    gamma = fit_second_order_exponent(u, grid, np.array([0.0]), [0.08, 0.04, 0.02, 0.01])
    # second differences of a parabola are O(eps^2): smoother than ell^gamma
    # for every exponent of interest
    assert gamma > 3.0


def test_second_order_fit_flat_reports_inf():
    grid, u = _interval_grid_function(lambda x: np.full_like(x, 7.0))
    gamma = fit_second_order_exponent(u, grid, np.array([0.0]), [0.08, 0.04, 0.02])
    assert gamma == math.inf


def test_second_order_fit_recovers_modulus_power():
    grid, u = _interval_grid_function(
        lambda x: ell(np.maximum(np.abs(x), 1e-300), 1.3)
    )
    gamma = fit_second_order_exponent(
        u, grid, np.array([0.0]), [0.08, 0.04, 0.02, 0.01, 0.005]
    )
    assert gamma == pytest.approx(1.3, abs=0.1)


def test_second_order_fit_rejects_radii_outside_domain():
    grid, u = _interval_grid_function(lambda x: x, h=0.01, half=0.5)
    with pytest.raises(ValueError):
        fit_second_order_exponent(u, grid, np.array([0.4]), [0.2, 0.1, 0.05])
