import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logop.logmod import RHO0, _ell, ell

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


def test_unchecked_core_is_ell_bit_for_bit():
    # the masked barrier profiles call the core on radii positive by
    # construction; their values stay those of ell
    rho = np.geomspace(1e-300, 10.0, 997)
    for alpha in (0.0, 0.5, 1.0, 1.3):
        assert np.array_equal(_ell(rho, alpha), ell(rho, alpha))


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
