import math

import numpy as np
import pytest
import scipy.special as sps

from logop import QuadratureConfig, _quadrules, kernels
from logop.kernels import (
    EULER_GAMMA,
    KernelSpec,
    bessel_k1,
    bessel_k_generic,
    check_one_regularity,
    check_uniform_ellipticity,
    digamma,
    gamma_fn,
    kernel_from_name,
    loglap_constants,
    mollify_kernel,
    schrodinger_kernel,
    schrodinger_weight,
    sinlog_kernel,
    table_kernel,
    unit_kernel,
)
from logop.logmod import ell


# ---------------------------------------------------------------------------
# special functions against scipy oracles
# ---------------------------------------------------------------------------


def test_gamma_against_scipy():
    xs = [0.5, 1.0, 1.5, 2.0, 3.7, 7.25, 10.0, 0.1, -0.5, -1.5, -2.3]
    for x in xs:
        assert gamma_fn(x) == pytest.approx(float(sps.gamma(x)), rel=1e-12)


def test_gamma_poles():
    for x in (0.0, -1.0, -5.0):
        with pytest.raises(ValueError):
            gamma_fn(x)


def test_digamma_against_scipy():
    xs = [0.5, 1.0, 1.5, 2.0, 3.14, 6.9, 7.0, 25.0, 0.01]
    for x in xs:
        assert digamma(x) == pytest.approx(float(sps.psi(x)), rel=0, abs=1e-12)
    with pytest.raises(ValueError):
        digamma(0.0)


def test_digamma_reflection_identities():
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2.0), abs=1e-12)
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)


def test_bessel_k1_against_scipy():
    rs = np.logspace(-3, 2, 60)
    mine = bessel_k1(rs)
    ref = sps.kv(1, rs)
    assert np.max(np.abs(mine / ref - 1.0)) < 1e-10
    assert bessel_k1(0.7) == pytest.approx(float(sps.kv(1, 0.7)), rel=1e-12)
    with pytest.raises(ValueError):
        bessel_k1(-1.0)


def test_bessel_k_generic_against_scipy():
    for nu in (0.5, 1.0, 1.5):
        for r in (0.05, 0.9, 4.0, 20.0):
            assert bessel_k_generic(nu, r) == pytest.approx(
                float(sps.kv(nu, r)), rel=1e-10
            )
    with pytest.raises(ValueError):
        bessel_k_generic(1.0, 0.0)


@pytest.mark.parametrize("r", [0.4, 3.0], ids=["series", "integral"])
def test_bessel_scalars_only_for_scalar_input(r):
    # a shape-(1,) array stays an array; only a scalar or 0-d input gives a float
    for f in (bessel_k1, lambda x: bessel_k_generic(1.0, x),
              lambda x: schrodinger_weight(x, 2)):
        scalar = f(r)
        assert type(f(np.float64(r))) is type(f(np.array(r))) is type(scalar) is float
        one = f(np.array([r]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == scalar
        square = np.array([[r, 2 * r], [r / 2, 3 * r]])
        assert np.array_equal(f(square), f(square.ravel()).reshape(2, 2))


# ---------------------------------------------------------------------------
# operator constants and the Bessel weight
# ---------------------------------------------------------------------------


def test_loglap_constants_reference_values():
    c1 = loglap_constants(1)
    assert c1.c_N == pytest.approx(1.0, abs=1e-12)
    assert c1.rho_N == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-12)
    c2 = loglap_constants(2)
    assert c2.c_N == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert c2.rho_N == pytest.approx(2 * math.log(2.0) - 2 * EULER_GAMMA, abs=1e-12)
    assert c2.rho_N == pytest.approx(0.2318630, abs=1e-7)
    c4 = loglap_constants(4)
    assert c4.c_N == pytest.approx(1.0 / math.pi ** 2, abs=1e-12)
    assert c4.rho_N == pytest.approx(2 * math.log(2.0) + 1.0 - 2 * EULER_GAMMA, abs=1e-12)


def test_loglap_constants_digamma_identity():
    # rho_N = 2 ln 2 + psi(N/2) - gamma against the scipy digamma
    for N in (1, 2, 3, 4):
        consts = loglap_constants(N)
        expected = 2 * math.log(2.0) + float(sps.psi(N / 2.0)) - EULER_GAMMA
        assert consts.rho_N == pytest.approx(expected, abs=1e-10)
        assert consts.c_N == pytest.approx(
            math.pi ** (-N / 2.0) * float(sps.gamma(N / 2.0)), rel=1e-12
        )


def test_loglap_constants_rejects_bad_dimension():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            loglap_constants(bad)


def test_schrodinger_weight_closed_forms():
    assert schrodinger_weight(1.0, 1) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert schrodinger_weight(1.0, 1) == pytest.approx(0.3678794, abs=1e-7)
    assert schrodinger_weight(1.0, 3) == pytest.approx(math.exp(-1.0) / math.pi, abs=1e-12)
    assert schrodinger_weight(1.0, 3) == pytest.approx(0.1170997, abs=1e-7)
    # omega(0+) = c_1 = 1 under the normalization
    assert abs(schrodinger_weight(1e-8, 1) - 1.0) < 1e-6


def test_schrodinger_weight_2d_against_bessel():
    rs = np.linspace(0.05, 10.0, 40)
    ref = rs * sps.kv(1, rs) / math.pi
    assert np.allclose(schrodinger_weight(rs, 2), ref, rtol=1e-10)
    # omega(0+) = c_2 = 1/pi
    assert schrodinger_weight(1e-8, 2) == pytest.approx(1.0 / math.pi, rel=1e-6)


def test_schrodinger_weight_positive_decreasing():
    for N in (1, 2, 3):
        rs = np.linspace(1.0, 20.0, 100)
        w = schrodinger_weight(rs, N)
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)
    with pytest.raises(ValueError):
        schrodinger_weight(0.0, 1)
    with pytest.raises(ValueError):
        schrodinger_weight(1.0, 4)


# ---------------------------------------------------------------------------
# kernel catalog
# ---------------------------------------------------------------------------


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(evaluate=lambda x, Y: np.ones(len(Y)), lam=2.0, Lam=1.0)
    with pytest.raises(ValueError):
        KernelSpec(evaluate=lambda x, Y: np.ones(len(Y)), lam=0.0, Lam=1.0)
    # a kernel of |y| alone cannot depend on x
    with pytest.raises(ValueError):
        KernelSpec(evaluate=lambda x, Y: np.ones(len(Y)), lam=1.0, Lam=1.0,
                   translation_invariant=False, profile=np.ones_like)


def test_kernel_from_name():
    assert kernel_from_name("unit").name == "unit"
    assert kernel_from_name("sinlog").lam == 0.5
    assert kernel_from_name("loglap", N=2).Lam == pytest.approx(1.0 / math.pi)
    assert kernel_from_name("schrodinger", N=1).name == "schrodinger"
    with pytest.raises(ValueError):
        kernel_from_name("nope")


@pytest.mark.parametrize("N", [1, 2])
def test_catalog_profiles_are_the_kernels_at_the_radius(N, tmp_path):
    table = tmp_path / "profile.csv"
    table.write_text("0.0,1.0\n0.3,2.0\n0.7,0.5\n1.0,1.0\n")
    rng = np.random.default_rng(13)
    rho = np.logspace(-12, 0, 400)
    theta = rng.normal(size=(len(rho), N))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    x = rng.uniform(-0.5, 0.5, N)
    # |rho theta| is rho to a few ulps; ln rho then rounds at ulp(27.6) =
    # 3.6e-15 for radii down to 1e-12, which sin(ln rho)/2 passes on: up to
    # 3.8e-15 relative to K >= 1/2 for sinlog
    rtol = {"sinlog": 4e-15}
    for name in ("unit", "sinlog", "loglap", "schrodinger", f"table:{table}"):
        K = kernel_from_name(name, N)
        Y = rho[:, None] * theta
        assert np.array_equal(K.evaluate(x, Y), K.profile(_quadrules.radius(Y)))
        np.testing.assert_allclose(
            K.profile(rho), K.evaluate(x, Y), rtol=rtol.get(name, 1e-15), atol=0
        )


def test_table_kernel_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("0.0,1.0\n0.5,2.0\n1.0,1.0\n")
    K = table_kernel(str(path))
    got = K.evaluate(np.zeros(1), np.array([[0.25], [0.5], [0.75]]))
    assert np.allclose(got, [1.5, 2.0, 1.5])
    assert K.radial_breakpoints == (0.5,)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.5,-2.0\n")
    with pytest.raises(ValueError):
        table_kernel(str(bad))
    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("0.5,1.0\n0.2,2.0\n")
    with pytest.raises(ValueError):
        table_kernel(str(unsorted))


def test_uniform_ellipticity_checks():
    out = check_uniform_ellipticity(unit_kernel(), 200)
    assert out["pass"] and out["min_seen"] == 1.0 and out["max_seen"] == 1.0
    out = check_uniform_ellipticity(sinlog_kernel(), 500)
    assert out["pass"]
    assert out["min_seen"] >= 0.5 - 1e-12 and out["max_seen"] <= 1.5 + 1e-12

    # K(y) = |y| claimed elliptic with lam = 0.5 fails near the origin
    def evaluate(x, Y):
        return np.linalg.norm(np.atleast_2d(Y), axis=1)

    bad = KernelSpec(evaluate=evaluate, lam=0.5, Lam=1.0, name="norm")
    out = check_uniform_ellipticity(bad, 500)
    assert not out["pass"]
    with pytest.raises(ValueError):
        check_uniform_ellipticity(unit_kernel(), 0)


# ---------------------------------------------------------------------------
# 1-regularity probe
# ---------------------------------------------------------------------------


def test_one_regularity_unit_kernel_brute_force():
    # independent trapezoid oracle for N=1, K=1, w=0.01
    w = 0.01
    half = w / 2.0
    rho = np.linspace(2 * w, 1 + half, 4_000_001)
    fp = np.where(np.abs(rho + half) < 1, 1.0 / np.abs(rho + half), 0.0)
    fm = np.where(np.abs(rho - half) < 1, 1.0 / np.abs(rho - half), 0.0)
    oracle = 2.0 * np.trapezoid(np.abs(fp - fm) * ell(rho), rho) / ell(w)

    cfg = QuadratureConfig()
    out = check_one_regularity(unit_kernel(), [(np.zeros(1), np.array([w]))], cfg)
    assert out["pass"]
    assert math.isfinite(out["Lambda_hat"])
    assert out["Lambda_hat"] == pytest.approx(oracle, rel=1e-4)


def test_one_regularity_pointwise_bound():
    # on B_{1-w/2} minus B_{2w} the integrand obeys C |w| |xi|^{-2} ell(|xi|)
    w = 0.01
    half = w / 2.0
    rho = np.linspace(2 * w, 1 - half, 1001)
    diff = np.abs(1.0 / (rho + half) - 1.0 / (rho - half))
    assert np.all(diff * ell(rho) <= 2.0 * w / rho ** 2 * ell(rho))


def test_one_regularity_radial_jump_stays_bounded():
    # a jump of K in y displaces the disagreement window by |w| only, so the
    # normalized integral cannot grow: ell(|w|) absorbs the O(|w|) window
    def evaluate(x, Y):
        r = np.linalg.norm(np.atleast_2d(Y), axis=1)
        return np.where(r < 0.5, 1.0, 2.0)

    K = KernelSpec(evaluate=evaluate, lam=1.0, Lam=2.0, name="radial-jump")
    cfg = QuadratureConfig()
    pairs = [(np.zeros(1), np.array([w])) for w in (0.02, 0.002, 0.0002)]
    out = check_one_regularity(K, pairs, cfg)
    assert out["pass"]
    assert out["growth_slope"] < 0.5
    ratios = out["per_pair"]
    assert max(ratios) / min(ratios) < 1.5


def test_one_regularity_x_jump_blows_up():
    # roughness in the x-dependence keeps the kernel difference O(1) on the
    # whole ball: the normalized integral grows like 1/ell(|w|)
    def evaluate(x, Y):
        return np.full(len(np.atleast_2d(Y)), 1.5 if x[0] >= 0 else 0.5)

    K = KernelSpec(
        evaluate=evaluate, lam=0.5, Lam=1.5, translation_invariant=False, name="xjump"
    )
    cfg = QuadratureConfig()
    pairs = [(np.zeros(1), np.array([w])) for w in (0.02, 0.002, 0.0002)]
    out = check_one_regularity(K, pairs, cfg)
    assert not out["pass"]
    assert out["growth_slope"] > 0.5
    ratios = out["per_pair"]
    assert ratios[1] / ratios[0] > 1.5 and ratios[2] / ratios[1] > 1.3


def test_one_regularity_oracle_mode_refines_angles_too(monkeypatch):
    # oracle mode scales both node counts; the probe must pass both on
    seen = []

    def record(K, z, w, n_radial, n_angular):
        seen.append((n_radial, n_angular))
        return 1.0

    monkeypatch.setattr(kernels, "_regularity_integral", record)
    cfg = QuadratureConfig(mode="oracle")
    n_rad = cfg.node_counts()[1]
    check_one_regularity(unit_kernel(), [(np.zeros(2), np.array([0.01, 0.0]))], cfg)
    assert seen == [(n_rad, 64), (2 * n_rad, 64)]


# ---------------------------------------------------------------------------
# mollified kernels
# ---------------------------------------------------------------------------


def test_mollify_unit_kernel_profile():
    K = unit_kernel()
    for i in (10, 100):
        Ki = mollify_kernel(K, i)
        delta = 1.0 / (2 * i)
        assert Ki.support_radius == pytest.approx(1.0 + delta)
        inner = np.linspace(0.01, 1.0 - delta - 1e-9, 50)[:, None]
        assert np.allclose(Ki.evaluate(inner), 1.0, atol=1e-12)
        outer = np.linspace(1.0 + delta + 1e-9, 2.0, 20)[:, None]
        assert np.allclose(Ki.evaluate(outer), 0.0, atol=1e-15)
        # smooth decay across the annulus, between the clamp and the cap
        mid = np.linspace(1.0 - delta, 1.0 + delta, 41)[:, None]
        vals = Ki.evaluate(mid)
        assert np.all(vals >= 0.0) and np.all(vals <= K.Lam + 1e-12)
        ball = np.linspace(0.01, 0.999, 200)[:, None]
        assert np.min(Ki.evaluate(ball)) >= K.lam / 2 - 1e-12


def test_mollified_exterior_mass_shrinks():
    # integral of K_i outside B_1 is below 2*Lam/i and scales like 1/i
    K = unit_kernel()
    masses = {}
    for i in (10, 100):
        Ki = mollify_kernel(K, i)
        r = np.linspace(1.0, Ki.support_radius, 20001)
        masses[i] = 2.0 * np.trapezoid(Ki.evaluate(r[:, None]), r)
        assert masses[i] <= 2.0 * K.Lam / i
    assert masses[100] < masses[10]
    assert masses[100] / masses[10] == pytest.approx(0.1, abs=0.02)


def test_mollify_sinlog_respects_clamp():
    Ki = mollify_kernel(sinlog_kernel(), 25)
    ball = np.linspace(0.001, 0.999, 500)[:, None]
    vals = Ki.evaluate(ball)
    assert np.min(vals) >= 0.25 - 1e-12  # lam/2
    assert np.max(vals) <= 1.5 + 1e-12
    everywhere = np.linspace(0.001, 1.5, 500)[:, None]
    vals = Ki.evaluate(everywhere)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.5 + 1e-12)


def test_mollify_refuses_a_kernel_without_a_radial_profile():
    # translation invariant but not radial (0.5 <= K <= 1.5): sampled along
    # +e_1 alone, it used to mollify to the constant 1.5 inside B_1
    aniso = KernelSpec(
        evaluate=lambda x, Y: 1.0 + 0.5 * Y[:, 0] / _quadrules.radius(Y),
        lam=0.5,
        Lam=1.5,
    )
    with pytest.raises(ValueError, match="radial"):
        mollify_kernel(aniso, 10)


def test_mollify_rejects_bad_inputs():
    K = schrodinger_kernel(1)
    assert mollify_kernel(K, 5).i == 5  # radial catalog kernels are fine
    nonti = KernelSpec(
        evaluate=lambda x, Y: np.ones(len(Y)),
        lam=1.0,
        Lam=1.0,
        translation_invariant=False,
    )
    with pytest.raises(ValueError):
        mollify_kernel(nonti, 10)
    with pytest.raises(ValueError):
        mollify_kernel(unit_kernel(), 0)
