import math

import numpy as np
import pytest
import scipy.special as sps

from logop import _quadrules, nonlocal_eval
from logop.barriers import (
    boundary_barrier_field,
    bump_field,
    composite_barrier_field,
    gain_shell,
    sample_annulus,
)
from logop.geometry import Domain, GridFunction, build_grid
from logop.kernels import mollify_kernel, sinlog_kernel, unit_kernel
from logop.nonlocal_eval import (
    FieldFunction,
    QuadratureConfig,
    box_field,
    const_field,
    eval_J_conv,
    eval_LK,
    eval_loglap,
    eval_remainder,
    eval_schrodinger,
    field_sum,
    gaussian_field,
    grid_field,
    linear_field,
    make_field,
    quadratic_field,
    sector_integral,
    shell_field,
    shift_field,
)
from logop.solver import ProblemSpec, assemble

FAST = QuadratureConfig()
ORACLE = QuadratureConfig(mode="oracle")

EULER_GAMMA = 0.5772156649015329


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(n_radial=4)
    with pytest.raises(ValueError):
        QuadratureConfig(n_angular=4)
    with pytest.raises(ValueError):
        QuadratureConfig(r_min=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig(r_min=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(mode="turbo")
    assert FAST.node_factor() == 1
    assert ORACLE.node_factor() == 4
    assert ORACLE.node_counts() == (64, 512)


# ---------------------------------------------------------------------------
# the zero-order operator on closed-form fields
# ---------------------------------------------------------------------------


def test_LK_annihilates_constants():
    val = eval_LK(unit_kernel(), const_field(3.0), np.array([0.2]), FAST)
    assert val == 0.0


def test_LK_quadratic_1d():
    # integral over [-1,1] of -y^2/|y| dy = -1, exactly
    val = eval_LK(unit_kernel(), quadratic_field(), np.array([0.0]), FAST)
    assert val == pytest.approx(-1.0, abs=1e-8)


def test_LK_quadratic_2d():
    # integrand (0 - rho^2)/rho^2 integrates to -|B_1| = -pi
    val = eval_LK(unit_kernel(), quadratic_field(), np.array([0.0, 0.0]), FAST)
    assert val == pytest.approx(-math.pi, abs=1e-7)


def test_LK_odd_field_cancels():
    val = eval_LK(unit_kernel(), linear_field(), np.array([0.0]), FAST)
    assert abs(val) < 1e-12


def test_LK_gaussian_against_exponential_integral():
    # 2 * int_0^1 (1 - e^{-rho^2}) drho/rho = Ein(1) = gamma + E_1(1)
    val = eval_LK(unit_kernel(), gaussian_field(), np.array([0.0]), ORACLE)
    assert val == pytest.approx(EULER_GAMMA + sps.exp1(1.0), abs=1e-10)


def test_LK_translation_invariance():
    u = gaussian_field()
    x0 = np.array([0.37])
    direct = eval_LK(unit_kernel(), u, x0, FAST)
    shifted = eval_LK(unit_kernel(), shift_field(u, x0), np.array([0.0]), FAST)
    assert direct == pytest.approx(shifted, abs=1e-12)


def test_LK_linearity():
    u, v = gaussian_field(), quadratic_field()
    w = field_sum([(2.0, u), (-0.5, v)])
    x = np.array([0.1])
    lu = eval_LK(unit_kernel(), u, x, FAST)
    lv = eval_LK(unit_kernel(), v, x, FAST)
    lw = eval_LK(unit_kernel(), w, x, FAST)
    assert lw == pytest.approx(2.0 * lu - 0.5 * lv, abs=1e-12)


def test_LK_comparison_at_touching_point():
    # v = u + 0.5|y|^2 touches u from above at 0, so L v(0) < L u(0);
    # here the gap is exactly 0.5 * L(quadratic)(0) = -0.5.
    u = gaussian_field()
    v = field_sum([(1.0, u), (0.5, quadratic_field())])
    lu = eval_LK(unit_kernel(), u, np.array([0.0]), FAST)
    lv = eval_LK(unit_kernel(), v, np.array([0.0]), FAST)
    assert lv < lu
    assert lv == pytest.approx(lu - 0.5, abs=1e-8)


def test_LK_error_estimate_brackets_true_error():
    x = np.array([0.3])
    val, est = eval_LK(unit_kernel(), gaussian_field(), x, FAST, return_estimate=True)
    ref = eval_LK(unit_kernel(), gaussian_field(), x, ORACLE)
    assert est > 0.0
    assert abs(val - ref) <= est
    assert est < 1e-5


def test_LK_fast_vs_oracle():
    x = np.array([0.25])
    for u in (gaussian_field(), quadratic_field(), shell_field(0.3, 0.8)):
        fast = eval_LK(sinlog_kernel(), u, x, FAST)
        slow = eval_LK(sinlog_kernel(), u, x, ORACLE)
        assert fast == pytest.approx(slow, abs=1e-4)


# ---------------------------------------------------------------------------
# far-field convolution
# ---------------------------------------------------------------------------


def test_J_conv_gaussian_against_exponential_integral():
    # 2 * int_1^inf e^{-rho^2} drho/rho = E_1(1)
    val = eval_J_conv(gaussian_field(), np.array([0.0]), FAST)
    assert val == pytest.approx(sps.exp1(1.0), abs=1e-8)
    slow = eval_J_conv(gaussian_field(), np.array([0.0]), ORACLE)
    assert val == pytest.approx(slow, abs=1e-8)


def test_J_conv_indicator_interval():
    # int_2^3 dy/y = ln(3/2) at the origin; ln(5/3) seen from x = 0.5
    u = box_field([2.0], [3.0])
    assert eval_J_conv(u, np.array([0.0]), FAST) == pytest.approx(
        math.log(1.5), abs=1e-10
    )
    assert eval_J_conv(u, np.array([0.5]), FAST) == pytest.approx(
        math.log(5.0 / 3.0), abs=1e-10
    )


def test_J_conv_vanishes_when_support_inside_unit_ball():
    tight = gaussian_field(sigma=0.02)  # support radius 0.8
    assert eval_J_conv(tight, np.array([0.0]), FAST) == 0.0
    val, est = eval_J_conv(tight, np.array([0.0]), FAST, return_estimate=True)
    assert val == 0.0 and est == 0.0


def test_J_conv_requires_bounded_support():
    with pytest.raises(ValueError):
        eval_J_conv(linear_field(), np.array([0.0]), FAST)


# ---------------------------------------------------------------------------
# logarithmic Laplacian
# ---------------------------------------------------------------------------


def test_loglap_fourier_reference_value():
    # For u(y) = e^{-y^2/2} the symbol calculus gives
    # (log-Laplacian u)(0) = -(gamma + ln 2).
    val = eval_loglap(gaussian_field(sigma=1.0), np.array([0.0]), FAST, N=1)
    assert val == pytest.approx(-(EULER_GAMMA + math.log(2.0)), abs=1e-4)
    slow = eval_loglap(gaussian_field(sigma=1.0), np.array([0.0]), ORACLE, N=1)
    assert slow == pytest.approx(-(EULER_GAMMA + math.log(2.0)), abs=1e-6)


def test_loglap_zero_field():
    zero = FieldFunction(
        evaluate=lambda Y: np.zeros(len(np.atleast_2d(Y))),
        support_radius=2.0,
    )
    val = eval_loglap(zero, np.array([0.4]), FAST, N=1)
    assert val == 0.0


def test_loglap_paths_agree():
    u = FieldFunction(
        evaluate=lambda Y: np.exp(-np.sum(np.atleast_2d(Y) ** 2, axis=1)),
        support_radius=8.0,
    )
    for x in (np.array([0.0]), np.array([0.6])):
        a = eval_loglap(u, x, FAST, N=1, path="decomposition")
        b = eval_loglap(u, x, FAST, N=1, path="direct")
        assert a == pytest.approx(b, abs=1e-5)


def test_loglap_estimate_is_finite():
    val, est = eval_loglap(
        gaussian_field(), np.array([0.0]), FAST, N=1, return_estimate=True
    )
    assert np.isfinite(val) and est >= 0.0


def test_loglap_argument_errors():
    with pytest.raises(ValueError):
        eval_loglap(gaussian_field(), np.array([0.0, 0.0]), FAST, N=1)
    with pytest.raises(ValueError):
        eval_loglap(gaussian_field(), np.array([0.0]), FAST, N=1, path="sideways")
    with pytest.raises(ValueError):
        eval_loglap(linear_field(), np.array([0.0]), FAST, N=1)  # unbounded support


# ---------------------------------------------------------------------------
# logarithmic Schrodinger operator
# ---------------------------------------------------------------------------


def test_schrodinger_annihilates_constants():
    assert eval_schrodinger(const_field(2.0), np.array([0.3]), FAST, N=1) == 0.0


def test_schrodinger_quadratic_1d():
    # -2 * int_0^inf rho e^{-rho} drho = -2
    val = eval_schrodinger(quadratic_field(), np.array([0.0]), FAST, N=1)
    assert val == pytest.approx(-2.0, abs=1e-6)


def test_schrodinger_odd_field_cancels():
    val = eval_schrodinger(linear_field(), np.array([0.0]), FAST, N=1)
    assert abs(val) < 1e-10


def test_schrodinger_dimension_check():
    with pytest.raises(ValueError):
        eval_schrodinger(quadratic_field(), np.array([0.0, 0.0]), FAST, N=1)


# ---------------------------------------------------------------------------
# mollification remainder
# ---------------------------------------------------------------------------


def test_remainder_vanishes_on_constants():
    Ki = mollify_kernel(unit_kernel(), 10)
    assert eval_remainder(Ki, const_field(1.0), np.array([0.0]), FAST) == 0.0


def test_remainder_shrinks_with_mollification_index():
    u = FieldFunction(evaluate=lambda Y: np.cos(5.0 * np.atleast_2d(Y)[:, 0]))
    x = np.array([0.0])
    vals = {}
    for i in (10, 100):
        Ki = mollify_kernel(unit_kernel(), i)
        R = eval_remainder(Ki, u, x, FAST)
        # |R_i| <= 2 ||u||_inf * Lambda * (exterior log-mass <= 2/i)
        assert abs(R) <= 2.0 * 1.0 * 1.0 * (2.0 / i)
        vals[i] = R
    assert abs(vals[100]) < abs(vals[10])
    # the leaked annulus shrinks tenfold, and so (roughly) does the remainder
    assert 0.05 < abs(vals[100] / vals[10]) < 0.25


# ---------------------------------------------------------------------------
# sector integral
# ---------------------------------------------------------------------------


def test_sector_integral_1d_closed_form():
    # int over the ball of radius r at distance d: ln((2r+d)/d); 41 = 0.205/0.005
    val = sector_integral(0.1, 0.005, 1, FAST)
    assert val == pytest.approx(math.log(41.0), rel=1e-14)


def test_sector_integral_2d_closed_form():
    # exact value pi * ln(c^2 / (d(2r+d))) with c = r+d
    for r, d in ((0.3, 0.05), (0.2, 0.01), (0.05, 0.002)):
        c = r + d
        exact = math.pi * math.log(c * c / (d * (2 * r + d)))
        val = sector_integral(r, d, 2, ORACLE)
        assert val == pytest.approx(exact, rel=1e-10)


def test_sector_integral_log_divergence():
    r = 0.05
    ratios = []
    for d in (1e-4, 1e-7, 1e-10):
        ratios.append(sector_integral(r, d, 1, FAST) / abs(math.log(d)))
    assert ratios == sorted(ratios)  # creeping up toward 1
    assert ratios[-1] > 0.9
    assert all(q < 1.0 for q in ratios)


def test_sector_integral_domain_errors():
    with pytest.raises(ValueError):
        sector_integral(1.5, 0.1, 1, FAST)
    with pytest.raises(ValueError):
        sector_integral(0.1, 0.02, 1, FAST)  # d must stay below r^2
    with pytest.raises(ValueError):
        sector_integral(0.1, 0.0, 1, FAST)
    with pytest.raises(ValueError):
        sector_integral(0.1, 0.005, 3, FAST)


# ---------------------------------------------------------------------------
# field machinery
# ---------------------------------------------------------------------------


def test_make_field_catalog():
    assert make_field("const(2)").evaluate(np.array([[0.7]]))[0] == 2.0
    assert make_field("quadratic").evaluate(np.array([[2.0]]))[0] == 4.0
    g = make_field("gaussian(0.5)")
    assert g.support_radius == pytest.approx(20.0)
    b = make_field("box(2,3)")
    assert b.evaluate(np.array([[2.5]]))[0] == 1.0
    assert b.evaluate(np.array([[3.5]]))[0] == 0.0
    # box(lo_1, lo_2, hi_1, hi_2): the numbers are shared out over lo and hi
    b2 = make_field("box(0,0,1,2)")
    assert list(b2.evaluate(np.array([[0.5, 1.5], [1.5, 0.5]]))) == [1.0, 0.0]
    assert b2.support_radius == pytest.approx(math.sqrt(5.0))
    assert make_field("gaussian()").support_radius == gaussian_field().support_radius
    s = make_field("shell(0.2,0.4)")
    assert s.support_radius == 0.4
    assert make_field("ell_profile(1)").evaluate(np.array([[0.1]]))[0] == (
        pytest.approx(1.0 / math.log(10.0))
    )


def test_make_field_rejects_garbage():
    for desc in ("frobnicate(3)", "ell_profile", "box(1)", "linear(3)", "quadratic(1,2)",
                 "const(1,2)"):
        with pytest.raises(ValueError):
            make_field(desc)


def test_shell_and_box_validation():
    with pytest.raises(ValueError):
        shell_field(0.5, 0.5)
    with pytest.raises(ValueError):
        box_field([0.0, 0.0], [1.0, 0.0])


def test_shift_field_support_grows_by_offset():
    g = gaussian_field(sigma=0.02)
    shifted = shift_field(g, np.array([3.0]))
    assert shifted.support_radius == pytest.approx(3.8)
    assert shifted.evaluate(np.array([[-3.0]]))[0] == pytest.approx(1.0)


def test_field_sum_support_propagation():
    bounded = field_sum([(1.0, shell_field(0.0, 0.5)), (2.0, box_field([1.0], [2.0]))])
    assert bounded.support_radius == pytest.approx(2.0)
    mixed = field_sum([(1.0, shell_field(0.0, 0.5)), (1.0, linear_field())])
    assert mixed.support_radius is None


def test_grid_field_wraps_interpolant():
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.25)
    u = GridFunction(grid, np.ones(grid.n))
    f = grid_field(u)
    assert f.support_radius == pytest.approx(1.0)
    assert f.evaluate(np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert f.evaluate(np.array([[1.5]]))[0] == 0.0


# ---------------------------------------------------------------------------
# the vectorized polar rule against one radial rule per ray
# ---------------------------------------------------------------------------


def _linspace_radial_rule(lo, hi, n_per_decade, breakpoints=()):
    # the per-panel construction polar_rule replaced: one linspace per panel
    edges = _quadrules.panel_edges(lo, hi, breakpoints)
    rhos, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sa, sb = math.log(a), math.log(b)
        m = max(2, 2 * math.ceil(n_per_decade * (sb - sa) / (2 * math.log(10.0))))
        rho = np.exp(np.linspace(sa, sb, m + 1))
        rho[0], rho[-1] = a * (1 + 1e-12), b * (1 - 1e-12)
        w = np.full(m + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        rhos.append(rho)
        wts.append(w * ((sb - sa) / m / 3.0))
    return np.concatenate(rhos), np.concatenate(wts)


def _per_ray_polar_rule(N, n_angular, lo, hi, n_per_decade, breaks_for_ray):
    thetas, ang_w = _quadrules.unit_directions(N, n_angular)
    Z, rho, w = [], [], []
    for th, aw in zip(thetas, ang_w):
        r, wr = _linspace_radial_rule(lo, hi, n_per_decade, breaks_for_ray(th))
        Z.append(r[:, None] * th)
        rho.append(r)
        w.append(aw * wr)
    return np.concatenate(Z), np.concatenate(rho), np.concatenate(w)


def _per_ray_polar_sum(x, N, cfg, level, lo, hi, integrand, breaks_for_ray):
    # one radial rule and one integrand call per ray, summed ray by ray
    n_ang = max(4, int(round(cfg.n_angular * level)))
    n_rad = max(2, int(round(cfg.n_radial * level)))
    thetas, ang_w = _quadrules.unit_directions(N, n_ang)
    total = 0.0
    for th, aw in zip(thetas, ang_w):
        rho, w = _linspace_radial_rule(lo, hi, n_rad, breaks_for_ray(th))
        Z = rho[:, None] * th
        total += aw * float(np.sum(w * integrand(Z, rho, x + Z)))
    return total


# breaks on decade edges, just off them, and within 1e-10 of each other
_COLLIDING = [1e-2, 1e-2 * (1 + 1e-11), 0.1 * (1 - 1e-11), 0.3, 0.3 * (1 + 5e-11), 1e-6]


@pytest.mark.parametrize("N", [1, 2])
def test_polar_rule_matches_per_ray_radial_rules(N):
    def breaks(th):
        # a break that moves with the ray, on half the rays only
        return _COLLIDING + ([0.05 / (th[0] + 0.1)] if th[0] > 0 else [])

    lo, hi, n_ang, n_rad = 1e-12, 1.0, 16, 128
    Z, rho, w = _quadrules.polar_rule(N, n_ang, lo, hi, n_rad, breaks)
    thetas, ang_w = _quadrules.unit_directions(N, n_ang)
    rules = [_quadrules.radial_rule(lo, hi, n_rad, breaks(th)) for th in thetas]
    concatenated = (
        np.concatenate([r[:, None] * th for (r, _), th in zip(rules, thetas)]),
        np.concatenate([r for r, _ in rules]),
        np.concatenate([aw * wr for (_, wr), aw in zip(rules, ang_w)]),
    )
    assert len({len(r) for r, _ in rules}) > 1
    for ref in (concatenated, _per_ray_polar_rule(N, n_ang, lo, hi, n_rad, breaks)):
        for got, want in zip((Z, rho, w), ref):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    # Simpson in ln(rho) integrates d(rho)/rho exactly
    assert np.sum(w) == pytest.approx(np.sum(ang_w) * math.log(hi / lo), rel=1e-13)


def test_panel_edges_keep_one_panel_when_hi_collides_with_lo():
    # hi within the 1e-10 merge tolerance of lo still spans one panel
    assert _quadrules.panel_edges(1.0, 1.0 + 1e-11) == [1.0, 1.0 + 1e-11]
    rho, w = _quadrules.radial_rule(1.0, 1.0 + 1e-11, 128)
    assert np.all((rho > 1.0) & (rho < 1.0 + 1e-11))
    assert np.sum(w) == pytest.approx(math.log1p(1e-11), rel=1e-4)


_BARRIER_CASES = {
    "bump": (lambda N: bump_field(0.3), 0.0, 0.3),
    "boundary": (lambda N: boundary_barrier_field(0.2, 0.5), 0.2, 0.3),
    "composite": (
        lambda N: composite_barrier_field(0.05, 0.5, gain_shell(0.05, 1.0, N)[0]),
        0.0,
        0.005,
    ),
    # supported past |x| + 1, so J and the log-Laplacian's far range are not empty
    "shell": (lambda N: shell_field(0.1, 1.2), 0.0, 0.3),
}


def _evaluators(u, N):
    """Every pointwise evaluator as a function of x; J and the logarithmic
    Laplacian need a field with declared support."""
    Ki = mollify_kernel(sinlog_kernel(), 2)
    evals = [
        lambda x: eval_LK(unit_kernel(), u, x, FAST),
        lambda x: eval_LK(sinlog_kernel(), u, x, FAST),
        lambda x: eval_schrodinger(u, x, FAST, N),
        lambda x: eval_remainder(Ki, u, x, FAST),
    ]
    if u.support_radius is not None:
        evals += [
            lambda x: eval_J_conv(u, x, FAST),
            lambda x: eval_loglap(u, x, FAST, N, path="direct"),
        ]
    return evals


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("case", list(_BARRIER_CASES))
def test_eval_LK_matches_per_ray_polar_sum(case, N, monkeypatch):
    # every evaluator, not only eval_LK, against ray-by-ray radial rules
    make_field, r_lo, r_hi = _BARRIER_CASES[case]
    u = make_field(N)
    pts = sample_annulus(4, N, r_lo, r_hi)
    evals = _evaluators(u, N)
    vals = [f(x) for f in evals for x in pts]
    monkeypatch.setattr(nonlocal_eval, "_polar_sum", _per_ray_polar_sum)
    ref = [f(x) for f in evals for x in pts]
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)


_ASSEMBLY_CASES = {
    "1d-unit": ("generic", Domain.interval(-0.5, 0.5), 0.05, unit_kernel),
    "1d-sinlog": ("generic", Domain.interval(-0.5, 0.5), 0.05, sinlog_kernel),
    "2d-unit": ("generic", Domain.ball([0.3, -0.2], 0.1), 0.02, unit_kernel),
    "2d-sinlog": ("generic", Domain.ball([0.3, -0.2], 0.1), 0.02, sinlog_kernel),
    "2d-loglap-box-farfield": (
        "loglap", Domain.box([-0.6, -0.4], [0.4, 0.5]), 0.1, None
    ),
}


@pytest.mark.parametrize("case", list(_ASSEMBLY_CASES))
def test_assembly_matches_per_ray_offsets(case, monkeypatch):
    operator, domain, h, make_kernel = _ASSEMBLY_CASES[case]
    grid = build_grid(domain, h)
    problem = ProblemSpec(
        operator=operator,
        domain=domain,
        rhs=const_field(1.0),
        kernel=make_kernel() if make_kernel else None,
    )
    A = assemble(problem, grid, FAST).matrix
    monkeypatch.setattr(_quadrules, "polar_rule", _per_ray_polar_rule)
    ref = assemble(problem, grid, FAST).matrix
    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))
