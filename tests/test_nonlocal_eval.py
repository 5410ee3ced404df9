import math
import pathlib
import re

import numpy as np
import pytest
import scipy.special as sps

from conftest import spectral
from logop import _quadrules, kernels, nonlocal_eval
from logop.barriers import (
    _scan,
    boundary_barrier_field,
    bump_field,
    composite_barrier_field,
    gain_shell,
    sample_annulus,
)
from logop.geometry import Domain, GridFunction, build_grid
from logop.kernels import KernelSpec, mollify_kernel, sinlog_kernel, unit_kernel
from logop.logmod import RHO0, ell
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
    assert FAST.node_counts() == (16, 128)
    assert FAST.node_counts(0.5) == (8, 64)
    assert ORACLE.node_counts() == (64, 512)
    assert ORACLE.node_counts(0.5) == (32, 256)
    # the floors of 4 angles and 2 subintervals per decade
    assert FAST.node_counts(0.01) == (4, 2)


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


@pytest.mark.parametrize("x", [[0.0], [0.3], [0.0, 0.0], [0.2, -0.1]])
def test_LK_sinlog_quadratic_closed_form(x):
    # -|S^(N-1)| int_0^1 (1 + sin(ln rho)/2) rho drho, and int_0^1 rho
    # sin(ln rho) drho = Im 1/(2 + i) = -1/5: -0.8 in 1-D, -0.8 pi in 2-D
    val = eval_LK(sinlog_kernel(), quadratic_field(), np.array(x), FAST)
    assert val == pytest.approx(-0.8 * (math.pi if len(x) == 2 else 1.0), abs=1e-7)


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


# bounds: about twice the largest errors of the default rule on these cases
# when they were written (2.4e-15, 1.1e-15 and 1.8e-12)
@pytest.mark.parametrize(
    "N, points, bound",
    [
        (1, [(-0.9,), (-0.35,), (0.0,), (0.35,), (0.9,)], 5e-15),
        (2, [(0.0, 0.0), (0.4, 0.0), (0.24, -0.32)], 2.5e-15),
    ],
    ids=["1d", "2d"],
)
def test_loglap_matches_its_symbol(N, points, bound):
    sigma = math.sqrt(0.5)
    for x in points:
        got = eval_loglap(gaussian_field(sigma), np.array(x), FAST, N=N)
        want = spectral(lambda xi: 2 * np.log(xi), sigma, math.hypot(*x), N)
        assert abs(got - want) <= bound


def test_schrodinger_matches_its_symbol():
    sigma = math.sqrt(0.5)
    for x in (-0.9, 0.0, 0.35):
        got = eval_schrodinger(gaussian_field(sigma), np.array([x]), FAST, N=1)
        want = spectral(lambda xi: np.log1p(xi * xi), sigma, abs(x), 1)
        assert abs(got - want) <= 3.5e-12


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


def _per_ray_panel_edges(lo, hi, breakpoints=()):
    # the per-ray panel_edges that the vectorized one replaced
    if not lo < hi:
        raise ValueError("empty radial range")
    edges = {lo, hi}
    k = math.ceil(math.log10(lo) + 1e-12)
    while 10.0 ** k < hi * (1 - 1e-12):
        if 10.0 ** k > lo * (1 + 1e-12):
            edges.add(10.0 ** k)
        k += 1
    for b in breakpoints:
        if lo * (1 + 1e-10) < b < hi * (1 - 1e-10):
            edges.add(float(b))
    out = sorted(edges)
    merged = [out[0]]
    for e in out[1:]:
        if e > merged[-1] * (1 + 1e-10):
            merged.append(e)
    if len(merged) == 1:
        return [lo, hi]
    merged[-1] = hi
    return merged


def _sphere_crossings(x, theta, radius):
    # positive ray parameters rho with |x + rho*theta| = radius
    b = float(np.dot(x, theta))
    c = float(np.dot(x, x)) - radius * radius
    disc = b * b - c
    if disc < 0:
        return []
    root = math.sqrt(disc)
    return [t for t in (-b - root, -b + root) if t > 0]


def _closest_approach(x, theta):
    # ray parameter of the point closest to the origin, if ahead of x
    t = -float(np.dot(x, theta))
    return [t] if t > 0 else []


def _plane_crossings(x, theta, axis, offset):
    # the ray parameter where x + t*theta crosses the plane y[axis] = offset
    if theta[axis] == 0.0:
        return []
    t = (offset - x[axis]) / theta[axis]
    return [float(t)] if t > 0 else []


def _per_ray_breaks(x, theta, kinks=_quadrules.Kinks(), radii=()):
    # the breaks of one ray from the per-ray formulas the break closures used
    x = np.asarray(x, dtype=float)
    out = list(radii)
    centres = {c or (0.0,) * len(x) for c, _ in kinks.spheres}
    for c in centres:
        out += _closest_approach(x - np.array(c), theta)
    for c, R in kinks.spheres:
        out += _sphere_crossings(x - np.array(c or (0.0,) * len(x)), theta, R)
    for axis, offset in kinks.planes:
        out += _plane_crossings(x, theta, axis, offset)
    return sorted(out)


def _row(breaks):
    return sorted(b for b in breaks if b < np.inf)


def _linspace_radial_rule(lo, hi, n_per_decade, breakpoints=()):
    # the per-panel construction polar_rule replaced: one linspace per panel
    edges = _per_ray_panel_edges(lo, hi, breakpoints)
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


def _per_ray_polar_rule(N, n_angular, lo, hi, n_per_decade, radii=(),
                        kinks=_quadrules.Kinks()):
    thetas, ang_w = _quadrules.unit_directions(N, n_angular)
    Z, rho, w = [], [], []
    for th, aw in zip(thetas, ang_w):
        breaks = _per_ray_breaks(np.zeros(N), th, kinks, radii)
        r, wr = _linspace_radial_rule(lo, hi, n_per_decade, breaks)
        Z.append(r[:, None] * th)
        rho.append(r)
        w.append(aw * wr)
    return np.concatenate(Z), np.concatenate(rho), np.concatenate(w)


def _per_ray_polar_sum(x, n_ang, n_rad, lo, hi, integrand, profile=None,
                       kinks=_quadrules.Kinks(), radii=()):
    # one radial rule and one integrand call per ray, summed ray by ray, the
    # profile evaluated at every node
    thetas, ang_w = _quadrules.unit_directions(len(x), n_ang)
    total = 0.0
    for th, aw in zip(thetas, ang_w):
        breaks = _per_ray_breaks(x, th, kinks, radii)
        rho, w = _linspace_radial_rule(lo, hi, n_rad, breaks)
        Z = rho[:, None] * th
        vals = integrand(Z, x + Z)
        if profile is not None:
            vals = vals * profile(rho)
        total += aw * float(np.sum(w * vals))
    return total


_UNIT_SPHERE = _quadrules.sphere_kinks([1.0])


@pytest.mark.parametrize(
    "x, theta, want",
    [
        ((-2.0, 1.0), (1.0, 0.0), [2.0, 2.0, 2.0]),  # tangent: both roots and the approach
        ((0.5, 0.0), (-1.0, 0.0), [0.5, 1.5]),       # through the centre
        ((1.0, 0.0), (-1.0, 0.0), [1.0, 2.0]),       # from a point on the sphere
        ((0.6, 0.8), (0.0, -1.0), [0.8, 1.6]),
        ((0.0, 0.0), (0.6, 0.8), [1.0]),             # from the centre
        ((3.0, 0.0), (0.0, 1.0), []),                # a miss, x itself closest
    ],
)
def test_ray_breaks_on_special_rays(x, theta, want):
    x, theta = np.array(x), np.array(theta)
    got = _quadrules.ray_breaks(x, theta[None, :], _UNIT_SPHERE)
    assert _row(got[0]) == want == _per_ray_breaks(x, theta, _UNIT_SPHERE)


def test_ray_breaks_on_planes_parallel_to_the_ray():
    box = box_field([0.2, -0.5], [0.7, 0.5])
    thetas = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    got = _quadrules.ray_breaks(np.zeros(2), thetas, box.kinks)
    assert [_row(r) for r in got] == [[0.2, 0.7], [], [0.5]]
    for th, row in zip(thetas, got):
        assert _row(row) == _per_ray_breaks(np.zeros(2), th, box.kinks)


_KINK_FIELDS = {
    "ell_profile": lambda N: make_field("ell_profile(0.5)"),
    "shell": lambda N: shell_field(0.1, 0.4),
    "box": lambda N: box_field([-0.3] * N, [0.2] * N),
    "composite": lambda N: composite_barrier_field(0.05, 0.5, gain_shell(0.05, 0.5, N)[0]),
    "shifted-sum": lambda N: shift_field(
        field_sum([(1.0, box_field([0.1] * N, [0.3] * N)),
                   (2.0, shift_field(shell_field(0.05, 0.2), [0.1] * N))]),
        [-0.05, 0.15][:N],
    ),
}


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("case", list(_KINK_FIELDS))
def test_ray_breaks_match_per_ray_formulas(case, N):
    u = _KINK_FIELDS[case](N)
    rng = np.random.default_rng(3)
    thetas, _ = _quadrules.unit_directions(N, 16)
    thetas = np.concatenate([thetas, rng.normal(size=(16, N))])
    for x in rng.uniform(-0.5, 0.5, size=(6, N)):
        got = _quadrules.ray_breaks(x, thetas, u.kinks, (0.3, 1e-3))
        for th, row in zip(thetas, got):
            # the same arithmetic as the per-ray formulas, to the bit
            assert _row(row) == _per_ray_breaks(x, th, u.kinks, (0.3, 1e-3))


def test_composed_kinks_are_those_of_the_parts():
    # field_sum breaks a ray where any term does; shift_field where the
    # unshifted field breaks the ray from the shifted base point
    N, x0, x = 2, np.array([0.2, -0.1]), np.array([0.05, 0.3])
    f, g = shell_field(0.1, 0.3), box_field([0.0, 0.0], [0.2, 0.4])
    thetas, _ = _quadrules.unit_directions(N, 16)
    total = field_sum([(1.0, f), (-1.0, shift_field(g, x0))])
    got = _quadrules.ray_breaks(x, thetas, total.kinks)
    for th, row in zip(thetas, got):
        want = sorted(_per_ray_breaks(x, th, f.kinks) + _per_ray_breaks(x + x0, th, g.kinks))
        np.testing.assert_allclose(_row(row), want, rtol=1e-12, atol=0)


# breaks on decade edges, just off them, and within 1e-10 of each other
_RADII = (1e-2, 1e-2 * (1 + 1e-11), 0.1 * (1 - 1e-11), 0.3, 0.3 * (1 + 5e-11), 1e-6)


@pytest.mark.parametrize("N", [1, 2])
def test_polar_rule_matches_per_ray_radial_rules(N):
    # radii shared by every ray: each ray carries the same cached radial rule,
    # to the bit the rule built ray by ray
    lo, hi, n_ang, n_rad = 1e-12, 1.0, 16, 128
    ang_w = _quadrules.unit_directions(N, n_ang)[1]
    for radii in ((), _RADII):
        Z, rho, w = _quadrules.polar_rule(N, n_ang, lo, hi, n_rad, radii)
        ref = _per_ray_polar_rule(N, n_ang, lo, hi, n_rad, radii)
        for got, want in zip((Z, rho, w), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert Z.flags.f_contiguous
        # Simpson in ln(rho) integrates d(rho)/rho exactly
        assert np.sum(w) == pytest.approx(np.sum(ang_w) * math.log(hi / lo), rel=1e-13)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("make_kernel", [unit_kernel, sinlog_kernel])
def test_regularity_integral_matches_per_ray_rule(N, make_kernel):
    # the rays break where they leave the unit spheres around -+w/2, at
    # radii that differ from ray to ray: polar_sum against the dot product
    # over the rule built ray by ray with the same breaks
    K = make_kernel()
    z, w = np.array([0.1, -0.2][:N]), np.array([0.004, 0.003][:N])
    half, n_ang, n_rad = w / 2, 16, 128
    lo, hi = 2 * np.linalg.norm(w), 1 + np.linalg.norm(w) / 2
    kinks = _quadrules.sphere_kinks([1.0], -half) + _quadrules.sphere_kinks([1.0], half)
    xi, rho, wt = _per_ray_polar_rule(N, n_ang, lo, hi, n_rad, (RHO0,), kinks)
    thetas = _quadrules.unit_directions(N, n_ang)[0]
    breaks = _quadrules.ray_breaks(np.zeros(N), thetas, kinks, (RHO0,))
    edges = _quadrules.panel_edges(lo, hi, breaks)
    assert N == 1 or not np.all(edges == edges[0])  # 1-D: the two rays mirror
    terms = []
    for s in (1, -1):
        r = _quadrules.radius(xi + s * half)
        terms.append(np.where(r < 1, K.evaluate(z + s * half, xi + s * half) / r ** N, 0.0))
    ref = float(np.dot(wt, np.abs(terms[0] - terms[1]) * ell(rho) * rho ** N))
    got = kernels._regularity_integral(K, z, w, n_rad, n_ang)
    assert got == pytest.approx(ref, rel=1e-13)


def test_panel_edges_merge_chains_as_the_per_ray_edges_do():
    # each break within 1e-10 of the one before: the per-ray merge keeps every
    # second one, since it compares with the last edge kept
    chain = [0.2 * (1 + 0.6e-10) ** k for k in range(6)]
    breaks = [chain, chain[1:], [0.5, 0.5, 0.5 * (1 + 2e-10)], []]
    rows = [b + [np.inf] * (6 - len(b)) for b in breaks]
    edges = _quadrules.panel_edges(1e-3, 1.0, rows)
    for row, b in zip(edges, breaks):
        assert _row(row) == _per_ray_panel_edges(1e-3, 1.0, b)


def test_panel_edges_keep_one_panel_when_hi_collides_with_lo():
    # hi within the 1e-10 merge tolerance of lo still spans one panel
    assert _quadrules.panel_edges(1.0, 1.0 + 1e-11).tolist() == [[1.0, 1.0 + 1e-11]]
    rho, w = _quadrules.radial_rule(1.0, 1.0 + 1e-11, 128)
    assert np.all((rho > 1.0) & (rho < 1.0 + 1e-11))
    assert np.sum(w) == pytest.approx(math.log1p(1e-11), rel=1e-4)


@pytest.mark.parametrize("N", [1, 2])
def test_radius_is_the_row_norm(N):
    Y = np.random.default_rng(5).normal(size=(1000, N)) * np.logspace(-150, 150, 1000)[:, None]
    assert np.array_equal(_quadrules.radius(Y), np.linalg.norm(Y, axis=1))
    assert np.array_equal(_quadrules.radius(Y, squared=True), np.sum(Y ** 2, axis=1))


# ---------------------------------------------------------------------------
# polar_sum in blocks of rays against one block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "N, cfg, level, blocks",
    [
        # (blocks of the shared nodes, blocks of the tails)
        (1, FAST, 1.0, (1, 1)),
        (2, FAST, 1.0, (2, 2)),
        (2, FAST, 0.5, (1, 1)),  # the half level of return_estimate
        # 64 rays of ~3600 shared nodes and ~2600 tail nodes
        (2, ORACLE, 1.0, (32, 22)),
        # every ray has more shared nodes than a block: one ray per block
        (1, QuadratureConfig(n_radial=1024), 1.0, (2, 2)),
        (2, QuadratureConfig(n_radial=1024), 1.0, (16, 16)),
    ],
    ids=["1d", "2d", "2d-half", "2d-oracle", "1d-long-rays", "2d-long-rays"],
)
def test_blocked_polar_sum_matches_one_block(N, cfg, level, blocks, monkeypatch):
    u = composite_barrier_field(0.05, 0.5, gain_shell(0.05, 1.0, N)[0])
    x = sample_annulus(3, N, 0.0, 0.005)[2]
    K = sinlog_kernel()
    ux = float(u.evaluate(x[None, :])[0])
    sizes = []

    def integrand(Z, Y):
        sizes.append(len(Z))
        return (ux - u.evaluate(Y)) * K.evaluate(x, Z)

    n_ang, n_rad = cfg.node_counts(level)
    args = (x, n_ang, n_rad, cfg.r_min, 1.0, integrand, None, u.kinks, (0.3,))
    value = _quadrules.polar_sum(*args)
    blocked, sizes[:] = sizes[:], []
    monkeypatch.setattr(_quadrules, "_BLOCK_NODES", 10 ** 12)
    assert _quadrules.polar_sum(*args) == pytest.approx(value, rel=1e-13)
    # one block per part: the shared nodes of every ray, then every tail
    shared, tails = blocked[:blocks[0]], blocked[blocks[0]:]
    assert len(sizes) == 2 and [sum(shared), sum(tails)] == sizes
    assert (len(shared), len(tails)) == blocks
    # blocks of whole rays, each within the budget unless one ray exceeds it
    rays = len(_quadrules.unit_directions(N, n_ang)[0])
    for part in (shared, tails):
        assert max(part) <= 8192 or len(part) == rays


@pytest.mark.parametrize("N", [1, 2])
def test_scan_builds_each_shared_rule_once(N):
    # the rays around every sampled point share the decades up to the first
    # crossing of the barrier's kink, so a few cached rules serve 32 points
    r = 0.05
    pts = sample_annulus(32, N, r, r + r * r)
    _quadrules.shared_radial_nodes.cache_clear()
    _scan(sinlog_kernel(), boundary_barrier_field(r, 0.3), pts, FAST)
    info = _quadrules.shared_radial_nodes.cache_info()
    assert info.hits + info.misses == len(pts)
    assert info.misses == info.currsize <= 3


def test_blocked_estimate_matches_one_block(monkeypatch):
    u = composite_barrier_field(0.05, 0.5, gain_shell(0.05, 1.0, 2)[0])
    x = sample_annulus(3, 2, 0.0, 0.005)[2]
    value, est = eval_LK(sinlog_kernel(), u, x, FAST, return_estimate=True)
    monkeypatch.setattr(_quadrules, "_BLOCK_NODES", 10 ** 12)
    ref, ref_est = eval_LK(sinlog_kernel(), u, x, FAST, return_estimate=True)
    assert value == pytest.approx(ref, rel=1e-13)
    assert abs(est - ref_est) <= 1e-13 * abs(ref)


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


# translation invariant but not radial, so without a profile: its weight is
# evaluated at every node, shared ones included
_ANISOTROPIC = KernelSpec(
    evaluate=lambda x, Z: 1.0 + 0.5 * Z[:, 0] / _quadrules.radius(Z),
    lam=0.5,
    Lam=1.5,
    name="anisotropic",
)


def _evaluators(u, N):
    """Every pointwise evaluator as a function of x; J and the logarithmic
    Laplacian need a field with declared support."""
    Ki = mollify_kernel(sinlog_kernel(), 2)
    evals = [
        lambda x: eval_LK(unit_kernel(), u, x, FAST),
        lambda x: eval_LK(sinlog_kernel(), u, x, FAST),
        lambda x: eval_LK(_ANISOTROPIC, u, x, FAST),
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
    monkeypatch.setattr(_quadrules, "polar_sum", _per_ray_polar_sum)
    ref = [f(x) for f in evals for x in pts]
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("N", [1, 2])
def test_polar_sum_with_no_shared_panel_matches_per_ray(N, monkeypatch):
    # one ray meets the shell within the innermost decade, so the rays share
    # no panel and every node is on a tail
    u = shell_field(0.1, 0.4)
    x = np.array([0.1 + 5e-12, 0.0][:N])
    thetas, _ = _quadrules.unit_directions(N, FAST.n_angular)
    edges = _quadrules.panel_edges(FAST.r_min, 1.0, _quadrules.ray_breaks(x, thetas, u.kinks))
    assert not np.all(edges[:, 1] == edges[0, 1])
    vals = [eval_LK(K, u, x, FAST) for K in (sinlog_kernel(), _ANISOTROPIC)]
    monkeypatch.setattr(_quadrules, "polar_sum", _per_ray_polar_sum)
    ref = [eval_LK(K, u, x, FAST) for K in (sinlog_kernel(), _ANISOTROPIC)]
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


def test_second_assembly_reuses_the_cached_radial_rule():
    # assembly's rays share their radii, so every range of the operator is one
    # shared_radial_nodes entry, built by the first assembly only
    operator, domain, h, make_kernel = _ASSEMBLY_CASES["2d-loglap-box-farfield"]
    problem = ProblemSpec(operator=operator, domain=domain, rhs=const_field(1.0))
    grid = build_grid(domain, h)
    _quadrules.shared_radial_nodes.cache_clear()
    first = assemble(problem, grid, FAST).matrix
    built = _quadrules.shared_radial_nodes.cache_info()
    assert built.misses == 2 and built.hits == 0  # the near and the far range
    assert np.array_equal(assemble(problem, grid, FAST).matrix, first)
    again = _quadrules.shared_radial_nodes.cache_info()
    assert (again.misses, again.hits) == (2, 2)


def test_only_quadrules_builds_per_ray_breaks_and_panels():
    # one polar quadrature engine: the per-ray pieces are composed in
    # _quadrules (polar_sum, polar_rule) and named nowhere else
    pieces = re.compile(r"\b(ray_breaks|panel_edges|ray_panels|polar_nodes)\b")
    package = pathlib.Path(_quadrules.__file__).parent
    named = {
        path.name: sorted(set(pieces.findall(path.read_text())))
        for path in package.glob("*.py")
        if path.name != "_quadrules.py"
    }
    assert len(named) >= 8
    assert {name: found for name, found in named.items() if found} == {}
