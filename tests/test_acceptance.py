"""End-to-end acceptance gate.

Eleven numbered criteria, each printing a single [PASS]/[FAIL] verdict line
through conftest.record_criterion; the collected lines are echoed again in
the terminal summary.  Every expected value here is either a closed form, an
independent scipy oracle, or a structural property -- nothing is read back
from the library being tested.
"""

import math
import time

import numpy as np
import pytest
import scipy.special as sps

from conftest import record_criterion, spectral
from logop import barriers
from logop.geometry import Domain, GridFunction, build_grid, dist_to_boundary
from logop.kernels import loglap_constants, mollify_kernel, sinlog_kernel, unit_kernel
from logop.logmod import ell
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
    gaussian_field,
    grid_field,
    quadratic_field,
    sector_integral,
)
from logop.solver import (
    ProblemSpec,
    assemble,
    fredholm_sweep,
    solve_dirichlet,
    torsion_scan,
)
from logop.regularity import estimate_regularity

FAST = QuadratureConfig()
ORACLE = QuadratureConfig(mode="oracle")
GAMMA = 0.5772156649015329


def _within_of_mean(values, rel):
    mean = sum(values) / len(values)
    return mean != 0 and all(abs(v - mean) <= rel * abs(mean) for v in values)


@pytest.fixture(scope="module")
def torsion_problem():
    return ProblemSpec(
        operator="generic",
        domain=Domain.ball([0.0], 0.25),
        rhs=const_field(1.0),
        kernel=unit_kernel(),
    )


@pytest.fixture(scope="module")
def torsion_solutions(torsion_problem):
    """The 1-D torsion solution at two grid levels (shared by criteria 7/8)."""
    out = {}
    for h in (5e-4, 2.5e-4):
        grid = build_grid(torsion_problem.domain, h)
        u, report = solve_dirichlet(torsion_problem, grid, FAST)
        assert report.alternative == "unique_solution"
        assert report.mp_audit["pass"]
        out[h] = u
    return out


def test_criterion_1_closed_form_battery():
    t0 = time.time()
    checks = [
        (
            "LK quadratic at 0",
            eval_LK(unit_kernel(), quadratic_field(), np.array([0.0]), ORACLE),
            -1.0,
            1e-8,
        ),
        (
            "LK quadratic at 0.3",  # the x-dependence cancels for u = y^2
            eval_LK(unit_kernel(), quadratic_field(), np.array([0.3]), ORACLE),
            -1.0,
            1e-8,
        ),
        (
            "LK gaussian",
            eval_LK(unit_kernel(), gaussian_field(), np.array([0.0]), ORACLE),
            GAMMA + float(sps.exp1(1.0)),
            1e-6,
        ),
        (
            "schrodinger quadratic",
            eval_schrodinger(quadratic_field(), np.array([0.0]), ORACLE, N=1),
            -2.0,
            1e-6,
        ),
        (
            "J on [2,3]",
            eval_J_conv(box_field([2.0], [3.0]), np.array([0.0]), ORACLE),
            math.log(1.5),
            1e-8,
        ),
        ("sector", sector_integral(0.1, 0.005, 1, ORACLE), math.log(41.0), 1e-8),
    ]
    elapsed = time.time() - t0
    worst_label, worst = "", 0.0
    for label, value, target, tol in checks:
        q = abs(value - target) / tol
        if q > worst:
            worst_label, worst = label, q
    ok = worst <= 1.0 and elapsed < 10.0
    assert record_criterion(
        1,
        "closed-form operator battery",
        ok,
        f"worst {worst_label} at {worst:.2g}x tolerance, {elapsed:.1f}s",
    )


def test_criterion_2_decomposition_consistency():
    # the log-Laplacian of the Gaussian exp(-|y|^2) against the inverse
    # Fourier transform of its symbol 2 ln|xi| times the transform
    sigma = math.sqrt(0.5)
    gaps = []
    for x in (-0.9, -0.35, 0.0, 0.35, 0.9):
        got = eval_loglap(gaussian_field(sigma), np.array([x]), FAST, N=1)
        gaps.append(abs(got - spectral(lambda xi: 2 * np.log(xi), sigma, abs(x), 1)))
    symbol_val = eval_loglap(gaussian_field(sigma=1.0), np.array([0.0]), FAST, N=1)
    symbol_gap = abs(symbol_val - (-(GAMMA + math.log(2.0))))
    ok = max(gaps) <= 1e-5 and symbol_gap <= 1e-4
    assert record_criterion(
        2,
        "log-Laplacian against its Fourier symbol",
        ok,
        f"max spectral gap {max(gaps):.2e}, symbol gap {symbol_gap:.2e}",
    )


def test_criterion_3_constants_identities():
    worst = 0.0
    for N in (1, 2, 3, 4):
        consts = loglap_constants(N)
        c_ref = math.pi ** (-N / 2.0) * float(sps.gamma(N / 2.0))
        rho_ref = 2.0 * math.log(2.0) + float(sps.psi(N / 2.0)) - GAMMA
        worst = max(worst, abs(consts.c_N - c_ref), abs(consts.rho_N - rho_ref))
    ok = worst <= 1e-10
    assert record_criterion(
        3, "normalizing constants vs digamma identities", ok, f"worst {worst:.2e}"
    )


def _random_nonneg_fields(N, count, seed):
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        a = float(rng.normal())
        w = rng.normal(size=N)
        c = float(rng.normal())

        def evaluate(Y, a=a, w=w, c=c):
            Y = np.atleast_2d(Y)
            return np.abs(a + Y @ w + c * np.sum(Y * Y, axis=1))

        fields.append(FieldFunction(evaluate=evaluate))
    return fields


def test_criterion_4_maximum_principle_suite():
    t0 = time.time()
    cases = [
        (Domain.interval(-0.25, 0.25), (0.005, 0.0025)),
        (Domain.ball([0.0, 0.0], 0.25), (0.04, 0.02)),
    ]
    ok = True
    notes = []
    for domain, levels in cases:
        fields = _random_nonneg_fields(domain.N, 20, seed=20260813 + domain.N)
        sup_constants = []
        for h in levels:
            grid = build_grid(domain, h)
            template = ProblemSpec(
                operator="generic", domain=domain, rhs=fields[0], kernel=unit_kernel()
            )
            sm = assemble(template, grid, FAST)
            level_c = 0.0
            for f in fields:
                problem = ProblemSpec(
                    operator="generic", domain=domain, rhs=f, kernel=unit_kernel()
                )
                u, report = solve_dirichlet(problem, grid, FAST, stiffness=sm)
                ok = ok and report.mp_audit["pass"]
                level_c = max(level_c, report.mp_audit["sup_ratio"])
            sup_constants.append(level_c)
        drift = abs(sup_constants[1] - sup_constants[0]) / max(sup_constants)
        ok = ok and drift <= 0.2
        notes.append(f"{domain.N}-D C={sup_constants[-1]:.3f} drift {drift:.1%}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    assert record_criterion(
        4,
        "maximum principle on random nonnegative data",
        ok,
        "; ".join(notes) + f", {elapsed:.0f}s",
    )


def test_criterion_5_barrier_suite():
    t0 = time.time()
    ok = True
    notes = []

    for K in (unit_kernel(), sinlog_kernel()):
        for r in (0.05, 0.02):
            out = barriers.verify_boundary_barrier(K, r, [0.1, 0.25, 0.5], FAST)
            ok = ok and out["delta_hat"] > 0
    notes.append("boundary margins positive")

    bump = barriers.verify_bump(unit_kernel(), [0.05, 0.005], FAST)
    ok = ok and bump["stable"] and math.isfinite(bump["C_hat"])

    gains = [barriers.verify_gain(unit_kernel(), rho, FAST) for rho in (0.01, 0.001)]
    ok = ok and all(g["pass"] for g in gains)
    ok = ok and _within_of_mean([g["c_hat"] for g in gains], 0.25)

    tails = [barriers.verify_tail(unit_kernel(), rho, 0.25, FAST) for rho in (1e-3, 1e-4)]
    ok = ok and _within_of_mean([t["C_hat"] for t in tails], 0.25)
    notes.append(f"bump C={bump['C_hat']:.2f}, gain/tail stable")

    expo = barriers.verify_exponential(unit_kernel(), [1.0], FAST)
    expo_gap = abs(expo["c0_hat"] - 0.5213025)
    ok = ok and expo_gap <= 1e-5
    notes.append(f"exponential gap {expo_gap:.1e}")

    comp = barriers.verify_composite(unit_kernel(), 0.05, [0.25, 0.1, 0.05], FAST)
    ok = ok and comp["max_value"] < 0 and comp["delta_hat"] > 0
    notes.append(f"composite alpha*={comp['alpha_star']:g}")

    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    assert record_criterion(
        5, "barrier suite", ok, "; ".join(notes) + f", {elapsed:.0f}s"
    )


def test_criterion_6_torsion_scaling():
    t0 = time.time()
    template = ProblemSpec(
        operator="generic",
        domain=Domain.ball([0.0], 0.05),
        rhs=const_field(1.0),
        kernel=unit_kernel(),
    )
    rows = torsion_scan([0.05, 0.025, 0.0125], template, FAST, nodes_across=80)
    ratios = [row["ratio"] for row in rows]
    bracket = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    ok = bracket < 3.0 and elapsed < 120.0
    assert record_criterion(
        6,
        "torsion maximum tracks the log modulus",
        ok,
        f"ratios {[round(q, 3) for q in ratios]}, bracket {bracket:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_boundary_exponent(torsion_solutions):
    fits = estimate_regularity(torsion_solutions[2.5e-4], "const(1)")
    ok = 0.35 <= fits["alpha_boundary"] <= 0.65

    syn_dom = Domain.interval(-1.0, 1.0)
    grid = build_grid(syn_dom, 0.005)
    d = dist_to_boundary(syn_dom, grid.nodes)
    synthetic = GridFunction(grid, ell(np.maximum(d, 1e-300), 0.5))
    syn = estimate_regularity(synthetic, "synthetic ell^0.5(d)")
    ok = ok and abs(syn["alpha_boundary"] - 0.5) <= 0.02
    assert record_criterion(
        7,
        "boundary exponent near one half",
        ok,
        f"torsion boundary {fits['alpha_boundary']:.3f}, synthetic recovers "
        f"{syn['alpha_boundary']:.3f}",
    )


def test_criterion_8_interior_gains_regularity(torsion_solutions):
    ok = True
    notes = []
    for h in sorted(torsion_solutions, reverse=True):
        fits = estimate_regularity(torsion_solutions[h], "const(1)")
        ok = ok and fits["alpha_interior"] >= fits["alpha_global"]
        notes.append(
            f"h={h:g}: interior {fits['alpha_interior']:.2f} vs global "
            f"{fits['alpha_global']:.2f}"
        )
    assert record_criterion(
        8, "interior exponent dominates global", ok, "; ".join(notes)
    )


def test_criterion_9_fredholm_alternative():
    domain = Domain.interval(-0.25, 0.25)
    problem = ProblemSpec(
        operator="generic", domain=domain, rhs=const_field(1.0), kernel=unit_kernel()
    )
    grid = build_grid(domain, 0.025)
    report = solve_dirichlet(problem, grid, FAST)[1]
    ok = report.alternative == "unique_solution"

    A = assemble(problem, grid, FAST).matrix
    real_eigs = np.sort(np.linalg.eigvals(A).real)
    lam1, lam2 = float(real_eigs[0]), float(real_eigs[1])
    sweep = fredholm_sweep(problem, grid, FAST, 0.5 * lam1, 0.5 * (lam1 + lam2))
    rel_gap = abs(sweep["mu_star"] - lam1) / abs(lam1)
    ok = ok and rel_gap <= 0.1
    assert record_criterion(
        9,
        "Fredholm probe and eigenvalue sweep",
        ok,
        f"mu*={sweep['mu_star']:.6f} vs lambda1={lam1:.6f} (rel gap {rel_gap:.1e})",
    )


def test_criterion_10_mollification_remainder():
    u = FieldFunction(evaluate=lambda Y: np.cos(5.0 * np.atleast_2d(Y)[:, 0]))
    ok = True
    bounds = {}
    for i in (10, 100):
        Ki = mollify_kernel(unit_kernel(), i)
        R = eval_remainder(Ki, u, np.array([0.0]), FAST)
        annulus_volume = 2.0 / i  # |B_{1+1/i} \ B_1| in one dimension
        bounds[i] = 2.0 * 1.0 * unit_kernel().Lam * annulus_volume
        ok = ok and abs(R) <= bounds[i]
    ratio = bounds[100] / bounds[10]
    ok = ok and abs(ratio - 0.1) < 1e-12
    assert record_criterion(
        10,
        "mollification remainder bound",
        ok,
        f"bound ratio {ratio:.12f}",
    )


def test_criterion_11_manufactured_roundtrip():
    rng = np.random.default_rng(11)
    domains = [
        (Domain.interval(-0.3, 0.3), 0.05),
        (Domain.ball([0.0], 0.3), 0.05),
        (Domain.ball([0.0, 0.0], 0.3), 0.1),
        (Domain.box([-0.3, -0.3], [0.3, 0.3]), 0.1),
    ]
    operators = [
        ("generic", unit_kernel()),
        ("generic", sinlog_kernel()),
        ("loglap", None),
        ("schrodinger", None),
    ]
    ok = True
    worst = 0.0
    count = 0
    for domain, h in domains:
        grid = build_grid(domain, h)
        for op, kernel in operators:
            base = ProblemSpec(
                operator=op, domain=domain, rhs=const_field(1.0), kernel=kernel
            )
            sm = assemble(base, grid, FAST)
            v = rng.standard_normal(grid.n)
            g = sm.matrix @ v
            problem = ProblemSpec(
                operator=op,
                domain=domain,
                rhs=grid_field(GridFunction(grid, g)),
                kernel=kernel,
            )
            u, report = solve_dirichlet(problem, grid, FAST, stiffness=sm)
            rel = float(np.max(np.abs(u.values - v)) / np.max(np.abs(v)))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-10 and report.alternative == "unique_solution"
            count += 1
    assert record_criterion(
        11,
        "manufactured solve returns the planted vector",
        ok,
        f"{count} domain/operator combinations, worst relative error {worst:.1e}",
    )
