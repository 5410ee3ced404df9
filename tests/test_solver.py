import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from logop import geometry, solver
from logop._quadrules import polar_rule
from logop.geometry import (
    Domain,
    GridFunction,
    build_grid,
    difference_projection,
    dist_to_boundary,
    scatter_weights,
)
from logop.kernels import (
    KernelSpec,
    loglap_constants,
    schrodinger_kernel,
    sinlog_kernel,
    table_kernel,
    unit_kernel,
)
from logop.logmod import ell
from logop.nonlocal_eval import (
    QuadratureConfig,
    const_field,
    eval_LK,
    eval_loglap,
    eval_schrodinger,
    field_sum,
    grid_field,
    quadratic_field,
)
from logop.solver import (
    ProblemSpec,
    assemble,
    estimate_regularity,
    fredholm_sweep,
    solve_dirichlet,
    torsion_scan,
)

CFG = QuadratureConfig()


def _interval_problem(rhs=None, kernel=None, half=0.5):
    return ProblemSpec(
        operator="generic",
        domain=Domain.interval(-half, half),
        rhs=rhs if rhs is not None else const_field(1.0),
        kernel=kernel if kernel is not None else unit_kernel(),
    )


def _wobble_kernel():
    # x-dependent but uniformly elliptic: assembly projects its weights node by node
    def evaluate(x, Y):
        rho = np.linalg.norm(np.atleast_2d(Y), axis=1)
        return 1.0 + 0.4 * math.sin(3.0 * float(np.asarray(x).ravel()[0])) * np.cos(rho)

    return KernelSpec(
        evaluate=evaluate,
        lam=0.6,
        Lam=1.4,
        translation_invariant=False,
        name="wobble",
    )


def test_problem_spec_validation():
    dom = Domain.interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(operator="local", domain=dom, rhs=const_field(1.0))
    with pytest.raises(ValueError):
        ProblemSpec(operator="generic", domain=dom, rhs=const_field(1.0))
    with pytest.raises(ValueError):
        ProblemSpec(
            operator="loglap", domain=dom, rhs=const_field(1.0), kernel=unit_kernel()
        )


_COLLOCATION_CASES = {
    "unit": ("generic", Domain.interval(-0.5, 0.5), 0.05, unit_kernel()),
    "sinlog": ("generic", Domain.interval(-0.5, 0.5), 0.05, sinlog_kernel()),
    "wobble": ("generic", Domain.interval(-0.5, 0.5), 0.05, _wobble_kernel()),
    "loglap-1d": ("loglap", Domain.interval(-0.3, 0.3), 0.03, None),
    "loglap-2d": ("loglap", Domain.ball([0.1, 0.0], 0.2), 0.05, None),
    "schrodinger-1d": ("schrodinger", Domain.interval(-0.3, 0.3), 0.03, None),
    "schrodinger-2d": ("schrodinger", Domain.ball([0.1, 0.0], 0.2), 0.05, None),
}


@pytest.mark.parametrize("case", list(_COLLOCATION_CASES))
def test_matrix_rows_collocate_the_operator(case):
    # A @ v equals the operator applied pointwise to the interpolant of v at
    # every node: the same quadrature, assembled vs pointwise.  The domains
    # reach less than 1, so the log-Laplacian has no far field (where the
    # support of grid_field and the reach of assembly differ by a cell).
    operator, domain, h, kernel = _COLLOCATION_CASES[case]
    problem = ProblemSpec(
        operator=operator, domain=domain, rhs=const_field(1.0), kernel=kernel
    )
    grid = build_grid(domain, h)
    v = np.cos(3.0 * grid.nodes[:, 0])
    Av = assemble(problem, grid, CFG).matrix @ v
    u = grid_field(GridFunction(grid, v))
    N = domain.N
    pointwise = {
        "generic": lambda x: eval_LK(kernel, u, x, CFG),
        "loglap": lambda x: eval_loglap(u, x, CFG, N, path="direct"),
        "schrodinger": lambda x: eval_schrodinger(u, x, CFG, N),
    }[operator]
    direct = np.array([pointwise(x) for x in grid.nodes])
    assert np.max(np.abs(Av - direct)) <= 1e-12 * np.max(np.abs(Av))


def test_matrix_reflection_symmetry():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.05)
    A = assemble(problem, grid, CFG).matrix
    # nodes are lexicographic, so reversing the order reflects x -> -x
    R = A[::-1, ::-1]
    assert np.max(np.abs(A - R)) < 1e-12 * np.max(np.abs(A))


def test_matrix_is_m_matrix():
    problem = _interval_problem(kernel=sinlog_kernel())
    grid = build_grid(problem.domain, 0.05)
    A = assemble(problem, grid, CFG).matrix
    off = A - np.diag(np.diag(A))
    assert np.all(off <= 1e-14)
    assert np.all(np.diag(A) > 0)
    assert np.all(A.sum(axis=1) >= -1e-10)


def test_assembly_rejects_nonfinite_kernel():
    bad = KernelSpec(
        evaluate=lambda x, Y: np.full(len(Y), np.nan),
        lam=1.0,
        Lam=1.0,
        name="nan",
    )
    problem = _interval_problem(kernel=bad)
    grid = build_grid(problem.domain, 0.1)
    with pytest.raises(ArithmeticError):
        assemble(problem, grid, CFG)


def test_assembly_rejects_nonfinite_xdependent_kernel():
    def evaluate(x, Y):
        return np.full(len(Y), np.nan if x[0] > 0.3 else 1.0)

    bad = KernelSpec(
        evaluate=evaluate, lam=1.0, Lam=1.0, translation_invariant=False, name="nan-right"
    )
    problem = _interval_problem(kernel=bad)
    grid = build_grid(problem.domain, 0.1)
    i = int(np.argmax(grid.nodes[:, 0] > 0.3))
    assert i > 0
    with pytest.raises(ArithmeticError, match=re.escape(f"node {i} at {grid.nodes[i]}")):
        assemble(problem, grid, CFG)


def _difference_per_node(K, grid, cfg, hi):
    # the per-node scatter loop that the lattice projection replaced
    n_ang, n_rad = cfg.node_counts()
    offs, _, w = polar_rule(grid.domain.N, n_ang, cfg.r_min, hi, n_rad, K.radial_breakpoints)
    A = np.zeros((grid.n, grid.n))
    for i, x in enumerate(grid.nodes):
        wk = w * K.evaluate(x, offs)
        idx, sw = scatter_weights(grid, x + offs)
        valid = idx >= 0
        np.add.at(A[i], idx[valid], -(wk[:, None] * sw)[valid])
        A[i, i] += wk.sum()
    return A


def _farfield_per_node(grid, cfg):
    # the per-node scatter loop that the far-field projection replaced
    r_out = max(grid.domain.max_reach(x) for x in grid.nodes)
    n_ang, n_rad = cfg.node_counts()
    offs, _, w = polar_rule(grid.domain.N, n_ang, 1.0, r_out, n_rad)
    A = np.zeros((grid.n, grid.n))
    for i, x in enumerate(grid.nodes):
        idx, sw = scatter_weights(grid, x + offs)
        valid = idx >= 0
        np.add.at(A[i], idx[valid], (w[:, None] * sw)[valid])
    return A


def _table_kernel_file(tmp_path):
    path = tmp_path / "profile.csv"
    r = np.linspace(0.0, 1.0, 11)
    np.savetxt(path, np.column_stack([r, 1.0 + 0.5 * r * (1 - r)]), delimiter=",")
    return table_kernel(str(path))


_STENCIL_CASES = {
    "1d-unit": ("generic", Domain.interval(-0.5, 0.5), 0.05, lambda tmp: unit_kernel()),
    "1d-sinlog": (
        "generic", Domain.interval(-0.5, 0.5), 0.05, lambda tmp: sinlog_kernel()
    ),
    "1d-table": ("generic", Domain.interval(-0.5, 0.5), 0.05, _table_kernel_file),
    "2d-offcentre-unit": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, lambda tmp: unit_kernel()
    ),
    "2d-offcentre-sinlog": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, lambda tmp: sinlog_kernel()
    ),
    "2d-loglap-box-farfield": (
        "loglap", Domain.box([-0.6, -0.4], [0.4, 0.5]), 0.1, None
    ),
    "1d-schrodinger": ("schrodinger", Domain.interval(-0.5, 0.5), 0.05, None),
    "2d-schrodinger": ("schrodinger", Domain.ball([0.0, 0.0], 0.1), 0.025, None),
    "1d-wobble": (
        "generic", Domain.interval(-0.5, 0.5), 0.05, lambda tmp: _wobble_kernel()
    ),
    "2d-offcentre-wobble": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, lambda tmp: _wobble_kernel()
    ),
}


def _per_node_reference(problem, grid):
    # the matrix built node by node through scatter_weights, with the
    # log-Laplacian split into its difference part and its far field
    if problem.operator == "generic":
        return _difference_per_node(problem.kernel, grid, CFG, 1.0)
    N = grid.domain.N
    if problem.operator == "schrodinger":
        r_out = max(40.0, max(grid.domain.max_reach(x) for x in grid.nodes))
        return _difference_per_node(schrodinger_kernel(N), grid, CFG, r_out)
    consts = loglap_constants(N)
    far = _farfield_per_node(grid, CFG)
    assert np.max(np.abs(far)) > 0
    ref = consts.c_N * (_difference_per_node(unit_kernel(), grid, CFG, 1.0) - far)
    ref[np.diag_indices(grid.n)] += consts.rho_N
    return ref


@pytest.mark.parametrize("case", list(_STENCIL_CASES))
def test_stencil_assembly_matches_per_row_path(case, tmp_path):
    operator, domain, h, make_kernel = _STENCIL_CASES[case]
    grid = build_grid(domain, h)
    problem = ProblemSpec(
        operator=operator,
        domain=domain,
        rhs=const_field(1.0),
        kernel=make_kernel(tmp_path) if make_kernel else None,
    )
    A = assemble(problem, grid, CFG).matrix
    ref = _per_node_reference(problem, grid)

    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))
    off = A - np.diag(np.diag(A))
    assert np.all(off <= 0)
    assert np.all(np.diag(A) > 0)
    assert np.all(A.sum(axis=1) >= -1e-12 * np.max(np.abs(A)))


def test_loglap_assembly_projects_once(monkeypatch):
    # the difference part and the far field share one projection
    domain = Domain.box([-0.6, -0.4], [0.4, 0.5])
    grid = build_grid(domain, 0.1)
    assert np.max(domain.max_reach(grid.nodes)) > 1.0
    calls = []

    def counting(grid, offsets):
        calls.append(len(offsets))
        return difference_projection(grid, offsets)

    monkeypatch.setattr(geometry, "difference_projection", counting)
    problem = ProblemSpec(operator="loglap", domain=domain, rhs=const_field(1.0))
    assemble(problem, grid, CFG)
    assert len(calls) == 1


@pytest.mark.parametrize("operator", ["generic", "loglap", "schrodinger"])
def test_assembly_peak_memory_is_the_matrix(operator):
    # the matrix is the only n x n array assembly allocates, so the
    # documented 16*n^2 bytes (matrix plus LU copy) hold for every operator
    domain = Domain.interval(-0.5, 0.5)
    grid = build_grid(domain, 0.001)
    problem = ProblemSpec(
        operator=operator,
        domain=domain,
        rhs=const_field(1.0),
        kernel=unit_kernel() if operator == "generic" else None,
    )
    tracemalloc.start()
    try:
        A = assemble(problem, grid, CFG).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.shape == (grid.n, grid.n)
    assert peak <= 1.25 * A.nbytes


def test_assembly_refuses_dense_system_beyond_physical_memory():
    problem = ProblemSpec(
        operator="generic",
        domain=Domain.ball([0.0, 0.0], 0.25),
        rhs=const_field(1.0),
        kernel=unit_kernel(),
    )
    grid = build_grid(problem.domain, 0.001)
    assert grid.n > 190_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"n={grid.n}.*GB.*coarser grid, h >="):
            assemble(problem, grid, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


class _CountingFactor:
    """A factorization with its solves counted."""

    def __init__(self, factor):
        self.factor = factor
        self.solves = 0

    def solve(self, b, trans=False):
        self.solves += 1
        return self.factor.solve(b, trans)


@pytest.mark.parametrize(
    "domain, h, kernel, step_bound",
    [
        # about 11 and 25 steps are needed; 40 is the cap
        (Domain.interval(-0.5, 0.5), 0.001, unit_kernel, 40),
        (Domain.ball([0.0, 0.0], 0.25), 0.02, sinlog_kernel, 35),
    ],
)
def test_sigma_min_estimate_stops_once_converged(domain, h, kernel, step_bound):
    grid = build_grid(domain, h)
    problem = ProblemSpec(
        operator="generic", domain=domain, rhs=const_field(1.0), kernel=kernel()
    )
    sm = assemble(problem, grid, CFG)
    A = sm.matrix
    # counted on the factorization the matrix takes: Levinson in 1-D, LU in 2-D
    factor = sm._factors.factor
    assert factor.name == ("toeplitz" if domain.N == 1 else "lu")
    counter = _CountingFactor(factor)
    sigma, v = solver._sigma_min_estimate(counter, grid.n)
    assert sigma == pytest.approx(np.linalg.svd(A, compute_uv=False)[-1], rel=1e-10)
    assert np.linalg.norm(A.T @ v) == pytest.approx(sigma, rel=1e-6)
    assert counter.solves // 2 < step_bound


def test_zero_rhs_gives_zero_solution():
    problem = _interval_problem(rhs=const_field(0.0))
    grid = build_grid(problem.domain, 0.05)
    u, report = solve_dirichlet(problem, grid, CFG)
    assert report.alternative == "unique_solution"
    assert np.max(np.abs(u.values)) < 1e-14


def test_torsion_solution_nonnegative_and_symmetric():
    problem = ProblemSpec(
        operator="generic",
        domain=Domain.ball([0.0], 0.05),
        rhs=const_field(1.0),
        kernel=unit_kernel(),
    )
    grid = build_grid(problem.domain, 0.0025)
    u, report = solve_dirichlet(problem, grid, CFG)
    assert report.alternative == "unique_solution"
    assert report.mp_audit["pass"]
    assert np.min(u.values) > -10 * report.residual_inf
    assert np.allclose(u.values, u.values[::-1], atol=1e-10)
    # interior maximum, decaying toward the boundary
    assert np.argmax(u.values) == grid.n // 2


def test_manufactured_solution_roundtrip():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.05)
    sm = assemble(problem, grid, CFG)
    v = np.cos(3.0 * grid.nodes[:, 0])
    g = sm.matrix @ v
    made = ProblemSpec(
        operator="generic",
        domain=problem.domain,
        rhs=grid_field(GridFunction(grid, g)),
        kernel=unit_kernel(),
    )
    u, report = solve_dirichlet(made, grid, CFG, stiffness=sm)
    assert report.alternative == "unique_solution"
    assert np.max(np.abs(u.values - v)) < 1e-10 * np.max(np.abs(v))
    assert report.residual_inf < 1e-10
    assert report.condition_estimate < 1e6


def test_comparison_principle_between_right_hand_sides():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.05)
    sm = assemble(problem, grid, CFG)
    u1, _ = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    bigger = field_sum([(1.0, const_field(1.0)), (1.0, quadratic_field())])
    problem2 = _interval_problem(rhs=bigger)
    u2, _ = solve_dirichlet(problem2, grid, CFG, stiffness=sm)
    assert np.all(u2.values >= u1.values - 1e-10)


def test_sup_ratio_stable_under_refinement():
    sups = []
    for h in (0.05, 0.025):
        problem = _interval_problem()
        grid = build_grid(problem.domain, h)
        _, report = solve_dirichlet(problem, grid, CFG)
        sups.append(report.mp_audit["sup_ratio"])
        assert report.h == h
    assert sups[1] == pytest.approx(sups[0], rel=0.2)


def test_near_singular_shift_reports_second_alternative():
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    A = assemble(problem, grid, CFG).matrix
    eigs = np.linalg.eigvals(A)
    k = int(np.argmin(eigs.real))
    lam1 = float(eigs.real[k])
    assert abs(eigs.imag[k]) < 1e-10 * max(1.0, abs(lam1))  # bottom eigenvalue is real
    shifted = ProblemSpec(
        operator="generic",
        domain=problem.domain,
        rhs=const_field(1.0),
        kernel=unit_kernel(),
        shift=-lam1,
    )
    v, report = solve_dirichlet(shifted, grid, CFG)
    assert report.alternative == "near_singular"
    assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-8)
    assert report.residual_inf < 1e-6  # v is an approximate null vector
    assert report.sigma_min < 1e-10 * np.linalg.norm(A, 1)
    assert report.timings["n"] == grid.n


def test_solve_report_times_each_phase():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.05)
    phases = ("assemble_s", "factor_s", "sigma_s", "solve_s", "audit_s")
    _, report = solve_dirichlet(problem, grid, CFG)
    assert set(report.timings) == {*phases, "n"}
    assert report.timings["n"] == grid.n
    assert all(report.timings[k] >= 0 for k in phases)
    assert report.timings["assemble_s"] > 0
    sm = assemble(problem, grid, CFG)
    _, first = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert first.timings["assemble_s"] == 0.0
    assert first.timings["factor_s"] > 0 and first.timings["sigma_s"] > 0
    assert first.timings["n"] == grid.n
    # a factored matrix is not factored again
    _, again = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert again.timings["factor_s"] == again.timings["sigma_s"] == 0.0
    assert again.timings["solve_s"] > 0 and again.timings["audit_s"] > 0


def _count_factorizations(monkeypatch):
    """Calls of lu_factor and of solve_toeplitz (one per Levinson
    factorization), by name."""
    calls = {"lu_factor": 0, "solve_toeplitz": 0}

    def counting(name):
        original = getattr(sla, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(solver.sla, name, counting(name))
    return calls


def _same_report(report, ref):
    a, b = dict(vars(report)), dict(vars(ref))
    for d in (a, b):
        d.pop("timings")
    assert a.pop("condition_estimate") == pytest.approx(
        b.pop("condition_estimate"), rel=1e-12, abs=0
    )
    assert a == b


@pytest.mark.parametrize("shift", [0.0, 2.5], ids=["unshifted", "shifted"])
def test_shared_matrix_is_factored_once(monkeypatch, shift):
    base = _interval_problem()
    grid = build_grid(base.domain, 0.02)
    rhs = [const_field(1.0), quadratic_field(), field_sum([(2.0, const_field(1.0)),
                                                           (-1.0, quadratic_field())])]
    problems = [
        ProblemSpec("generic", base.domain, f, kernel=unit_kernel(), shift=shift)
        for f in rhs
    ]
    sm = assemble(problems[0], grid, CFG)
    calls = _count_factorizations(monkeypatch)
    shared = [solve_dirichlet(p, grid, CFG, stiffness=sm) for p in problems]
    assert calls == {"lu_factor": 0, "solve_toeplitz": 1}
    for p, (u, report) in zip(problems, shared):
        u_ref, ref = solve_dirichlet(p, grid, CFG, stiffness=assemble(p, grid, CFG))
        assert report.alternative == "unique_solution"
        assert report.factorization == "toeplitz"
        assert np.array_equal(u.values, u_ref.values)
        _same_report(report, ref)
    assert calls == {"lu_factor": 0, "solve_toeplitz": 1 + len(problems)}


def test_shared_near_singular_matrix_keeps_its_verdict(monkeypatch):
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    lam1 = float(np.min(np.linalg.eigvals(assemble(problem, grid, CFG).matrix).real))
    shifted = ProblemSpec("generic", problem.domain, const_field(1.0),
                          kernel=unit_kernel(), shift=-lam1)
    sm = assemble(shifted, grid, CFG)
    calls = _count_factorizations(monkeypatch)
    v1, first = solve_dirichlet(shifted, grid, CFG, stiffness=sm)
    kept = v1.values.copy()
    # the caller owns the returned vector: changing it leaves the next solve alone
    v1.values[:] = 0.0
    v2, second = solve_dirichlet(shifted, grid, CFG, stiffness=sm)
    # sigma_min is near the singular threshold, so LU refactors the matrix
    # after the one Levinson attempt
    assert calls == {"lu_factor": 1, "solve_toeplitz": 1}
    assert first.alternative == second.alternative == "near_singular"
    assert first.factorization == "lu"
    assert np.array_equal(v2.values, kept)
    _same_report(second, first)


def test_levinson_is_kept_above_the_sigma_floor():
    # sigma_min = 1e-8 times the 1-norm, 10^2 above TOEPLITZ_SIGMA_FLOOR:
    # Levinson stays, and its estimate agrees with LU's to far better than
    # the margin to the near-singular threshold
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    A = assemble(problem, grid, CFG).matrix
    anorm = float(np.linalg.norm(A, 1))
    shift = 1e-8 * anorm - float(np.linalg.eigvalsh(A)[0])
    shifted = replace(problem, shift=shift)
    sm = assemble(shifted, grid, CFG)
    _, report = solve_dirichlet(shifted, grid, CFG, stiffness=sm)
    oracle = solver.StiffnessMatrix(np.array(sm.matrix), grid)
    _, ref = solve_dirichlet(shifted, grid, CFG, stiffness=oracle)
    assert (report.factorization, ref.factorization) == ("toeplitz", "lu")
    assert report.alternative == ref.alternative == "unique_solution"
    assert ref.sigma_min == pytest.approx(1e-8 * anorm, rel=1e-3)
    assert report.sigma_min == pytest.approx(ref.sigma_min, rel=1e-6)


_ORACLE_CASES = {
    "unit": ("generic", Domain.interval(-0.5, 0.5), 0.005, lambda tmp: unit_kernel(), 0.0),
    "sinlog": ("generic", Domain.interval(-0.5, 0.5), 0.005, lambda tmp: sinlog_kernel(), 0.0),
    "table": ("generic", Domain.interval(-0.5, 0.5), 0.005, _table_kernel_file, 0.0),
    "loglap-farfield": ("loglap", Domain.interval(-0.8, 0.8), 0.005, None, 0.0),
    "schrodinger": ("schrodinger", Domain.interval(-0.5, 0.5), 0.005, None, 0.0),
    "shifted": ("generic", Domain.interval(-0.5, 0.5), 0.005, lambda tmp: unit_kernel(), 2.5),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_toeplitz_path_matches_lu(case, tmp_path):
    # the same matrix solved through Levinson (as assembled) and through LU
    # (as a raw array)
    operator, domain, h, make_kernel, shift = _ORACLE_CASES[case]
    problem = ProblemSpec(
        operator=operator,
        domain=domain,
        rhs=quadratic_field(),
        kernel=make_kernel(tmp_path) if make_kernel else None,
        shift=shift,
    )
    grid = build_grid(domain, h)
    sm = assemble(problem, grid, CFG)
    if operator == "loglap":
        assert np.max(domain.max_reach(grid.nodes)) > 1.0  # the far field is nonzero
    u, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    oracle = solver.StiffnessMatrix(np.array(sm.matrix), grid)
    u_lu, ref = solve_dirichlet(problem, grid, CFG, stiffness=oracle)
    assert (report.factorization, ref.factorization) == ("toeplitz", "lu")
    assert report.alternative == ref.alternative == "unique_solution"
    assert report.mp_audit["pass"] == ref.mp_audit["pass"]
    assert np.max(np.abs(u.values - u_lu.values)) <= 1e-12 * np.max(np.abs(u_lu.values))
    assert report.sigma_min == pytest.approx(ref.sigma_min, rel=1e-12)
    assert report.condition_estimate == pytest.approx(ref.condition_estimate, rel=1e-10)
    assert report.residual_inf <= 1e-12 * np.max(np.abs(problem.rhs.evaluate(grid.nodes)))


def test_only_1d_translation_invariant_matrices_take_levinson():
    interval = Domain.interval(-0.5, 0.5)
    ball = Domain.ball([0.0, 0.0], 0.25)
    cases = [
        (interval, unit_kernel(), "toeplitz"),
        (interval, _wobble_kernel(), "lu"),
        (ball, unit_kernel(), "lu"),
    ]
    for domain, kernel, factorization in cases:
        problem = ProblemSpec("generic", domain, const_field(1.0), kernel=kernel)
        _, report = solve_dirichlet(problem, build_grid(domain, 0.05), CFG)
        assert report.factorization == factorization


def test_levinson_failures_fall_back_to_lu(monkeypatch):
    problem = _interval_problem(half=0.1)
    grid = build_grid(problem.domain, 0.04)
    assert grid.n == 5
    # symmetric Toeplitz with eigenvalues 4, -1, -1, -1, -1, but its first
    # leading minor is 0
    A = np.ones((5, 5)) - np.eye(5)
    sm = solver._ToeplitzStiffness(A, grid)
    u, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert report.factorization == "lu"
    assert report.alternative == "unique_solution"
    assert np.allclose(u.values, 0.25, rtol=0, atol=1e-15)
    # a Levinson factor that fails the backward-error check is not kept
    sm = assemble(problem, grid, CFG)
    monkeypatch.setattr(solver, "TOEPLITZ_BACKWARD_TOL", 0.0)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert report.factorization == "lu"


def test_fredholm_sweep_falls_back_from_levinson(monkeypatch):
    # equal row sums equal lambda_1 = 0: Levinson meets the singular A - 0*I,
    # LU confirms it, and the lowered shift is factored by Levinson
    problem = _interval_problem(half=0.1)
    grid = build_grid(problem.domain, 0.04)
    A = 5.0 * np.eye(5) - np.ones((5, 5))
    monkeypatch.setattr(
        solver, "assemble", lambda *args: solver._ToeplitzStiffness(A, grid)
    )
    calls = _count_factorizations(monkeypatch)
    out = fredholm_sweep(problem, grid, CFG, 0.0, 1.0)
    assert out["mu_star"] == pytest.approx(0.0, abs=1e-14)
    # the FFT solves round where LU on these integers is exact, so the
    # enclosure from y = (A - sigma*I)^-1 x alone missed lambda_1 = 0 by an ulp
    assert out["bounds"][0] <= 0.0 <= out["bounds"][1]
    assert calls == {"lu_factor": 1, "solve_toeplitz": 2}


def test_inverse_norm_estimate_is_dgecon():
    # dgecon runs the estimator on U^-1 L^-1 (A = PLU, the permutation left
    # out); given those solves, _inverse_norm1_estimate takes the same steps.
    # Over 1000 random matrices its final alternating-sign stage decides
    # a few estimates.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((n, n))
        lu = sla.lu_factor(A)[0]

        def solve(b, trans=False):
            steps = [{"lower": True, "unit_diagonal": True}, {"lower": False}]
            for kw in steps[::-1] if trans else steps:
                b = sla.solve_triangular(lu, b, trans=int(trans), **kw)
            return b

        anorm = float(np.linalg.norm(A, 1))
        rcond, _ = sla.lapack.dgecon(lu, anorm, norm="1")
        estimate = solver._inverse_norm1_estimate(solve, n)
        assert anorm * estimate == pytest.approx(1.0 / rcond, rel=1e-12)


_BALL = Domain.ball([0.0, 0.0], 0.25)


@pytest.mark.parametrize(
    "operator, domain, kernel, h",
    [
        ("generic", _BALL, unit_kernel(), 0.02),
        ("generic", _BALL, sinlog_kernel(), 0.02),
        ("loglap", Domain.box([-0.5, -0.5], [0.5, 0.5]), None, 0.05),
    ],
    ids=["ball-unit", "ball-sinlog", "box-loglap"],
)
def test_lu_condition_estimate_is_dgecon(operator, domain, kernel, h):
    # the estimator runs on the LU factor's solves, which apply the row
    # permutation dgecon leaves out; on these matrices both take the same steps
    problem = ProblemSpec(operator, domain, const_field(1.0), kernel=kernel)
    grid = build_grid(domain, h)
    sm = assemble(problem, grid, CFG)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert report.factorization == "lu"
    anorm = float(np.linalg.norm(sm.matrix, 1))
    rcond, _ = sla.lapack.dgecon(sla.lu_factor(sm.matrix)[0], anorm, norm="1")
    assert report.condition_estimate == pytest.approx(1.0 / rcond, rel=1e-12, abs=0)


def test_lu_paths_hold_one_copy_of_the_matrix(monkeypatch):
    # a solve and the sweep each factor one Fortran-ordered copy in place,
    # with A's finiteness checked before the copy is made: beyond A, the
    # traced peak is that copy (1.01x), not two copies (2.01x) or a copy
    # plus the finiteness mask (1.13x)
    problem = ProblemSpec("generic", _BALL, const_field(1.0), kernel=unit_kernel())
    grid = build_grid(_BALL, 0.02)
    A = np.array(assemble(problem, grid, CFG).matrix)
    assert 400 <= grid.n <= 600

    def fresh():
        return solver.StiffnessMatrix(A, grid)

    monkeypatch.setattr(solver, "assemble", lambda *args: fresh())

    def peak(run):
        run()  # loads scipy.linalg, whose modules would count towards the peak
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / A.nbytes
        finally:
            tracemalloc.stop()

    assert peak(lambda: solve_dirichlet(problem, grid, CFG, stiffness=fresh())) <= 1.05
    assert peak(lambda: fredholm_sweep(problem, grid, CFG, 0.0, 20.0)) <= 1.25


def test_stiffness_matrix_is_read_only():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.05)
    sm = assemble(problem, grid, CFG)
    solve_dirichlet(problem, grid, CFG, stiffness=sm)
    with pytest.raises(ValueError, match="read-only"):
        sm.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sm.matrix += 1.0


def test_stiffness_matrices_compare_and_hash_by_identity():
    grid = build_grid(Domain.interval(-0.5, 0.5), 0.1)
    a = solver.StiffnessMatrix(np.eye(grid.n), grid)
    b = solver.StiffnessMatrix(np.eye(grid.n), grid)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_fredholm_probe_unshifted_is_unique():
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    report = solve_dirichlet(problem, grid, CFG)[1]
    assert report.alternative == "unique_solution"
    assert report.sigma_min > 0


def test_fredholm_sweep_locates_first_eigenvalue(monkeypatch):
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    A = assemble(problem, grid, CFG).matrix
    real_eigs = np.sort(np.linalg.eigvals(A).real)
    lam1, lam2 = float(real_eigs[0]), float(real_eigs[1])
    calls = _count_factorizations(monkeypatch)
    out = fredholm_sweep(problem, grid, CFG, 0.5 * lam1, 0.5 * (lam1 + lam2))
    # A - sigma*I is symmetric Toeplitz: Levinson factors it, with no LU copy
    assert calls == {"lu_factor": 0, "solve_toeplitz": 1}
    assert out["mu_star"] == pytest.approx(lam1, rel=1e-8)
    assert out["evaluations"] >= 3
    with pytest.raises(ValueError):
        fredholm_sweep(problem, grid, CFG, 0.1 * lam1, 0.5 * lam1)


@pytest.mark.parametrize(
    "problem, h, bracket",
    [
        # a bracket holding lambda_1..lambda_5: sign bisection of det(A - mu I)
        # returned lambda_5 = 6.4853 here
        (_interval_problem(), 0.01, (0.0, 10.0)),
        # holds lambda_1 and lambda_2, so det(A - mu I) has one sign at both ends
        (_interval_problem(), 0.01, (1.0, 5.0)),
        # the log-Laplacian on a wide interval has a negative lambda_1
        (
            ProblemSpec(
                operator="loglap",
                domain=Domain.interval(-3.0, 3.0),
                rhs=const_field(1.0),
            ),
            0.05,
            (-5.0, 0.0),
        ),
        (
            ProblemSpec(
                operator="generic",
                domain=Domain.ball([0.0, 0.0], 0.25),
                rhs=const_field(1.0),
                kernel=sinlog_kernel(),
            ),
            0.03,
            (0.0, 20.0),
        ),
    ],
    ids=["wide-bracket", "two-eigenvalues", "loglap-negative", "sinlog-2d"],
)
def test_fredholm_sweep_encloses_first_eigenvalue(problem, h, bracket):
    grid = build_grid(problem.domain, h)
    A = assemble(problem, grid, CFG).matrix
    lam1 = float(np.min(np.linalg.eigvals(A).real))
    out = fredholm_sweep(problem, grid, CFG, *bracket)
    assert out["mu_star"] == pytest.approx(lam1, rel=1e-10)
    lo, hi = out["bounds"]
    assert lo <= lam1 <= hi
    assert hi - lo <= 1e-12 * max(1.0, abs(lam1))


def test_fredholm_sweep_rejects_bracket_without_first_eigenvalue():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.01)
    # [2, 5] holds lambda_2 = 4.297 but not lambda_1 = 1.874
    with pytest.raises(ValueError, match="lambda_1"):
        fredholm_sweep(problem, grid, CFG, 2.0, 5.0)


def test_fredholm_sweep_guards_its_enclosure(monkeypatch):
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    monkeypatch.setattr(solver, "SWEEP_MAX_SOLVES", 2)
    with pytest.raises(ArithmeticError, match="2 solves"):
        fredholm_sweep(problem, grid, CFG, 0.0, 10.0)

    def use_matrix(rows):
        A = np.array(rows, dtype=float)
        monkeypatch.setattr(
            solver, "assemble",
            lambda *args: solver.StiffnessMatrix(A, grid),
        )

    # a positive off-diagonal entry voids the Perron-Frobenius enclosure
    use_matrix([[2.0, 0.5, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    with pytest.raises(ValueError, match="Z-matrix"):
        fredholm_sweep(problem, grid, CFG, 0.0, 10.0)
    # equal row sums equal lambda_1 = 0, so the first shift is singular
    use_matrix([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    out = fredholm_sweep(problem, grid, CFG, 0.0, 1.0)
    assert out["mu_star"] == pytest.approx(0.0, abs=1e-14)
    assert out["bounds"][0] <= 0.0 <= out["bounds"][1]


def test_loglap_solve_on_small_ball():
    problem = ProblemSpec(
        operator="loglap",
        domain=Domain.ball([0.0], 0.05),
        rhs=const_field(1.0),
    )
    grid = build_grid(problem.domain, 0.005)
    u, report = solve_dirichlet(problem, grid, CFG)
    assert report.alternative == "unique_solution"
    assert report.mp_audit["pass"]
    assert np.max(u.values) > 0


def test_loglap_assembly_with_reach_just_past_one():
    # the far field spans [1, 1 + 1e-11], inside the panel merge tolerance;
    # it must match the same 11 nodes with the far field over [1, 1 + 1e-6]
    grids = [
        build_grid(Domain.interval(-0.5, 0.5 + 2 * eps), 0.1) for eps in (1e-11, 1e-6)
    ]
    reach = [float(np.max(g.domain.max_reach(g.nodes))) for g in grids]
    assert reach == pytest.approx([1.0 + 1e-11, 1.0 + 1e-6], rel=1e-12, abs=0)
    A, ref = (
        assemble(ProblemSpec("loglap", g.domain, const_field(1.0)), g, CFG).matrix
        for g in grids
    )
    assert A.shape == ref.shape == (11, 11)
    assert np.max(np.abs(A - ref)) <= 1e-5 * np.max(np.abs(ref))


def test_schrodinger_solve_on_interval():
    problem = ProblemSpec(
        operator="schrodinger",
        domain=Domain.interval(-0.5, 0.5),
        rhs=const_field(1.0),
    )
    grid = build_grid(problem.domain, 0.05)
    u, report = solve_dirichlet(problem, grid, CFG)
    assert report.alternative == "unique_solution"
    assert report.mp_audit["pass"]
    assert np.max(u.values) > 0


def test_torsion_scan_tabulates_log_modulus_scaling():
    template = ProblemSpec(
        operator="generic",
        domain=Domain.ball([0.0], 0.05),
        rhs=const_field(1.0),
        kernel=unit_kernel(),
    )
    rows = torsion_scan([0.05, 0.01], template, CFG, nodes_across=40)
    assert [row["R"] for row in rows] == [0.05, 0.01]
    for row in rows:
        assert row["h"] == pytest.approx(2 * row["R"] / 40)
        assert row["ell_R"] == pytest.approx(float(ell(row["R"])))
        assert row["ratio"] == pytest.approx(row["max_u"] / row["ell_R"])
        assert row["max_u"] > 0
        assert row["residual_inf"] < 1e-8
    assert rows[1]["max_u"] < rows[0]["max_u"]


def test_torsion_scan_zero_rhs_and_radius_guard(monkeypatch):
    template = ProblemSpec(
        operator="generic",
        domain=Domain.ball([0.0], 0.05),
        rhs=const_field(0.0),
        kernel=unit_kernel(),
    )
    rows = torsion_scan([0.02], template, CFG, nodes_across=20)
    assert rows[0]["max_u"] == pytest.approx(0.0, abs=1e-14)
    # every radius is checked before the first solve
    solves = []
    monkeypatch.setattr(solver, "solve_dirichlet", lambda *a, **k: solves.append(a))
    for radii in ([0.2], [0.05, 0.5], [0.05, 0.0]):
        with pytest.raises(ValueError, match=r"\(0, 0.1\]"):
            torsion_scan(radii, template, CFG)
    assert solves == []
    assert solver.torsion_radii([0.1, "0.05"]) == [0.1, 0.05]


def test_estimate_regularity_recovers_synthetic_exponent():
    dom = Domain.interval(-1.0, 1.0)
    grid = build_grid(dom, 0.005)
    x0 = dom.boundary_point()
    d = np.linalg.norm(grid.nodes - x0, axis=1)
    u = GridFunction(grid, ell(np.maximum(d, 1e-300), 0.5))
    out = estimate_regularity(u, "synthetic ell^0.5")
    assert set(out) == {"alpha_global", "alpha_interior", "alpha_boundary"}
    assert out["alpha_boundary"] == pytest.approx(0.5, abs=0.02)
    # the ball-oscillation fit sees only whole grid cells, biasing it high
    assert 0.45 <= out["alpha_global"] <= 0.65
    # the profile is constant near the center, so the interior fit saturates
    assert out["alpha_interior"] == math.inf


def test_estimate_regularity_needs_enough_scales():
    dom = Domain.interval(-1.0, 1.0)
    grid = build_grid(dom, 0.05)
    u = GridFunction(grid, np.ones(grid.n))
    with pytest.raises(ValueError) as err:
        estimate_regularity(u, "coarse-probe")
    assert "coarse-probe" in str(err.value)
