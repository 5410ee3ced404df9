import itertools
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from logop import _chebyshev, _quadrules, _toeplitz, geometry, solver
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


def _phase_wobble_kernel(phase=1.0, calls=None):
    # the x-dependent benchmark kernel: smooth in x, neither odd nor even,
    # so assembly interpolates it from a few Chebyshev samples.  calls, when
    # given, collects each evaluation's number of offsets
    def evaluate(x, Y):
        if calls is not None:
            calls.append(len(np.atleast_2d(Y)))
        rho = np.linalg.norm(np.atleast_2d(Y), axis=1)
        return 1.0 + 0.3 * math.sin(3.0 * float(x[0]) + phase) * np.cos(rho)

    return KernelSpec(evaluate=evaluate, lam=0.7, Lam=1.3, translation_invariant=False,
                      name="phase-wobble")


def _skew_kernel():
    # translation-invariant but not even: K(z) differs from K(-z)
    return KernelSpec(
        evaluate=lambda x, Y: 1.0 + 0.4 * np.tanh(5.0 * np.atleast_2d(Y)[:, 0]),
        lam=0.6,
        Lam=1.4,
        name="skew",
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
    "skew-1d": ("generic", Domain.interval(-0.5, 0.5), 0.05, _skew_kernel()),
    "skew-2d": ("generic", Domain.ball([0.1, 0.0], 0.2), 0.05, _skew_kernel()),
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
    # the first node right of 0.3 is named, whether the kernel fails at every
    # offset or only at those inside the origin cells (|z| < h), which enter
    # by their radial moments.  At h = 0.0025 the kernel is first sampled at
    # Chebyshev points; a non-finite sample sends every node to its own
    # stencil, which names the node
    for h, cells in itertools.product((0.1, 0.0025), (math.inf, 0.5)):
        grid = build_grid(Domain.interval(-0.5, 0.5), h)
        i = int(np.argmax(grid.nodes[:, 0] > 0.3))
        assert i > 0
        reach = cells * h

        def evaluate(x, Y, reach=reach):
            bad = (x[0] > 0.3) & (np.linalg.norm(Y, axis=1) < reach)
            return np.where(bad, np.nan, 1.0)

        kernel = KernelSpec(
            evaluate=evaluate, lam=1.0, Lam=1.0, translation_invariant=False, name="nan-right"
        )
        problem = _interval_problem(kernel=kernel)
        with pytest.raises(ArithmeticError, match=re.escape(f"node {i} at {grid.nodes[i]}")):
            assemble(problem, grid, CFG)


def test_stencil_check_reads_only_the_differences_nodes_read():
    # a non-finite weight on an offset beyond every lattice difference lands
    # in the padding of the difference table, which no row reads; one that
    # reaches a node fails assembly, on either side of the mirror, and so
    # does a non-finite moment of the offsets inside the origin cells
    grid = build_grid(Domain.interval(-0.5, 0.5), 0.1)
    offs, rays = np.array([[0.15], [5.0]]), np.array([[1.0]])
    finite, far_nan = np.ones(2), np.array([1.0, np.nan])
    near_nan = far_nan[::-1]

    def diag(W):
        return 1.0

    def lattice_matrix(columns, moments=(0.0,)):
        W = np.column_stack(columns)
        mirror = "flip" if W.shape[1] == 1 else "pairs"
        M = np.tile(moments, (W.shape[1], 1))
        return solver._lattice_matrix(grid, offs, rays, (W, M), diag, mirror)

    for columns in ((far_nan,), (finite, far_nan)):
        assert np.all(np.isfinite(lattice_matrix(columns)))
    for columns in ((near_nan,), (finite, near_nan), (near_nan, finite)):
        with pytest.raises(ArithmeticError, match="node 0"):
            lattice_matrix(columns)
    for columns in ((finite,), (finite, finite)):
        assert np.all(np.isfinite(lattice_matrix(columns, (0.01,))))
        with pytest.raises(ArithmeticError, match="node 0"):
            lattice_matrix(columns, (np.nan,))


def _full_polar_rule(N, n_angular, lo, hi, n_per_decade, radii=()):
    # polar_rule with every ray of unit_directions built and none mirrored
    thetas, ang_w = _quadrules.unit_directions(N, n_angular)
    rho, w = _quadrules.radial_rule(lo, hi, n_per_decade, radii)
    Z = (thetas.T[:, :, None] * rho).reshape(N, -1).T
    return Z, rho, (ang_w[:, None] * w).ravel(), False


def _difference_per_node(K, grid, cfg, hi):
    # the per-node scatter loop that the lattice projection replaced, on the
    # full rule
    n_ang, n_rad = cfg.node_counts()
    offs, _, w, _ = _full_polar_rule(
        grid.domain.N, n_ang, cfg.r_min, hi, n_rad, K.radial_breakpoints
    )
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
    offs, _, w, _ = _full_polar_rule(grid.domain.N, n_ang, 1.0, r_out, n_rad)
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


_NINE_RAYS = QuadratureConfig(n_angular=9)
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
    # an odd number of rays: no ray has a mirror, so the whole rule is built
    "2d-offcentre-sinlog-9-rays": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, lambda tmp: sinlog_kernel(),
        _NINE_RAYS,
    ),
}


def _per_node_reference(problem, grid, cfg=CFG):
    # the matrix built node by node through scatter_weights, with the
    # log-Laplacian split into its difference part and its far field
    if problem.operator == "generic":
        return _difference_per_node(problem.kernel, grid, cfg, 1.0)
    N = grid.domain.N
    if problem.operator == "schrodinger":
        r_out = max(40.0, max(grid.domain.max_reach(x) for x in grid.nodes))
        return _difference_per_node(schrodinger_kernel(N), grid, cfg, r_out)
    consts = loglap_constants(N)
    far = _farfield_per_node(grid, cfg)
    assert np.max(np.abs(far)) > 0
    ref = consts.c_N * (_difference_per_node(unit_kernel(), grid, cfg, 1.0) - far)
    ref[np.diag_indices(grid.n)] += consts.rho_N
    return ref


@pytest.mark.parametrize("case", list(_STENCIL_CASES))
def test_stencil_assembly_matches_per_row_path(case, tmp_path):
    operator, domain, h, make_kernel, *cfg = _STENCIL_CASES[case]
    cfg = cfg[0] if cfg else CFG
    grid = build_grid(domain, h)
    problem = ProblemSpec(
        operator=operator,
        domain=domain,
        rhs=const_field(1.0),
        kernel=make_kernel(tmp_path) if make_kernel else None,
    )
    A = assemble(problem, grid, cfg).matrix
    ref = _per_node_reference(problem, grid, cfg)

    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))
    off = A - np.diag(np.diag(A))
    assert np.all(off <= 0)
    assert np.all(np.diag(A) > 0)
    assert np.all(A.sum(axis=1) >= -1e-12 * np.max(np.abs(A)))


@pytest.mark.parametrize("case", list(_STENCIL_CASES))
def test_norm1_of_a_z_matrix_is_read_from_its_column_sums(case, tmp_path):
    # a Z-matrix with a nonnegative diagonal: ||A||_1 = max(2 diag(A) - column
    # sums), from the row sums of a symmetric A or one product otherwise;
    # any other matrix keeps np.linalg.norm
    operator, domain, h, make_kernel, *cfg = _STENCIL_CASES[case]
    problem = ProblemSpec(operator, domain, const_field(1.0),
                          kernel=make_kernel(tmp_path) if make_kernel else None)
    sm = assemble(problem, build_grid(domain, h), cfg[0] if cfg else CFG)
    A = np.array(sm.matrix)
    for symmetric in {sm.symmetric, False}:
        dense = solver.StiffnessMatrix(A, sm.grid)
        dense.symmetric = symmetric
        assert dense._norm1() == pytest.approx(np.linalg.norm(A, 1), rel=1e-14, abs=0)
    A[0, -1] = 1.0  # no longer a Z-matrix
    assert solver.StiffnessMatrix(A, sm.grid)._norm1() == np.linalg.norm(A, 1)
    A[0, -1], A[-1, -1] = 0.0, -A[-1, -1]  # a negative diagonal entry
    assert solver.StiffnessMatrix(A, sm.grid)._norm1() == np.linalg.norm(A, 1)


# operator, domain, h, kernel, config, and whether the matrix is symmetric
_FULL_RULE_CASES = {
    "2d-unit-ball": (
        "generic", Domain.ball([0.013, -0.007], 0.25), 0.02, unit_kernel(), CFG, True
    ),
    "2d-sinlog-ball": (
        "generic", Domain.ball([0.0, 0.0], 0.25), 0.03, sinlog_kernel(), CFG, True
    ),
    "2d-loglap-box-farfield": (
        "loglap", Domain.box([-0.6, -0.4], [0.4, 0.5]), 0.1, None, CFG, True
    ),
    "2d-schrodinger-ball": (
        "schrodinger", Domain.ball([0.0, 0.0], 0.1), 0.025, None, CFG, True
    ),
    "1d-loglap-farfield": ("loglap", Domain.interval(-0.8, 0.8), 0.01, None, CFG, True),
    "2d-wobble-ball": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, _wobble_kernel(), CFG, False
    ),
    "2d-skew-ball": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, _skew_kernel(), CFG, False
    ),
    "2d-sinlog-9-rays": (
        "generic", Domain.ball([0.3, -0.2], 0.1), 0.02, sinlog_kernel(), _NINE_RAYS,
        False,
    ),
}


@pytest.mark.parametrize("case", list(_FULL_RULE_CASES))
def test_half_rule_assembly_is_the_full_rule_assembly(case, monkeypatch):
    # assembly projects one offset of each mirror pair and mirrors the
    # table; the same assembly on every ray (the full rule, one product per
    # stencil) agrees to rounding.  An even weight on a paired rule gives a
    # matrix symmetric bit for bit, which says so; a weight that is not
    # even (x-dependent or not) or an odd number of rays gives neither
    operator, domain, h, kernel, cfg, symmetric = _FULL_RULE_CASES[case]
    problem = ProblemSpec(operator, domain, const_field(1.0), kernel=kernel)
    grid = build_grid(domain, h)
    sm = assemble(problem, grid, cfg)
    A = sm.matrix
    monkeypatch.setattr(_quadrules, "polar_rule", _full_polar_rule)
    full = assemble(problem, grid, cfg)
    ref = full.matrix
    assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert sm.symmetric == symmetric == np.array_equal(A, A.T)
    if domain.N == 2:
        assert not full.symmetric


def test_loglap_assembly_projects_once(monkeypatch):
    # the difference part and the far field share one projection, and the
    # offsets inside the origin cells (|z| < h) enter by their radial
    # moments, not through it: the x-dependent h = 0.02 ball projects 219 of
    # the 1558 radii on each of its 8 rays
    calls = []

    def counting(grid, offsets):
        calls.append(np.linalg.norm(offsets, axis=1))
        return difference_projection(grid, offsets)

    monkeypatch.setattr(geometry, "difference_projection", counting)
    cases = (
        ("loglap", Domain.box([-0.6, -0.4], [0.4, 0.5]), 0.1, None),
        ("generic", Domain.ball([0.013, -0.007], 0.25), 0.02, _wobble_kernel()),
        ("generic", Domain.interval(-0.5, 0.5), 0.001, _wobble_kernel()),
        ("schrodinger", Domain.interval(-0.5, 0.5), 0.05, None),
    )
    for operator, domain, h, kernel in cases:
        grid = build_grid(domain, h)
        problem = ProblemSpec(operator, domain, const_field(1.0), kernel=kernel)
        calls.clear()
        assemble(problem, grid, CFG)
        (radii,) = calls
        assert np.min(radii) >= h * (1 - 1e-15)
        if operator == "loglap":
            assert np.max(domain.max_reach(grid.nodes)) > 1.0
            assert np.max(radii) > 1.0
        if domain.N == 2 and kernel is not None:
            assert len(radii) == 1752


def test_rows_inside_the_kernels_reach_sum_to_zero():
    # the unit kernel on B_1.5: a row whose unit ball, widened by a cell
    # diagonal, stays inside the domain sees every corner of every offset's
    # cell on a node, so it sums to 0 in exact arithmetic.  The weights of the
    # offsets inside the origin cells leave the diagonal and the stencil
    # alike: those rows read at most 3.3e-16 of max|A| (the projection of
    # every offset read 2.6e-14, the diagonal cancelling the origin weight)
    domain = Domain.ball([0.0, 0.0], 1.5)
    grid = build_grid(domain, 0.125)
    problem = ProblemSpec("generic", domain, const_field(1.0), kernel=unit_kernel())
    A = assemble(problem, grid, CFG).matrix
    inside = np.linalg.norm(grid.nodes, axis=1) + 1.0 + grid.h * math.sqrt(2) < 1.5
    assert (grid.n, np.count_nonzero(inside)) == (437, 21)
    assert np.max(np.abs(A[inside].sum(axis=1))) <= 2e-15 * np.max(np.abs(A))


@pytest.mark.parametrize(
    "operator, domain, h, kernel",
    [
        ("generic", Domain.ball([0.0, 0.0], 0.25), 0.01, unit_kernel()),
        ("loglap", Domain.ball([0.0, 0.0], 0.25), 0.01, None),
        ("schrodinger", Domain.ball([0.0, 0.0], 0.25), 0.01, None),
        ("generic", Domain.interval(-0.5, 0.5), 0.001, _wobble_kernel()),
        ("generic", Domain.interval(-0.5, 0.5), 0.001, _phase_wobble_kernel()),
        ("generic", Domain.ball([0.013, -0.007], 0.25), 0.01, _phase_wobble_kernel()),
    ],
    ids=["generic", "loglap", "schrodinger", "xdep-1d", "xdep-1d-sampled", "xdep-2d-sampled"],
)
def test_assembly_peak_memory_is_the_matrix(operator, domain, h, kernel):
    # a dense matrix (2-D grid or x-dependent kernel) is the only n x n array
    # assembly allocates, so the documented 16*n^2 bytes (matrix plus LU
    # copy) hold for every operator.  The odd wobble kernel takes every
    # node's own stencil here, the phase-shifted one 33 Chebyshev samples:
    # on the ball (n = 1941) 33 stencils of 10 201 entries and their
    # weights at the nodes, a tenth of the matrix beside it (the traced
    # peak reads 1.24 matrices; sampled_stencils holds them to n^2 entries)
    problem = ProblemSpec(operator, domain, const_field(1.0), kernel=kernel)
    # untraced: fills the quadrature caches
    assemble(problem, build_grid(domain, 0.1), CFG)
    grid = build_grid(domain, h)
    tracemalloc.start()
    try:
        sm = assemble(problem, grid, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(sm) is solver.StiffnessMatrix
    assert sm.matrix.shape == (grid.n, grid.n)
    assert (1 < sm.stencils < grid.n / 4) == (kernel is not None and kernel.name == "phase-wobble")
    assert peak <= 1.25 * sm.matrix.nbytes


def _xdep_kernel(name, weight, lam=0.5, Lam=1.5):
    return KernelSpec(evaluate=lambda x, Y: weight(x, np.atleast_2d(Y)), lam=lam, Lam=Lam,
                      translation_invariant=False, name=name)


_XDEP_KERNELS = {
    # odd in x_0: on the interval, centred on 0, degree 2 passes the p/2 test
    # by symmetry and the checks refuse it, so every node is evaluated
    "wobble": _wobble_kernel(),
    "phase-wobble": _phase_wobble_kernel(),
    "flat": _xdep_kernel("flat", lambda x, Y: np.ones(len(Y)), 1.0, 1.0),
    # not even in z, so the stencils are not symmetric
    "skew": _xdep_kernel(
        "skew", lambda x, Y: 1.0 + 0.3 * math.sin(2.0 * x[0] + 0.5) * np.tanh(5.0 * Y[:, 0])
    ),
    # x and z mixed, and on both axes: beyond the budget on the ball
    "mixed": _xdep_kernel(
        "mixed", lambda x, Y: 1.0 + 0.3 * np.tanh(2.0 * x[-1] + Y[:, 0]) * math.exp(-x[0] ** 2)
    ),
    # a jump in x: the misfit does not fall, and sampling stops at the budget
    "x-jump": _xdep_kernel(
        "x-jump",
        lambda x, Y: 1.0 + 0.3 * math.copysign(1.0, x[0] - 0.05) * np.cos(np.linalg.norm(Y, axis=1)),
    ),
    # a small inclusion: a bump in x narrower than the samples' spacing, so
    # the samples and the node checks all miss it.  The kernel at the
    # probed offsets at every node sees it (on the ball too, where it falls
    # between the nodes)
    "bump": _xdep_kernel(
        "bump",
        lambda x, Y: 1.0 + 0.3 * math.exp(-(((x[0] - 0.123) / 0.002) ** 2)) * np.ones(len(Y)),
        1.0, 1.3,
    ),
    # the odd wobble on offsets with 0.07 < |z| < 0.1 only: between the
    # probed radii on the fine interval (0.001 * 1000^(k/7)), so
    # only the exact stencils at the node checks refuse degree 2 there
    "band-wobble": _xdep_kernel(
        "band-wobble",
        lambda x, Y: 1.0 + 0.4 * math.sin(3.0 * x[0])
        * ((np.abs(np.linalg.norm(Y, axis=1) - 0.085) < 0.015)),
        0.6, 1.4,
    ),
}
_XDEP_GRIDS = {
    "ball": (Domain.ball([0.013, -0.007], 0.25), 0.02),
    "interval": (Domain.interval(-0.5, 0.5), 0.001),
    "interval-coarse": (Domain.interval(-0.5, 0.5), 0.0025),
}
# the cases that take the interpolant, with fewer than n/4 stencils
_XDEP_SAMPLED = {
    ("wobble", "ball"),
    ("band-wobble", "ball"),
    *((kernel, grid) for kernel in ("phase-wobble", "flat", "skew") for grid in _XDEP_GRIDS),
    ("mixed", "interval"),
    ("mixed", "interval-coarse"),
}


@pytest.mark.parametrize("grid_case", list(_XDEP_GRIDS))
@pytest.mark.parametrize("kernel_case", list(_XDEP_KERNELS))
def test_sampled_xdependent_assembly_matches_every_node(kernel_case, grid_case, monkeypatch):
    # the Lagrange combination of a few Chebyshev samples against every
    # node's own stencil: within 1e-12 of max|A|, with the same signs
    # entry by entry (a Z-matrix stays one) and the same certificate and
    # maximum-principle verdicts
    domain, h = _XDEP_GRIDS[grid_case]
    problem = ProblemSpec("generic", domain, const_field(1.0), kernel=_XDEP_KERNELS[kernel_case])
    grid = build_grid(domain, h)
    sm = assemble(problem, grid, CFG)
    monkeypatch.setattr(_chebyshev, "SAMPLE_SHARE", 0.0)
    ref = assemble(problem, grid, CFG)
    assert ref.stencils == grid.n
    A, R = sm.matrix, ref.matrix
    assert np.max(np.abs(A - R)) <= 1e-12 * np.max(np.abs(R))
    assert np.array_equal(np.sign(A), np.sign(R))
    assert np.max(R[~np.eye(grid.n, dtype=bool)]) <= 0.0
    assert sm._is_m_matrix() == ref._is_m_matrix()
    (_, got), (_, want) = (solve_dirichlet(problem, grid, CFG, stiffness=m) for m in (sm, ref))
    assert (got.sigma_path, got.alternative, got.mp_audit["certified"], got.mp_audit["pass"]) == (
        want.sigma_path, want.alternative, want.mp_audit["certified"], want.mp_audit["pass"])
    assert (sm.stencils < grid.n / 4) == ((kernel_case, grid_case) in _XDEP_SAMPLED)
    if sm.stencils >= grid.n:
        assert np.array_equal(A, R)
    if kernel_case == "x-jump":
        # doubled in x_0 up to the largest degree the budget takes, 32, 128
        # or 64, then every node; the ball's x_1 axis was taken at degree 0
        # after its first 3 samples
        tried = {"ball": 9 - 3 + 33, "interval": 129, "interval-coarse": 65}[grid_case]
        assert sm.stencils == grid.n + tried


@pytest.mark.parametrize("phase", [0.4, 2.0, 5.1])
def test_xdependent_solves_evaluate_the_kernel_at_few_base_points(phase):
    # the x-dependent benchmark shapes, the ball at h = 0.02 (n = 489) and
    # the interval at h = 0.001 (n = 999): the kernel is evaluated at all of
    # its offsets at fewer than n/4 base points, and the report counts each.
    # The check at every node adds one call there, and at each sample, for
    # a few offsets: counted in kernel values, assembly evaluates under a
    # quarter of what the per-node path does
    shapes = (
        (Domain.ball([0.013, -0.007], 0.25), 0.02),
        (Domain.ball([-0.21, 0.17], 0.25), 0.02),
        (Domain.interval(-0.5, 0.5), 0.001),
    )
    for domain, h in shapes:
        calls = []
        problem = ProblemSpec("generic", domain, const_field(1.0),
                              kernel=_phase_wobble_kernel(phase, calls))
        grid = build_grid(domain, h)
        _, report = solve_dirichlet(problem, grid, CFG)
        stencil = max(calls)
        full = calls.count(stencil)
        assert full == report.timings["stencils"] < grid.n / 4
        probes = [m for m in calls if m != stencil]
        assert max(probes) == solver._PROBES and grid.n < len(probes) < grid.n + full
        assert sum(calls) < grid.n * stencil / 4
        assert report.sigma_path == "m_matrix"


@pytest.mark.parametrize("outside", ["nan", "raise"])
def test_kernel_undefined_outside_the_domain_takes_every_node(outside, monkeypatch):
    # the Chebyshev samples span the nodes' bounding box, whose corners lie
    # outside a ball: a kernel that is NaN there, or raises there (a math
    # domain error), sends every node to its own stencil, and the matrix is
    # the per-node one bit for bit
    centre, radius = np.array([0.013, -0.007]), 0.25
    wobble = _phase_wobble_kernel()

    def evaluate(x, Y):
        if np.linalg.norm(x - centre) <= radius:
            return wobble.evaluate(x, Y)
        if outside == "raise":
            return np.full(len(Y), math.sqrt(-1.0))
        return np.full(len(Y), np.nan)

    kernel = KernelSpec(evaluate=evaluate, lam=0.7, Lam=1.3, translation_invariant=False,
                        name=f"{outside}-outside")
    domain = Domain.ball(centre, radius)
    grid = build_grid(domain, 0.02)
    problem = ProblemSpec("generic", domain, const_field(1.0), kernel=kernel)
    sm = assemble(problem, grid, CFG)
    # the 3 x 3 first samples, whose corners lie outside: refused at once,
    # without the node checks (at the first, a corner, for a kernel that
    # raises), then every node
    assert sm.stencils == (1 if outside == "raise" else 9) + grid.n
    monkeypatch.setattr(_chebyshev, "SAMPLE_SHARE", 0.0)
    assert np.array_equal(sm.matrix, assemble(problem, grid, CFG).matrix)


def test_kernel_that_raises_at_a_node_raises_from_assembly():
    # a failure at a node is not hidden by the fallback: the per-node path
    # evaluates the kernel there and raises it
    def evaluate(x, Y):
        if x[0] > 0.3:
            raise ValueError("math domain error")
        return np.ones(len(Y))

    kernel = KernelSpec(evaluate=evaluate, lam=1.0, Lam=1.0, translation_invariant=False,
                        name="raises")
    domain = Domain.interval(-0.5, 0.5)
    problem = ProblemSpec("generic", domain, const_field(1.0), kernel=kernel)
    with pytest.raises(ValueError, match="math domain error"):
        assemble(problem, build_grid(domain, 0.0025), CFG)


def test_toeplitz_path_holds_no_dense_matrix():
    # assembly, a solve and the sweep on a 1-D Toeplitz stiffness keep its
    # first column and O(n) work arrays, far below one n x n matrix
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.0005)
    assert grid.n == 1999

    def run():
        sm = assemble(problem, grid, CFG)
        _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
        fredholm_sweep(problem, grid, CFG, 1.0, 2.5)
        return report

    run()  # fills the quadrature caches untraced
    tracemalloc.start()
    try:
        report = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.factorization == "toeplitz"
    assert peak < 0.05 * 8 * grid.n ** 2


def _no_room_for_dense(monkeypatch, n):
    """Report physical memory one page short of the 16*n^2 bytes the dense
    system of n nodes needs."""
    page = 4096
    pages = solver.DENSE_BYTES_PER_ENTRY * n ** 2 // page - 1
    sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page}
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or sysconf(name))


@pytest.mark.parametrize("fallback", ["backward-error", "sigma-floor"])
def test_dense_size_guard_runs_when_a_toeplitz_matrix_is_formed(monkeypatch, fallback):
    # a Toeplitz stiffness stores n numbers: it assembles and solves without
    # room for a dense matrix, and the guard refuses only what would form one,
    # naming why, before anything n x n is allocated
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.0005)
    lam1 = fredholm_sweep(problem, grid, CFG, 1.0, 2.5)["mu_star"]
    _no_room_for_dense(monkeypatch, grid.n)
    sm = assemble(problem, grid, CFG)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert (report.factorization, report.alternative) == ("toeplitz", "unique_solution")
    with pytest.raises(ValueError, match=rf"reading the dense matrix: .*n={grid.n}"):
        sm.matrix
    if fallback == "backward-error":
        monkeypatch.setattr(_toeplitz, "BACKWARD_TOL", 0.0)
    else:
        problem = replace(problem, shift=-lam1)
    sm = assemble(problem, grid, CFG)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match=rf"LU fallback from the Toeplitz factor: .*n={grid.n}.*coarser grid",
        ):
            solve_dirichlet(problem, grid, CFG, stiffness=sm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * grid.n ** 2


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
    # counted on the factorization the matrix takes: Toeplitz in 1-D, LU in 2-D
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
    assert set(report.timings) == {*phases, "n", "stencils"}
    assert report.timings["n"] == grid.n
    assert report.timings["stencils"] == 1  # one stencil, translation invariant
    assert all(report.timings[k] >= 0 for k in phases)
    assert report.timings["assemble_s"] > 0
    sm = assemble(problem, grid, CFG)
    _, first = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert first.timings["assemble_s"] == 0.0
    assert first.timings["stencils"] == 0
    assert first.timings["factor_s"] > 0 and first.timings["sigma_s"] > 0
    assert first.timings["n"] == grid.n
    # a factored matrix is not factored again
    _, again = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert again.timings["factor_s"] == again.timings["sigma_s"] == 0.0
    assert again.timings["solve_s"] > 0 and again.timings["audit_s"] > 0


class _NoScipyLinalg:
    """Stands in for solver.sla: any use of scipy.linalg fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"scipy.linalg.{name} was used")


def _single_use_results(monkeypatch):
    """What each StiffnessMatrix._solve_once returned: True when it solved,
    False when it left the matrix to its kept factorization."""
    results = []
    solve_once = solver.StiffnessMatrix._solve_once

    def recorded(sm, f):
        once = solve_once(sm, f)
        results.append(once is not None)
        return once

    monkeypatch.setattr(solver.StiffnessMatrix, "_solve_once", recorded)
    return results


# domain, h, problem: single-use solves the certificate holds for
_SINGLE_USE_CASES = {
    "2d-unit": (Domain.ball([0.0, 0.0], 0.25), 0.05, "generic", unit_kernel),
    "2d-sinlog": (Domain.ball([0.1, -0.2], 0.25), 0.04, "generic", sinlog_kernel),
    "2d-loglap-box": (Domain.box([-0.75, -0.75], [0.75, 0.75]), 0.14, "loglap", None),
    "2d-schrodinger": (Domain.ball([0.0, 0.0], 0.1), 0.025, "schrodinger", None),
    "1d-unit-small-toeplitz": (Domain.interval(-0.5, 0.5), 0.01, "generic", unit_kernel),
}


@pytest.mark.parametrize("case", list(_SINGLE_USE_CASES))
def test_single_use_solve_matches_the_kept_factor(case, monkeypatch):
    # solved once by numpy.linalg.solve (no scipy.linalg) against the kept
    # LU factor of the same matrix passed as a prebuilt stiffness
    domain, h, operator, kernel = _SINGLE_USE_CASES[case]
    problem = ProblemSpec(operator, domain, quadratic_field(),
                          kernel=kernel() if kernel else None)
    grid = build_grid(domain, h)
    u_ref, ref = solve_dirichlet(problem, grid, CFG, stiffness=assemble(problem, grid, CFG))
    results = _single_use_results(monkeypatch)
    monkeypatch.setattr(solver, "sla", _NoScipyLinalg())
    u, report = solve_dirichlet(problem, grid, CFG)
    assert results == [True]
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-13 * np.max(np.abs(u_ref.values))
    assert report.sigma_min == pytest.approx(ref.sigma_min, rel=1e-12, abs=0)
    assert report.condition_estimate == pytest.approx(ref.condition_estimate, rel=1e-12,
                                                      abs=0)
    assert report.residual_inf <= 1e-13 * np.max(np.abs(problem.rhs.evaluate(grid.nodes)))
    for key in ("alternative", "sigma_path", "factorization", "iterations"):
        assert getattr(report, key) == getattr(ref, key)
    audit, ref_audit = dict(report.mp_audit), dict(ref.mp_audit)
    assert audit.pop("sup_ratio") == pytest.approx(ref_audit.pop("sup_ratio"), rel=1e-13)
    assert audit == ref_audit
    assert (report.factorization, report.sigma_path) == ("lu", "m_matrix")
    # the one gesv is factor_s; there is no separate certificate or solve
    assert report.timings["factor_s"] > 0.0
    assert report.timings["sigma_s"] == report.timings["solve_s"] == 0.0


# what numpy.linalg.solve returns as the first entry of y = A^-1 1
_EDITED_Y = {"negative-y": -1.0, "nan-y": math.nan, "inf-y": math.inf}


@pytest.mark.parametrize("fallback", [
    "not-a-z-matrix", "zero-pivot", *_EDITED_Y, "below-sigma-floor",
])
def test_single_use_fallbacks_keep_the_kept_factor_verdict(fallback, monkeypatch):
    # each matrix the single-use solve refuses gets the verdict and the
    # sigma_path of its kept factorization, as a prebuilt stiffness
    problem = _interval_problem(half=0.1)
    grid = build_grid(problem.domain, 0.04)
    A = assemble(problem, grid, CFG).matrix
    gesv = np.linalg.solve

    def faulty_gesv(A, B):
        if fallback == "zero-pivot":
            raise np.linalg.LinAlgError("Singular matrix")
        uy = gesv(A, B)
        uy[0, 1] = _EDITED_Y[fallback]
        return uy

    if fallback == "not-a-z-matrix":
        # one positive pair off the diagonal: A^-1 1 stays positive, but A
        # is not certified, so the iteration gives sigma_min
        A = np.array(A)
        A[0, 1] = A[1, 0] = 0.1 * A[0, 0]
    elif fallback == "below-sigma-floor":
        # (5 + d) I - ones: row sums d, so certified, but sigma_min = d lies
        # under both SIGMA_MIN_REL_FLOOR and the near-singular threshold
        A = (5.0 + 1e-12) * np.eye(5) - np.ones((5, 5))
    else:
        monkeypatch.setattr(np.linalg, "solve", faulty_gesv)

    def stiffness():
        sm = solver.StiffnessMatrix(A, grid)
        sm.symmetric = True
        return sm

    u_ref, ref = solve_dirichlet(problem, grid, CFG, stiffness=stiffness())
    monkeypatch.setattr(solver, "assemble", lambda *args: stiffness())
    results = _single_use_results(monkeypatch)
    u, report = solve_dirichlet(problem, grid, CFG)
    assert results == [False]
    assert np.array_equal(u.values, u_ref.values)
    _same_report(report, ref)
    expected = {"not-a-z-matrix": ("unique_solution", "iteration"),
                "below-sigma-floor": ("near_singular", "iteration")}
    assert (report.alternative, report.sigma_path) == expected.get(
        fallback, ("unique_solution", "m_matrix"))


def test_single_use_solve_with_non_finite_data_raises(monkeypatch):
    problem = ProblemSpec("generic", Domain.ball([0.0, 0.0], 0.25), const_field(math.nan),
                          kernel=unit_kernel())
    grid = build_grid(problem.domain, 0.05)
    results = _single_use_results(monkeypatch)
    for stiffness in (assemble(problem, grid, CFG), None):
        with pytest.raises(ArithmeticError, match="non-finite"):
            solve_dirichlet(problem, grid, CFG, stiffness=stiffness)
    assert results == [True]


def _count_factorizations(monkeypatch):
    """Calls of lu_factor and of the Toeplitz generator (one per Toeplitz
    factorization), by name."""
    calls = {"lu_factor": 0, "generator": 0}

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(solver.sla, "lu_factor", "lu_factor")
    count(_toeplitz, "generator", "generator")
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
def test_shared_matrix_is_factored_once(monkeypatch, toeplitz_at_any_n, shift):
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
    assert calls == {"lu_factor": 0, "generator": 1}
    for p, (u, report) in zip(problems, shared):
        u_ref, ref = solve_dirichlet(p, grid, CFG, stiffness=assemble(p, grid, CFG))
        assert report.alternative == "unique_solution"
        assert report.factorization == "toeplitz"
        assert np.array_equal(u.values, u_ref.values)
        _same_report(report, ref)
    assert calls == {"lu_factor": 0, "generator": 1 + len(problems)}


def test_shared_near_singular_matrix_keeps_its_verdict(monkeypatch, toeplitz_at_any_n):
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
    # after the one Toeplitz attempt
    assert calls == {"lu_factor": 1, "generator": 1}
    assert first.alternative == second.alternative == "near_singular"
    assert first.factorization == "lu"
    assert np.array_equal(v2.values, kept)
    _same_report(second, first)


def test_toeplitz_factor_is_kept_above_the_sigma_floor(toeplitz_at_any_n):
    # sigma_min = 1e-8 times the 1-norm, 10^2 above SIGMA_MIN_REL_FLOOR:
    # the Toeplitz factor stays, and its estimate agrees with LU's to far
    # better than the margin to the near-singular threshold
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
    # the shift makes the row sums negative, so both take the sigma_min
    # iteration, not the M-matrix certificate
    assert report.sigma_path == ref.sigma_path == "iteration"
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
def test_toeplitz_path_matches_lu(case, tmp_path, toeplitz_at_any_n):
    # the same matrix solved through the Toeplitz factor (as assembled) and
    # through LU (as a raw array)
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
    # both paths name the same sigma_min computation, and it agrees with the
    # SVD: a certified M-matrix bound lies below sigma_min, the iteration
    # (the log-Laplacian with far field, whose row sums go negative)
    # converges to it
    assert report.sigma_path == ref.sigma_path
    sigma = np.linalg.svd(oracle.matrix, compute_uv=False)[-1]
    if report.sigma_path == "m_matrix":
        assert max(report.sigma_min, ref.sigma_min) <= sigma
    else:
        assert report.sigma_path == "iteration"
        assert report.sigma_min == pytest.approx(sigma, rel=1e-10)


@pytest.mark.parametrize(
    "operator, half, h, kernel, shift, negative",
    [
        ("generic", 0.5, 0.005, unit_kernel, 0.0, 0),
        ("generic", 0.5, 0.005, sinlog_kernel, 0.0, 0),
        ("schrodinger", 0.5, 0.005, None, 0.0, 0),
        ("loglap", 0.5, 0.005, None, 0.0, 0),
        # shifted past lambda_1 (1.85 for the unit kernel): T - shift*I, the
        # factor's own shift
        ("generic", 0.5, 0.005, unit_kernel, 2.5, 1),
        ("generic", 0.5, 0.005, sinlog_kernel, 4.0, 4),
        # the wide log-Laplacian, indefinite without a shift
        ("loglap", 0.8, 0.005, None, 0.0, 1),
        ("loglap", 3.0, 0.02, None, 0.0, 2),
    ],
)
def test_toeplitz_generator_matches_dense_solve(monkeypatch, operator, half, h, kernel,
                                                shift, negative):
    # x = (T - shift*I)^-1 e_1 from preconditioned MINRES agrees with a dense
    # solve on definite and indefinite matrices, in a few iterations
    domain = Domain.interval(-half, half)
    problem = ProblemSpec(operator, domain, const_field(1.0),
                          kernel=kernel() if kernel else None)
    sm = assemble(problem, build_grid(domain, h), CFG)
    T = sla.toeplitz(sm.column) - shift * np.eye(sm.n)
    assert np.count_nonzero(np.linalg.eigvalsh(T) < 0) == negative
    generated = []
    generator = _toeplitz.generator

    def recorded(*args):
        generated.append(generator(*args))
        return generated[-1]

    monkeypatch.setattr(_toeplitz, "generator", recorded)
    factor = _toeplitz.Factor(sm.column, shift)
    ((x, iterations),) = generated
    x_ref = np.linalg.solve(T, np.eye(1, sm.n)[0])
    assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))
    assert factor.iterations == iterations
    assert iterations <= 20


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_toeplitz_column_is_the_gathered_matrix(case, tmp_path, monkeypatch):
    # assemble keeps the first column c of the matrix the row gather of
    # _lattice_matrix fills: toeplitz(c) is that matrix bit for bit, on both
    # sides of the diagonal.  The products match componentwise.
    operator, domain, h, make_kernel, shift = _ORACLE_CASES[case]
    problem = ProblemSpec(
        operator=operator,
        domain=domain,
        rhs=quadratic_field(),
        kernel=make_kernel(tmp_path) if make_kernel else None,
        shift=shift,
    )
    grid = build_grid(domain, h)
    gathered = []
    lattice_matrix = solver._lattice_matrix

    def both_paths(*args, toeplitz=False):
        gathered.append(lattice_matrix(*args))
        return lattice_matrix(*args, toeplitz=toeplitz)

    monkeypatch.setattr(solver, "_lattice_matrix", both_paths)
    sm = assemble(problem, grid, CFG)
    assert type(sm) is solver._ToeplitzStiffness
    (A,) = gathered
    T = sm.matrix
    assert np.array_equal(T, sla.toeplitz(sm.column))
    assert np.array_equal(T, A)
    for v in (np.random.default_rng(0).standard_normal(grid.n), np.ones(grid.n)):
        err = np.abs(sm.matvec(v) - T @ v)
        assert np.all(err <= 1e-15 * (np.abs(T) @ np.abs(v)))


def test_only_1d_translation_invariant_matrices_take_the_toeplitz_factor(toeplitz_at_any_n):
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


def test_small_toeplitz_matrices_take_lu():
    # below TOEPLITZ_MIN_N rows LU is the faster factorization
    problem = _interval_problem()
    for h, factorization in ((0.05, "lu"), (0.002, "toeplitz")):
        grid = build_grid(problem.domain, h)
        assert (grid.n < solver.TOEPLITZ_MIN_N) == (factorization == "lu")
        sm = assemble(problem, grid, CFG)
        assert type(sm) is solver._ToeplitzStiffness
        _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
        assert report.factorization == factorization


def test_sigma_min_estimate_survives_an_overflowing_solve():
    # a pivot of 1e-310 is not zero, but the first solve overflows to inf:
    # the estimate reads sigma_min = 0 from it instead of the next LU solve
    # rejecting the inf iterate
    factor = solver._LU(np.diag([1.0, 1e-310]), 0.0)
    assert not factor.singular
    sigma, _ = solver._sigma_min_estimate(factor, 2)
    assert sigma == 0.0


def test_condition_estimate_keeps_its_sigma_min_floor():
    # ||A^-1||_1 >= 1/(sigma_min sqrt(n)): here Hager-Higham alone reads
    # ||A||_1 ||A^-1||_1 ~ 49, under that floor (~2376; the true value is
    # ~16600), so the iteration path reports the floor
    problem = replace(_interval_problem(half=3.0), shift=-0.5)
    grid = build_grid(problem.domain, 0.1875)
    assert grid.n == 31
    sm = assemble(problem, grid, CFG)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert (report.factorization, report.sigma_path) == ("lu", "iteration")
    anorm = float(np.linalg.norm(sm.matrix, 1))
    floor = anorm / (report.sigma_min * math.sqrt(grid.n))
    hager = anorm * solver._inverse_norm1_estimate(sm._factors.factor.solve, grid.n)
    assert hager < 0.1 * floor
    assert floor <= report.condition_estimate * (1 + 1e-15)
    assert report.condition_estimate <= np.linalg.cond(sm.matrix, 1)


def test_toeplitz_factor_failures_fall_back_to_lu(monkeypatch, toeplitz_at_any_n):
    problem = _interval_problem(half=0.1)
    grid = build_grid(problem.domain, 0.04)
    assert grid.n == 5
    # symmetric Toeplitz with eigenvalues 4, -1, -1, -1, -1 and a zero first
    # leading minor, which stopped Levinson's recursion: MINRES does not
    # need nonsingular leading minors, so it stays on the Toeplitz path
    A = np.ones((5, 5)) - np.eye(5)
    sm = solver._ToeplitzStiffness(A[:, 0], grid)
    u, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    oracle = solver.StiffnessMatrix(A, grid)
    u_lu, ref = solve_dirichlet(problem, grid, CFG, stiffness=oracle)
    assert (report.factorization, ref.factorization) == ("toeplitz", "lu")
    assert report.alternative == ref.alternative == "unique_solution"
    assert np.max(np.abs(u.values - u_lu.values)) <= 1e-12 * np.max(np.abs(u_lu.values))
    assert np.allclose(u.values, 0.25, rtol=0, atol=1e-15)
    # singular matrices the generator refuses: all ones, where MINRES stalls
    # at the iteration cap, and zero row sums, whose circulant preconditioner
    # is singular.  LU finds the zero pivot.
    for A in (np.ones((5, 5)), 5.0 * np.eye(5) - np.ones((5, 5))):
        with pytest.raises(np.linalg.LinAlgError):
            _toeplitz.Factor(A[:, 0])
        sm = solver._ToeplitzStiffness(A[:, 0], grid)
        _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
        assert (report.factorization, report.alternative) == ("lu", "near_singular")
    # a Toeplitz factor that fails the backward-error check is not kept
    sm = assemble(problem, grid, CFG)
    monkeypatch.setattr(_toeplitz, "BACKWARD_TOL", 0.0)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert report.factorization == "lu"


def test_fredholm_sweep_falls_back_from_the_toeplitz_factor(monkeypatch, toeplitz_at_any_n):
    # equal row sums equal lambda_1 = 0: the generator refuses the singular
    # A - 0*I, LU confirms it, and the lowered shift takes the Toeplitz factor
    problem = _interval_problem(half=0.1)
    grid = build_grid(problem.domain, 0.04)
    A = 5.0 * np.eye(5) - np.ones((5, 5))
    monkeypatch.setattr(
        solver, "assemble", lambda *args: solver._ToeplitzStiffness(A[:, 0], grid)
    )
    calls = _count_factorizations(monkeypatch)
    out = fredholm_sweep(problem, grid, CFG, 0.0, 1.0)
    assert out["mu_star"] == pytest.approx(0.0, abs=1e-14)
    # the FFT solves round where LU on these integers is exact, so the
    # enclosure from y = (A - sigma*I)^-1 x alone missed lambda_1 = 0 by an ulp
    assert out["bounds"][0] <= 0.0 <= out["bounds"][1]
    assert calls == {"lu_factor": 1, "generator": 2}


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
    # permutation dgecon leaves out; on these matrices both take the same
    # steps.  The solve reports the M-matrix certificate's exact condition
    # number, which the estimate reaches on these matrices.
    problem = ProblemSpec(operator, domain, const_field(1.0), kernel=kernel)
    grid = build_grid(domain, h)
    sm = assemble(problem, grid, CFG)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert (report.factorization, report.sigma_path) == ("lu", "m_matrix")
    anorm = float(np.linalg.norm(sm.matrix, 1))
    rcond, _ = sla.lapack.dgecon(sla.lu_factor(sm.matrix)[0], anorm, norm="1")
    estimate = anorm * solver._inverse_norm1_estimate(sm._factors.factor.solve, grid.n)
    assert estimate == pytest.approx(1.0 / rcond, rel=1e-12, abs=0)
    assert report.condition_estimate == pytest.approx(1.0 / rcond, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "operator, domain, kernel, h, factorization",
    [
        ("generic", _BALL, sinlog_kernel(), 0.02, "lu"),
        ("loglap", Domain.box([-0.5, -0.5], [0.5, 0.5]), None, 0.05, "lu"),
        ("schrodinger", Domain.ball([0.0, 0.0], 0.25), None, 0.04, "lu"),
        ("generic", Domain.interval(-0.5, 0.5), unit_kernel(), 0.003, "toeplitz"),
        # x-dependent: not symmetric, so A^-1 1 and A^-T 1 differ
        ("generic", Domain.interval(-0.5, 0.5), _wobble_kernel(), 0.01, "lu"),
    ],
    ids=["ball-sinlog", "box-loglap", "ball-schrodinger", "interval-toeplitz",
         "interval-wobble"],
)
def test_m_matrix_certificate_is_exact(operator, domain, kernel, h, factorization):
    # a Z-matrix with positive row sums has A^-1 >= 0: two solves give its
    # 1-norm condition number exactly and a lower bound on sigma_min
    problem = ProblemSpec(operator, domain, const_field(1.0), kernel=kernel)
    grid = build_grid(domain, h)
    sm = assemble(problem, grid, CFG)
    if factorization == "toeplitz":
        assert type(sm) is solver._ToeplitzStiffness and grid.n >= solver.TOEPLITZ_MIN_N
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert (report.factorization, report.sigma_path) == (factorization, "m_matrix")
    assert report.mp_audit["certified"]
    A = sm.matrix
    assert report.condition_estimate == pytest.approx(np.linalg.cond(A, 1), rel=1e-10)
    sigma = np.linalg.svd(A, compute_uv=False)[-1]
    assert 0.5 * sigma <= report.sigma_min <= sigma


def test_wide_log_laplacian_takes_the_sigma_iteration():
    # on (-3, 3) the far field outweighs the near part: the smallest row sum
    # is negative and A^-1 1 is not positive, so nothing is certified
    problem = ProblemSpec("loglap", Domain.interval(-3.0, 3.0), const_field(1.0))
    grid = build_grid(problem.domain, 0.05)
    sm = assemble(problem, grid, CFG)
    assert np.min(sm._z_stats()[2]) < -3.0
    A = sm.matrix
    assert np.min(np.linalg.solve(A, np.ones(grid.n))) < 0
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert report.sigma_path == "iteration"
    assert not report.mp_audit["certified"]
    sigma = np.linalg.svd(A, compute_uv=False)[-1]
    assert report.sigma_min == pytest.approx(sigma, rel=1e-10)


def test_one_positive_off_diagonal_entry_takes_the_sigma_iteration():
    problem = _interval_problem()
    grid = build_grid(problem.domain, 0.05)
    A = np.array(assemble(problem, grid, CFG).matrix)
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=solver.StiffnessMatrix(A, grid))
    assert report.sigma_path == "m_matrix"
    A[3, 7] = 1e-300
    sm = solver.StiffnessMatrix(A, grid)
    assert sm._z_stats()[0] > 0.0 and np.min(sm._z_stats()[2]) > 0.0
    _, report = solve_dirichlet(problem, grid, CFG, stiffness=sm)
    assert report.sigma_path == "iteration"
    assert not report.mp_audit["certified"]
    sigma = np.linalg.svd(A, compute_uv=False)[-1]
    assert report.sigma_min == pytest.approx(sigma, rel=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_certified_matrix_keeps_nonnegative_data_nonnegative(seed):
    # A^-1 >= 0 entrywise: f >= 0, half of it zero, gives u >= 0 exactly
    problem = ProblemSpec("generic", _BALL, const_field(1.0), kernel=sinlog_kernel())
    grid = build_grid(_BALL, 0.03)
    sm = assemble(problem, grid, CFG)
    rng = np.random.default_rng(seed)
    f = rng.random(grid.n) * (rng.random(grid.n) < 0.5)
    data = replace(problem, rhs=grid_field(GridFunction(grid, f)))
    assert np.array_equal(data.rhs.evaluate(grid.nodes), f)
    u, report = solve_dirichlet(data, grid, CFG, stiffness=sm)
    assert report.sigma_path == "m_matrix"
    assert report.mp_audit["certified"] and report.mp_audit["pass"]
    assert np.min(u.values) >= 0.0


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


def test_fredholm_sweep_locates_first_eigenvalue(monkeypatch, toeplitz_at_any_n):
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    A = assemble(problem, grid, CFG).matrix
    real_eigs = np.sort(np.linalg.eigvals(A).real)
    lam1, lam2 = float(real_eigs[0]), float(real_eigs[1])
    calls = _count_factorizations(monkeypatch)
    out = fredholm_sweep(problem, grid, CFG, 0.5 * lam1, 0.5 * (lam1 + lam2))
    # A - sigma*I is symmetric Toeplitz: its Toeplitz factor makes no LU copy
    assert calls == {"lu_factor": 0, "generator": 1}
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


@pytest.mark.parametrize(
    "stiffness",
    [
        lambda A, grid: solver.StiffnessMatrix(A, grid),
        lambda A, grid: solver._ToeplitzStiffness(A[:, 0], grid),
    ],
    ids=["dense", "toeplitz"],
)
def test_fredholm_sweep_guards_its_enclosure(monkeypatch, stiffness):
    problem = _interval_problem(half=0.25)
    grid = build_grid(problem.domain, 0.025)
    monkeypatch.setattr(solver, "SWEEP_MAX_SOLVES", 2)
    with pytest.raises(ArithmeticError, match="2 solves"):
        fredholm_sweep(problem, grid, CFG, 0.0, 10.0)

    def use_matrix(column):
        # symmetric Toeplitz, so both types hold the same matrix
        A = sla.toeplitz(np.array(column, dtype=float))
        monkeypatch.setattr(solver, "assemble", lambda *args: stiffness(A, grid))

    # a positive off-diagonal entry voids the Perron-Frobenius enclosure
    use_matrix([2.0, -1.0, 0.5])
    with pytest.raises(ValueError, match="Z-matrix"):
        fredholm_sweep(problem, grid, CFG, 0.0, 10.0)
    # equal row sums equal lambda_1 = 0, so the first shift is singular
    use_matrix([2.0, -1.0, -1.0])
    out = fredholm_sweep(problem, grid, CFG, 0.0, 1.0)
    assert out["mu_star"] == pytest.approx(0.0, abs=1e-14)
    assert out["bounds"][0] <= 0.0 <= out["bounds"][1]


def test_fredholm_sweep_shift_does_not_depend_on_the_bracket():
    # the shift is the smallest row sum whatever mu_lo is, so a bracket
    # reaching down to -100 costs no more solves than a narrow one
    problem = ProblemSpec("generic", _BALL, const_field(1.0), kernel=sinlog_kernel())
    grid = build_grid(_BALL, 0.02)
    lam1 = float(np.linalg.eigvalsh(assemble(problem, grid, CFG).matrix)[0])
    narrow = fredholm_sweep(problem, grid, CFG, 6.0, 10.0)
    wide = fredholm_sweep(problem, grid, CFG, -100.0, 100.0)
    assert wide["mu_star"] == pytest.approx(lam1, rel=0, abs=1e-10)
    assert wide["evaluations"] == narrow["evaluations"]


@pytest.mark.parametrize(
    "problem, h",
    [
        (_interval_problem(kernel=sinlog_kernel()), 0.01),
        # a negative smallest row sum
        (ProblemSpec("loglap", Domain.interval(-3.0, 3.0), const_field(1.0)), 0.05),
    ],
    ids=["sinlog", "loglap-wide"],
)
def test_toeplitz_z_stats_are_the_dense_statistics(problem, h):
    grid = build_grid(problem.domain, h)
    sm = assemble(problem, grid, CFG)
    assert type(sm) is solver._ToeplitzStiffness
    A = sm.matrix
    off_max, a_max, row_sums = sm._z_stats()
    dense_off_max, dense_a_max, dense_row_sums = solver.StiffnessMatrix(A, grid)._z_stats()
    assert off_max == dense_off_max < 0 and a_max == dense_a_max
    # the two sums add the same entries in different orders
    bound = grid.n * np.finfo(float).eps * np.abs(A).sum(axis=1)
    assert np.all(np.abs(row_sums - dense_row_sums) <= bound)
    if problem.operator == "loglap":
        assert np.min(row_sums) < 0


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
