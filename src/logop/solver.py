"""Collocation discretization and dense solve of the nonlocal Dirichlet problem.

The unknown is the vector of nodal values on a Grid; the operator applied to
the multilinear interpolant (extended by zero outside the domain) is collocated
at the nodes.  The operator is the same record the pointwise evaluators
apply (nonlocal_eval._operator): its radial ranges give one polar rule of
offsets z with weights w (scale and kernel folded in), and the range that
carries u(x) plus the record's constant give the diagonal.  Every operator
is thus one stencil plus one diagonal.  Nodes lie on the lattice
center + h*Z^N, so every node sees the offsets fall into the same lattice
cells: the rule is projected once onto the lattice differences, and for a
translation-invariant operator (every catalog kernel, the log-Laplacian and
the Schrodinger operator) the matrix is gathered from one stencil (a
block-Toeplitz matrix).  Kernels that depend on x project their own
kernel-weighted weights at each node, one sparse matrix-vector product per
row.

Because the radial quadrature weights are positive and the interpolation
weights are a convex partition, the assembled matrix of the difference
operator has nonpositive off-diagonal entries and nonnegative row sums, i.e.
it is an M-matrix: the discrete comparison principle is exact up to the
linear-algebra residual.

A StiffnessMatrix is factored once: its LU factorization, condition estimate
and smallest singular value are computed on the first solve and kept, so
every later right-hand side costs one pair of triangular solves, the
residual and the maximum-principle audit.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import _quadrules, geometry, kernels, nonlocal_eval
from .geometry import Grid, GridFunction
from .logmod import ell, fit_exponent, fit_second_order_exponent

__all__ = [
    "ProblemSpec",
    "StiffnessMatrix",
    "SolveReport",
    "assemble",
    "solve_dirichlet",
    "fredholm_probe",
    "fredholm_sweep",
    "torsion_radii",
    "torsion_scan",
    "estimate_regularity",
]

NEAR_SINGULAR_FACTOR = 1e-10
Z_MATRIX_TOL = 1e-14  # off-diagonal rounding allowed, relative to max|A|
SWEEP_MAX_SOLVES = 500
SIGMA_MIN_RTOL = 1e-13  # relative change of sigma that ends the inverse iteration
DENSE_BYTES_PER_ENTRY = 16  # float64 matrix plus the LU factorization's copy
_OPERATORS = ("generic", "loglap", "schrodinger")


@dataclass(frozen=True)
class ProblemSpec:
    """Dirichlet problem (L + shift*id) u = rhs with zero exterior data.

    operator 'generic' uses the supplied kernel over B_1(x); 'loglap' is the
    logarithmic Laplacian, c_N times the unit-kernel difference part minus
    the far-field convolution plus rho_N times the identity (the tail
    perturbation is built in); 'schrodinger' uses the Bessel-weighted
    difference quotient over the whole space.  Each is defined once, by
    nonlocal_eval._operator, which assembly and the pointwise evaluators
    share.  shift is an optional extra multiple-of-identity perturbation.
    """

    operator: str
    domain: geometry.Domain
    rhs: nonlocal_eval.FieldFunction
    kernel: kernels.KernelSpec | None = None
    shift: float = 0.0

    def __post_init__(self):
        if self.operator not in _OPERATORS:
            raise ValueError(f"operator must be one of {_OPERATORS}")
        if self.operator == "generic" and self.kernel is None:
            raise ValueError("generic operator requires a kernel")
        if self.operator != "generic" and self.kernel is not None:
            raise ValueError("kernel is only meaningful for the generic operator")


@dataclass(frozen=True)
class _Factors:
    """What a solve needs from its matrix besides the matrix itself."""

    lu_piv: tuple
    anorm: float  # 1-norm of the matrix
    condition: float  # 1-norm condition estimate from dgecon
    sigma_min: float
    null_vec: np.ndarray  # approximate singular vector of sigma_min
    factor_s: float
    sigma_s: float


@dataclass(frozen=True, eq=False)
class StiffnessMatrix:
    """Dense collocation matrix; row i applies the operator to the nodal hat
    interpolants at node i.

    The matrix is factored once: the first solve computes its LU
    factorization, 1-norm, condition estimate and smallest singular value
    (`_factors`), and every later solve with this matrix reuses them.  The
    LU copy lives as long as the matrix.  `matrix` is a read-only view, so
    writing into it raises instead of solving against a stale
    factorization; do not write into the array the matrix was built from
    either.  Matrices compare and hash by identity, as objects that own
    their factorization."""

    matrix: np.ndarray
    grid: Grid

    def __post_init__(self):
        view = np.asarray(self.matrix).view()
        view.flags.writeable = False
        object.__setattr__(self, "matrix", view)

    @property
    def n(self):
        return self.matrix.shape[0]

    @cached_property
    def _factors(self):
        """LU, 1-norm, condition estimate and sigma_min, computed once."""
        A = self.matrix
        t0 = time.perf_counter()
        anorm = float(np.linalg.norm(A, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu_piv = sla.lu_factor(A)
        rcond, info = lapack.dgecon(lu_piv[0], anorm, norm="1")
        t1 = time.perf_counter()
        sigma, null_vec = _sigma_min_estimate(lu_piv, self.n)
        return _Factors(
            lu_piv=lu_piv,
            anorm=anorm,
            condition=math.inf if rcond == 0 else 1.0 / rcond,
            sigma_min=sigma,
            null_vec=null_vec,
            factor_s=t1 - t0,
            sigma_s=time.perf_counter() - t1,
        )


@dataclass(frozen=True)
class SolveReport:
    residual_inf: float
    condition_estimate: float
    alternative: str  # "unique_solution" | "near_singular"
    mp_audit: dict
    h: float
    sigma_min: float
    # seconds per phase and the node count n:
    # {assemble_s, factor_s, sigma_s, solve_s, audit_s, n}; assemble_s is 0.0
    # for a prebuilt matrix, factor_s and sigma_s are 0.0 for a factored one
    timings: dict


def _lattice_matrix(grid, offs, weights, diag):
    """Dense matrix of u -> diag(w) u(x_i) - sum_k w[k] interp u(x_i + offs[k])
    collocated at every node x_i, where w holds the offset weights at x_i.

    weights is that array itself when it is the same at every node (a
    translation-invariant operator) or a function of the node giving it (an
    x-dependent kernel); diag maps a node's weights to its diagonal entry.
    The offsets are projected onto the lattice differences once, and row i
    is gathered from the stencil S = -(P @ w): entry j is S[q[j] + origin - q[i]],
    with q the flat index of each node in the difference table.  The stencil
    is computed once, or once per node (one sparse matrix-vector product)
    for an x-dependent kernel."""
    P = geometry.difference_projection(grid, offs)
    span = tuple(2 * d - 1 for d in grid.dims)
    q = np.ravel_multi_index((grid.lattice - grid.kmin).T, span)
    origin = np.ravel_multi_index(tuple(d - 1 for d in grid.dims), span)

    def stencil(w):
        S, d = -(P @ w), diag(w)
        return S, d, bool(np.all(np.isfinite(S))) and math.isfinite(d)

    if callable(weights):
        rows = map(stencil, map(weights, grid.nodes))
    else:
        rows = [stencil(weights)] * grid.n
    A = np.empty((grid.n, grid.n))
    for i, (S, d, finite) in enumerate(rows):
        if not finite:
            raise ArithmeticError(
                f"quadrature failure assembling node {i} at {grid.nodes[i]}"
            )
        row = A[i]
        np.take(S, q + (origin - q[i]), out=row)
        row[i] += d
    return A


def _check_dense_size(grid):
    """Refuse a dense system that cannot fit in physical memory: the matrix
    and the copy LU factorization makes take 16*n^2 bytes."""
    need = DENSE_BYTES_PER_ENTRY * grid.n ** 2
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        n_fit = math.sqrt(have / DENSE_BYTES_PER_ENTRY)
        h_fit = grid.h * (grid.n / n_fit) ** (1.0 / grid.domain.N)
        raise ValueError(
            f"dense system with n={grid.n} nodes needs {need / 1e9:.1f} GB "
            f"(matrix plus LU copy) but physical memory is {have / 1e9:.1f} GB; "
            f"use a coarser grid, h >= {h_fit:.3g}"
        )


def assemble(problem, grid, cfg):
    """Assemble the dense collocation matrix for the problem's operator: the
    polar rule, weights and diagonal of its nonlocal_eval._operator record,
    gathered through _lattice_matrix.

    Raises ValueError before allocating anything when the dense system would
    not fit in physical memory."""
    if grid.n == 0:
        raise ValueError("grid has no nodes")
    _check_dense_size(grid)
    N = grid.domain.N
    n_ang, n_rad = cfg.node_counts()
    reach = float(np.max(grid.domain.max_reach(grid.nodes)))
    op = nonlocal_eval._operator(problem.operator, N, cfg.r_min, reach, problem.kernel)
    ranges = op.ranges()
    rules = [
        _quadrules.polar_rule(N, n_ang, lo, hi, n_rad, lambda th: op.breaks)
        for lo, hi, _ in ranges
    ]
    offs, rho, w = (np.concatenate(part) for part in zip(*rules))
    # only the range that carries u(x), which comes first, feeds the diagonal
    near = len(rules[0][2]) if ranges[0][2] else 0
    w = op.scale * w
    if op.weight is None:
        weights = w
    elif op.translation_invariant:
        weights = w * op.weight(np.zeros(N), offs, rho)
    else:
        def weights(x):
            return w * op.weight(x, offs, rho)

    def diag(wk):
        return wk[:near].sum() + op.const + problem.shift

    return StiffnessMatrix(matrix=_lattice_matrix(grid, offs, weights, diag), grid=grid)


def _sigma_min_estimate(lu_piv, n, iters=40, seed=7):
    """Smallest singular value by inverse power iteration on A^T A, using the
    existing factorization; also returns the approximate singular vector.
    Stops once sigma changes by at most SIGMA_MIN_RTOL relative, or after
    iters steps."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = math.inf
    with np.errstate(all="ignore"):
        for _ in range(iters):
            y = sla.lu_solve(lu_piv, v, trans=1)
            z = sla.lu_solve(lu_piv, y, trans=0)
            nz = np.linalg.norm(z)
            if not np.isfinite(nz) or nz == 0.0:
                return 0.0, v
            previous, sigma = sigma, 1.0 / math.sqrt(nz)
            v = z / nz
            if abs(sigma - previous) <= SIGMA_MIN_RTOL * sigma:
                break
    return sigma, v


def _mp_audit(u, f, residual_inf):
    """Maximum-principle audit: nonnegative data must give solutions above
    -10*residual; also records the discrete sup bound ||u||/||f||."""
    tol = 10.0 * residual_inf
    sup_u = float(np.max(np.abs(u))) if len(u) else 0.0
    sup_f = float(np.max(np.abs(f))) if len(f) else 0.0
    ratio = sup_u / sup_f if sup_f > 0 else 0.0
    if np.all(f >= 0):
        violation = max(0.0, float(-np.min(u)))
        passed = violation <= tol
    else:
        violation = 0.0
        passed = True
    return {"pass": bool(passed), "max_violation": violation, "sup_ratio": ratio}


def solve_dirichlet(problem, grid, cfg, stiffness=None):
    """Solve the collocation system; returns (GridFunction, SolveReport).

    When the smallest-singular-value estimate falls under 1e-10 times the
    matrix 1-norm the report flags the second Fredholm alternative and the
    returned grid function is a unit-norm approximate null vector instead of
    a solution.  Passing a prebuilt StiffnessMatrix skips assembly, and the
    matrix is factored only on its first solve (see StiffnessMatrix), so
    solving one matrix against many right-hand sides costs one LU
    factorization.  The report's timings split the wall time into assembly,
    LU factorization (with the condition estimate), the sigma_min
    iteration, the triangular solves, and the audit (the residual plus the
    maximum-principle check).
    """
    f = problem.rhs.evaluate(grid.nodes)
    t0 = time.perf_counter()
    sm = stiffness if stiffness is not None else assemble(problem, grid, cfg)
    t1 = time.perf_counter()
    reused = "_factors" in vars(sm)
    fac = sm._factors
    A = sm.matrix
    t2 = time.perf_counter()
    if fac.sigma_min < NEAR_SINGULAR_FACTOR * fac.anorm:
        u = fac.null_vec.copy()
        t3 = time.perf_counter()
        residual = float(np.max(np.abs(A @ u)))
        alternative = "near_singular"
        mp_audit = {"pass": True, "max_violation": 0.0, "sup_ratio": 0.0}
    else:
        with np.errstate(all="ignore"):
            u = sla.lu_solve(fac.lu_piv, f)
        if not np.all(np.isfinite(u)):
            raise ArithmeticError("linear solve produced non-finite values")
        t3 = time.perf_counter()
        residual = float(np.max(np.abs(A @ u - f)))
        alternative = "unique_solution"
        mp_audit = _mp_audit(u, f, residual)
    timings = {
        "assemble_s": t1 - t0 if stiffness is None else 0.0,
        "factor_s": 0.0 if reused else fac.factor_s,
        "sigma_s": 0.0 if reused else fac.sigma_s,
        "solve_s": t3 - t2,
        "audit_s": time.perf_counter() - t3,
        "n": grid.n,
    }
    report = SolveReport(
        residual_inf=residual,
        condition_estimate=fac.condition,
        alternative=alternative,
        mp_audit=mp_audit,
        h=grid.h,
        sigma_min=fac.sigma_min,
        timings=timings,
    )
    return GridFunction(grid, u), report


def fredholm_probe(problem, grid, cfg):
    """Report which discrete Fredholm alternative the system exhibits."""
    _, report = solve_dirichlet(problem, grid, cfg)
    return report


def fredholm_sweep(problem, grid, cfg, mu_lo, mu_hi, tol=1e-12):
    """Enclose the first eigenvalue lambda_1 of the base operator (the
    problem's own shift is ignored) and check that it lies in [mu_lo, mu_hi].

    The collocation matrix A is a Z-matrix (off-diagonal entries <= 0), so
    lambda_1, its eigenvalue of smallest real part, is real and simple with a
    positive eigenvector, and (A - sigma*I)^-1 >= 0 for sigma below the
    smallest row sum (Perron-Frobenius).  One LU factorization of A - sigma*I
    drives inverse iteration from x = 1; each solve y = (A - sigma*I)^-1 x
    gives the Collatz-Wielandt enclosure
    sigma + 1/max(y/x) <= lambda_1 <= sigma + 1/min(y/x), and the iteration
    stops once its width is at most tol*max(1, |lambda_1|).

    Returns {"mu_star": midpoint of the enclosure, "evaluations": number of
    triangular solves, "bounds": [lo, hi]}.  Raises ValueError when A is not
    a Z-matrix or lambda_1 lies outside [mu_lo, mu_hi], and ArithmeticError
    when the enclosure has not converged after SWEEP_MAX_SOLVES solves.
    """
    A = assemble(replace(problem, shift=0.0), grid, cfg).matrix
    n = len(A)
    off_max = np.max(A, where=~np.eye(n, dtype=bool), initial=-math.inf)
    if off_max > Z_MATRIX_TOL * np.max(np.abs(A)):
        raise ValueError(
            f"matrix is not a Z-matrix (off-diagonal entry {off_max:.3g} > 0); "
            "the eigenvalue enclosure needs a nonpositive off-diagonal"
        )
    sigma = min(float(mu_lo), float(np.min(A.sum(axis=1))))
    for _ in range(2):
        M = A.copy()
        M[np.diag_indices(n)] -= sigma
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu_piv = sla.lu_factor(M, overwrite_a=True)
        if np.all(np.diagonal(lu_piv[0])):
            break
        sigma -= max(1.0, abs(sigma))  # exactly singular: sigma hit lambda_1
    else:
        raise ArithmeticError(f"A - sigma*I is singular at sigma={sigma!r}")
    x = np.ones(n)
    for solves in range(1, SWEEP_MAX_SOLVES + 1):
        y = sla.lu_solve(lu_piv, x, check_finite=False)
        r = y / x
        if not np.min(r) > 0.0:
            raise ArithmeticError("inverse iterate lost positivity")
        lo, hi = sigma + 1.0 / float(np.max(r)), sigma + 1.0 / float(np.min(r))
        lam1 = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(lam1)):
            break
        x = y / np.max(y)
    else:
        raise ArithmeticError(
            f"lambda_1 enclosure [{lo!r}, {hi!r}] did not reach tol={tol} "
            f"in {SWEEP_MAX_SOLVES} solves"
        )
    if not mu_lo <= lam1 <= mu_hi:
        raise ValueError(
            f"first eigenvalue lambda_1={lam1!r} lies outside [{mu_lo}, {mu_hi}]"
        )
    return {"mu_star": lam1, "evaluations": solves, "bounds": [lo, hi]}


def torsion_radii(R_list):
    """The torsion radii as floats; raises ValueError unless every one lies
    in (0, 0.1]."""
    radii = [float(R) for R in R_list]
    if not all(0 < R <= 0.1 for R in radii):
        raise ValueError("torsion radii must lie in (0, 0.1]")
    return radii


def torsion_scan(R_list, template, cfg, nodes_across=80):
    """Solve L u = rhs on balls B_R with zero exterior data and tabulate the
    sup of the solution against the log modulus of R."""
    rows = []
    for R in torsion_radii(R_list):
        domain = geometry.Domain.ball(np.zeros(template.domain.N), R)
        h = 2.0 * R / nodes_across
        grid = geometry.build_grid(domain, h)
        u, report = solve_dirichlet(replace(template, domain=domain), grid, cfg)
        max_u = float(np.max(u.values))
        rows.append(
            {
                "R": R,
                "h": h,
                "max_u": max_u,
                "ell_R": float(ell(R)),
                "ratio": max_u / float(ell(R)),
                "residual_inf": report.residual_inf,
            }
        )
    return rows


def estimate_regularity(u, f_desc):
    """Fit the three regularity exponents of a solved grid function.

    alpha_global fits the oscillation of the zero-extension over balls centered
    at a boundary point; alpha_interior fits second differences at the domain
    center (reported as the fitted exponent minus one); alpha_boundary fits
    |u| against the log modulus of the boundary distance along the inward
    normal ray, discarding the two nodes nearest the boundary.
    """
    grid = u.grid
    domain = grid.domain
    h = grid.h
    x0 = domain.boundary_point()

    radii, oscs = [], []
    r = 0.08
    while r >= 3 * h:
        mask = np.linalg.norm(grid.nodes - x0, axis=1) < r
        if np.count_nonzero(mask) >= 2:
            vals = u.values[mask]
            # the ball crosses the boundary, so the exterior zero extension
            # always contributes to the oscillation
            oscs.append(max(float(vals.max()), 0.0) - min(float(vals.min()), 0.0))
            radii.append(r)
        r /= 2
    if len(radii) < 3:
        raise ValueError(
            f"insufficient scales for the global oscillation fit (rhs {f_desc!r});"
            " refine the grid"
        )
    alpha_global = fit_exponent(radii, oscs)

    center = domain.center
    d_center = float(geometry.dist_to_boundary(domain, center))
    int_radii = []
    r = min(0.08, 0.45 * d_center)
    while r >= 2 * h and len(int_radii) < 6:
        int_radii.append(r)
        r /= 2
    if len(int_radii) < 3:
        raise ValueError(
            f"insufficient scales for the interior fit (rhs {f_desc!r}); refine the grid"
        )
    gamma = fit_second_order_exponent(u, grid, center, int_radii)
    alpha_interior = gamma - 1.0 if math.isfinite(gamma) else math.inf

    nu = center - x0
    nu_norm = float(np.linalg.norm(nu))
    if nu_norm == 0.0:
        raise ValueError("degenerate domain: boundary point equals center")
    nu = nu / nu_norm
    j_max = int(min(0.1, nu_norm) / h)
    ts = h * np.arange(3, max(4, j_max))
    pts = x0 + ts[:, None] * nu
    d = geometry.dist_to_boundary(domain, pts)
    vals = np.abs(geometry.interpolate_many(u, pts))
    keep = (d > 0) & (d < 0.1) & (vals > 0)
    if np.count_nonzero(keep) < 3:
        raise ValueError(
            f"insufficient scales for the boundary fit (rhs {f_desc!r}); refine the grid"
        )
    alpha_boundary = fit_exponent(d[keep], vals[keep])

    return {
        "alpha_global": float(alpha_global),
        "alpha_interior": float(alpha_interior),
        "alpha_boundary": float(alpha_boundary),
    }
