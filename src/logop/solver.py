"""Collocation discretization and dense solve of the nonlocal Dirichlet problem.

The unknown is the vector of nodal values on a Grid; the operator applied to
the multilinear interpolant (extended by zero outside the domain) is collocated
at the nodes.  The operator is the same record the pointwise evaluators
apply (nonlocal_eval._operator): its radial ranges give one polar rule of
offsets z with weights w (scale and kernel folded in), and the range that
carries u(x) plus the record's constant give the diagonal.  Every operator
is thus one stencil plus one diagonal.  Nodes lie on the lattice
center + h*Z^N, so every node sees the offsets fall into the same lattice
cells: the rule is projected once onto the lattice differences
(geometry.difference_projection: a sparse matrix with 2^N entries per
offset onto a difference table padded by one cell on each side of every
axis, built in small blocks), and for a translation-invariant operator
(every catalog kernel, the log-Laplacian and the Schrodinger operator) the
matrix is gathered from one stencil (a block-Toeplitz matrix).  Kernels
that depend on x project their own kernel-weighted weights at each node
through the same projection, one sparse matrix-vector product per row.

Because the radial quadrature weights are positive and the interpolation
weights are a convex partition, the assembled matrix of the difference
operator has nonpositive off-diagonal entries and nonnegative row sums, i.e.
it is an M-matrix: the discrete comparison principle is exact up to the
linear-algebra residual.

A StiffnessMatrix is factored once: its factorization, condition estimate
and smallest singular value are computed on the first solve and kept, so
every later right-hand side costs one solve with the factorization, the
residual and the maximum-principle audit.  On a 1-D grid (a run of
consecutive lattice points) a translation-invariant operator gives a
symmetric Toeplitz matrix A = T(S) + d*I, and assemble keeps only its first
column (a _ToeplitzStiffness): its products are direct convolutions, it is
factored in O(n^2) by Levinson's recursion and solved in O(n log n) by the
Gohberg-Semencul formula, and its n x n matrix is formed only when read or
for LU.  Every other matrix, a Toeplitz one of fewer than TOEPLITZ_MIN_N
rows, and a Toeplitz one whose Levinson factor breaks down, fails its
backward-error check or lies near the singular threshold, is factored by
dense LU of one Fortran-ordered copy.  Each matrix type makes this choice
(`_factor`, falling back to `_lu`) and computes the sweep's Z-matrix
statistics (`_z_stats`) itself, so no caller asks which type a matrix is, and
a factor is only its solves: the condition estimate is the same
Hager-Higham iteration on either factor.

scipy.linalg (LAPACK) is loaded on the first factorization or triangular
solve, not when this module is imported: the pointwise evaluators and the
barrier verifiers (`eval`, `verify`, `constants`) never load it, and the
first solve in a process pays the ~0.2 s load (its `factor_s` includes
it).  The Toeplitz solves use numpy.fft, which numpy has already loaded;
scipy.fft is never imported.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _quadrules, geometry, kernels, nonlocal_eval
from .geometry import GridFunction
from .logmod import ell, fit_exponent, fit_second_order_exponent

__all__ = [
    "ProblemSpec",
    "StiffnessMatrix",
    "SolveReport",
    "assemble",
    "solve_dirichlet",
    "fredholm_sweep",
    "torsion_radii",
    "torsion_scan",
    "estimate_regularity",
]

NEAR_SINGULAR_FACTOR = 1e-10
Z_MATRIX_TOL = 1e-14  # off-diagonal rounding allowed, relative to max|A|
SWEEP_MAX_SOLVES = 500
SWEEP_RTOL = 1e-12  # relative width of the lambda_1 enclosure that ends the sweep
SIGMA_MIN_RTOL = 1e-13  # relative change of sigma that ends the inverse iteration
DENSE_BYTES_PER_ENTRY = 16  # float64 matrix plus the LU factorization's copy
# a Levinson factor is kept when a probe solve's normwise backward error is
# at most TOEPLITZ_BACKWARD_TOL (measured up to 2e-14 on the 1-D catalog
# operators at n <= 2000, LU up to 8e-15) and sigma_min is at least
# TOEPLITZ_SIGMA_FLOOR times the matrix 1-norm.  The Levinson and LU
# estimates of sigma_min agree to 3e-8 relative at sigma_min = 1e-9 times
# the 1-norm and to 3e-7 at 1e-10 (unit and sinlog kernels, n = 99 and 499,
# shifted towards -lambda_1), so a margin of 10 over the near-singular
# threshold leaves every near_singular verdict and null vector to LU
TOEPLITZ_BACKWARD_TOL = 1e-11
TOEPLITZ_SIGMA_FLOOR = 10 * NEAR_SINGULAR_FACTOR
# a 1-D Toeplitz matrix with fewer rows is factored by LU: each Levinson
# factor pays ~1 ms of FFT set-up and Python overhead however small n is.
# StiffnessMatrix._factors (factor, condition estimate and sigma_min, LU
# including forming the dense matrix; median of 21, unit kernel on
# (-0.5, 0.5), 2 vCPU) takes, Levinson against LU: 1.4-2.4 against 0.5-0.8
# ms at n = 19, 2.1 against 1.1 at n = 149, 3.4 against 2.8-3.1 at n = 249,
# 3.9-4.3 against 4.1-4.2 at n = 299, 4.5-4.7 against 5.4-5.5 at n = 349,
# 4.8-4.9 against 7.0-7.3 at n = 399 and 4.7-4.9 against 11.0 at n = 499
TOEPLITZ_MIN_N = 300
_OPERATORS = ("generic", "loglap", "schrodinger")


def _lazy_import(name):
    """The module `name`, executed on its first attribute access.

    It is registered in sys.modules (and on its parent package), so a later
    `import name` anywhere gets this same object; a missing module raises
    ModuleNotFoundError here, not at first use.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# a module attribute, not a local import: perfbench's tracer and the tests
# patch `solver.sla`
sla = _lazy_import("scipy.linalg")


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


class _LU:
    """Dense LU factorization with partial pivoting (LAPACK getrf) of
    A - shift*I, made in place on one Fortran-ordered copy.  A is checked
    for finiteness before the copy is made, so the check's n x n mask and
    the copy never exist together."""

    name = "lu"

    def __init__(self, A, shift):
        with warnings.catch_warnings():
            # sla is touched before the copy is made: loading scipy.linalg
            # while the copy exists leaves module objects above it on the
            # heap, which keeps its pages resident once it is freed (copying
            # first raised xdep-2d's peak RSS from 81.5 to 88.1 MB)
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            M = np.array(np.asarray_chkfinite(A), order="F")
            M[np.diag_indices(len(M))] -= shift
            self.lu_piv = sla.lu_factor(M, overwrite_a=True, check_finite=False)
        self.singular = not np.all(np.diagonal(self.lu_piv[0]))

    def solve(self, b, trans=False):
        # an exactly singular factor gives inf or nan, which the callers
        # check; scipy's own check would raise instead
        return sla.lu_solve(self.lu_piv, b, trans=int(trans), check_finite=False)


class _Toeplitz:
    """Inverse of T - shift*I, where T is the symmetric Toeplitz matrix with
    this first column and matvec(v) = T @ v, from the first column x of the
    inverse (Levinson's recursion, O(n^2)), applied by the Gohberg-Semencul
    formula T^-1 = (L(x) L(x)^T - L(ZJx) L(ZJx)^T) / x[0] in O(n log n):
    L(v) is the lower-triangular Toeplitz matrix with first column v, J the
    reversal and Z the down-shift, so ZJx = [0, x[n-1], ..., x[1]].  L(v) b
    is the first n entries of the convolution v * b, and L(v)^T b =
    J L(v) J b; the convolutions are real FFTs of length m >= 2n - 1.
    Raises np.linalg.LinAlgError when the recursion meets a singular leading
    minor or a probe solve's normwise backward error exceeds
    TOEPLITZ_BACKWARD_TOL (the recursion does not pivot, so it is not stable
    for every indefinite matrix).  No n x n array is formed."""

    name = "toeplitz"
    singular = False

    def __init__(self, column, matvec, shift=0.0):
        self.n = n = len(column)
        column = np.concatenate(([column[0] - shift], column[1:]))
        x = sla.solve_toeplitz(column, np.eye(1, n)[0], check_finite=False)
        if not (np.all(np.isfinite(x)) and x[0] != 0.0):
            raise np.linalg.LinAlgError("Levinson's recursion broke down")
        self.m = 1 << (2 * n - 1).bit_length()
        self.x0 = x[0]
        self.X = np.fft.rfft(x, self.m)
        self.Y = np.fft.rfft(np.concatenate(([0.0], x[:0:-1])), self.m)
        b = np.random.default_rng(7).standard_normal(n)
        with np.errstate(all="ignore"):
            y = self.solve(b)
            r = matvec(y) - shift * y - b
            scale = _toeplitz_norm1(column) * np.max(np.abs(y)) + np.max(np.abs(b))
            backward = np.max(np.abs(r)) / scale
        if not backward <= TOEPLITZ_BACKWARD_TOL:
            raise np.linalg.LinAlgError(f"Levinson probe backward error {backward:.3g}")

    def solve(self, b, trans=False):
        """T^-1 b; T is symmetric, so trans changes nothing."""
        n, m, fft = self.n, self.m, np.fft
        B = fft.rfft(b[::-1], m)
        s = fft.rfft(fft.irfft(self.X * B, m)[n - 1::-1], m)
        t = fft.rfft(fft.irfft(self.Y * B, m)[n - 1::-1], m)
        return fft.irfft(self.X * s - self.Y * t, m)[:n] / self.x0


def _toeplitz_norm1(column):
    """1-norm of the symmetric Toeplitz matrix with this first column:
    column j of the matrix holds column[j::-1] and column[1:n-j], so its
    sum of magnitudes comes from one cumulative sum, in O(n) and without
    the n x n temporary np.linalg.norm makes."""
    p = np.cumsum(np.abs(column))
    return float(np.max(p + p[::-1]) - abs(column[0]))


def _inverse_norm1_estimate(solve, n):
    """Estimate of ||A^-1||_1 from solves with A and A^T: Hager's method with
    Higham's refinements, step for step as LAPACK's dlacn2, which LAPACK's
    LU condition estimate runs on the solves with U^-1 L^-1 of A = PLU.
    solve(b, trans) returns A^-1 b, or A^-T b when trans is true.  Every
    factor's condition estimate is the 1-norm times this estimate."""
    y = solve(np.full(n, 1.0 / n))
    if n == 1:
        return abs(float(y[0]))
    est = float(np.sum(np.abs(y)))
    signs = np.where(y >= 0, 1.0, -1.0)
    z = solve(signs, trans=True)
    j = int(np.argmax(np.abs(z)))
    for _ in range(2, 6):  # dlacn2's ITMAX = 5 steps in all
        y = solve(np.eye(1, n, j)[0])
        est_old, est = est, float(np.sum(np.abs(y)))
        new_signs = np.where(y >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= est_old:
            break
        signs = new_signs
        z = solve(signs, trans=True)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    i = np.arange(n)
    alternating = (-1.0) ** i * (1.0 + i / (n - 1))
    return max(est, 2.0 * float(np.sum(np.abs(solve(alternating)))) / (3 * n))


@dataclass(frozen=True)
class _Factors:
    """What a solve needs from its matrix besides the matrix itself."""

    factor: _LU | _Toeplitz
    anorm: float  # 1-norm of the matrix
    condition: float  # 1-norm condition estimate
    sigma_min: float
    null_vec: np.ndarray  # approximate singular vector of sigma_min
    factor_s: float
    sigma_s: float


class StiffnessMatrix:
    """Collocation matrix; row i applies the operator to the nodal hat
    interpolants at node i.

    Every stiffness matrix offers the same interface, so no caller asks
    which type it is: its `grid`, its size `n`, the product `matvec(v)` =
    A @ v, the dense `matrix`, `_factor(shift)` (the factorization of
    A - shift*I; here LU of one copy) with its LU fallback `_lu(shift)`,
    `_z_stats()` (the largest off-diagonal entry, max|A| and the row sums)
    and `_factors` (factorization, 1-norm, condition estimate and smallest
    singular value, computed by the first solve and reused by every later
    one).  A matrix built by `assemble` on a 1-D grid for a
    translation-invariant operator is a _ToeplitzStiffness, which keeps only
    its first column and is factored by Levinson's recursion.  `matrix` is
    read-only, so writing into it raises instead of solving against a stale
    factorization; do not write into the array the matrix was built from
    either.  Matrices compare and hash by identity, as objects that own
    their factorization."""

    def __init__(self, matrix, grid):
        view = np.asarray(matrix).view()
        view.flags.writeable = False
        self._matrix = view
        self.grid = grid

    @property
    def matrix(self):
        return self._matrix

    @property
    def n(self):
        return self._matrix.shape[0]

    def matvec(self, v):
        return self._matrix @ v

    def _norm1(self):
        return float(np.linalg.norm(self._matrix, 1))

    def _lu(self, shift=0.0):
        return _LU(self._matrix, shift)

    def _factor(self, shift=0.0):
        return self._lu(shift)

    def _z_stats(self):
        A = self._matrix
        off_max = np.max(A, where=~np.eye(self.n, dtype=bool), initial=-math.inf)
        return off_max, np.max(np.abs(A)), A.sum(axis=1)

    @cached_property
    def _factors(self):
        """Factorization, 1-norm, condition estimate and sigma_min, computed
        once.  A factor other than LU (Levinson's) is replaced by `_lu` when
        its sigma_min falls under TOEPLITZ_SIGMA_FLOOR times the 1-norm;
        factor_s then includes the first factor and its sigma_min
        iteration.  Inverse iteration cannot run on an LU factor
        with a zero pivot, nor on one whose solves overflow (a tiny pivot),
        which _sigma_min_estimate reports as sigma_min 0 and the condition
        estimate as a non-finite norm: then sigma_min (0 for a zero pivot)
        and the null vector come from the SVD, and the condition estimate
        is infinite."""
        t0 = time.perf_counter()
        anorm = self._norm1()
        for factor_once in (self._factor, self._lu):
            factor = factor_once()
            t1 = time.perf_counter()
            sigma, null_vec = 0.0, None
            if not factor.singular:
                sigma, null_vec = _sigma_min_estimate(factor, self.n)
            if factor.name == "lu" or sigma >= TOEPLITZ_SIGMA_FLOOR * anorm:
                break
        t2 = time.perf_counter()
        inverse_norm = math.inf
        if sigma > 0.0:
            inverse_norm = _inverse_norm1_estimate(factor.solve, self.n)
        if math.isfinite(inverse_norm):
            condition = anorm * inverse_norm
        else:
            _, singular_values, vt = np.linalg.svd(self.matrix)
            sigma = 0.0 if factor.singular else float(singular_values[-1])
            null_vec, condition = vt[-1], math.inf
        return _Factors(
            factor=factor,
            anorm=anorm,
            condition=condition,
            sigma_min=sigma,
            null_vec=null_vec,
            factor_s=t1 - t0 + time.perf_counter() - t2,
            sigma_s=t2 - t1,
        )


class _ToeplitzStiffness(StiffnessMatrix):
    """A symmetric Toeplitz StiffnessMatrix, kept as its first column
    c = A[:, 0] (n numbers; assemble builds one for a translation-invariant
    operator on a hole-free 1-D grid).  Each entry of matvec is one dot
    product with a window of (c[n-1], ..., c[1], c[0], ..., c[n-1]), so it
    rounds like A @ v, in O(n) memory.  The dense matrix is formed only when
    `matrix` is read (built on each read, not kept) or LU needs it, and
    each time the memory guard runs first."""

    def __init__(self, column, grid):
        view = np.asarray(column).view()
        view.flags.writeable = False
        self.column = view
        self.grid = grid

    @property
    def matrix(self):
        return self._dense("reading the dense matrix")

    @property
    def n(self):
        return len(self.column)

    def matvec(self, v):
        c = self.column
        return np.convolve(np.concatenate((c[:0:-1], c)), v, "valid")

    def _norm1(self):
        return _toeplitz_norm1(self.column)

    def _lu(self, shift=0.0):
        return _LU(self._dense("the LU fallback from Levinson"), shift)

    def _factor(self, shift=0.0):
        """Levinson's factor when n >= TOEPLITZ_MIN_N and _Toeplitz keeps
        it, else LU, which forms the dense matrix behind the memory guard."""
        if self.n >= TOEPLITZ_MIN_N:
            try:
                return _Toeplitz(self.column, self.matvec, shift)
            except np.linalg.LinAlgError:
                pass
        return self._lu(shift)

    def _z_stats(self):
        # from c in O(n): the off-diagonal is c[1:], and row i sums c[0..i]
        # and c[1..n-1-i]
        c = self.column
        p = np.cumsum(c)
        return np.max(c[1:], initial=-math.inf), np.max(np.abs(c)), p + p[::-1] - c[0]

    def _dense(self, cause):
        """toeplitz(c), read-only, once the guard has found room for it."""
        _check_dense_size(self.grid, cause)
        A = sla.toeplitz(self.column)
        A.flags.writeable = False
        return A


@dataclass(frozen=True)
class SolveReport:
    residual_inf: float
    condition_estimate: float
    alternative: str  # "unique_solution" | "near_singular"
    mp_audit: dict
    h: float
    sigma_min: float
    factorization: str  # "toeplitz" (Levinson) | "lu"
    # seconds per phase and the node count n:
    # {assemble_s, factor_s, sigma_s, solve_s, audit_s, n}; assemble_s is 0.0
    # for a prebuilt matrix, factor_s and sigma_s are 0.0 for a factored one
    timings: dict


def _lattice_matrix(grid, offs, weights, diag, toeplitz=False):
    """Dense matrix of u -> diag(w) u(x_i) - sum_k w[k] interp u(x_i + offs[k])
    collocated at every node x_i, where w holds the offset weights at x_i,
    or only its first column when `toeplitz` is true.

    weights is that array itself when it is the same at every node (a
    translation-invariant operator) or a function of the node giving it (an
    x-dependent kernel); diag maps a node's weights to its diagonal entry.
    The offsets are projected onto the lattice differences once
    (geometry.difference_projection), and row i is gathered from the stencil
    S = -(P @ w): entry j is S[q[j] + origin - q[i]], with q the flat index
    of each node and origin that of the zero difference (lattice offset
    dims) in the padded difference table of shape 2*dims + 1.  Rows read
    only its interior: the padding holds the corners of offsets beyond every
    lattice difference, and only the interior must be finite.  The stencil
    is computed once, or once per node (one sparse matrix-vector product)
    for an x-dependent kernel.  `toeplitz` asks for one stencil on a
    hole-free 1-D lattice, where A is symmetric Toeplitz: its first column
    S[q[0] + origin - q] (plus the diagonal at the top) is returned, and no
    n x n array is allocated."""
    P = geometry.difference_projection(grid, offs)
    span = tuple(2 * d + 1 for d in grid.dims)
    q = np.ravel_multi_index((grid.lattice - grid.kmin).T, span)
    origin = np.ravel_multi_index(grid.dims, span)
    inner = (slice(1, -1),) * len(span)

    def stencil(i, w):
        S, d = -(P @ w), diag(w)
        if not (np.all(np.isfinite(S.reshape(span)[inner])) and math.isfinite(d)):
            raise ArithmeticError(
                f"quadrature failure assembling node {i} at {grid.nodes[i]}"
            )
        return S, d

    if callable(weights):
        rows = (stencil(i, weights(x)) for i, x in enumerate(grid.nodes))
    else:
        S, d = stencil(0, weights)
        if toeplitz:
            column = S[q[0] + origin - q]
            column[0] += d
            return column
        rows = [(S, d)] * grid.n
    A = np.empty((grid.n, grid.n))
    for i, (S, d) in enumerate(rows):
        row = A[i]
        np.take(S, q + (origin - q[i]), out=row)
        row[i] += d
    return A


def _check_dense_size(grid, cause="assembly"):
    """Refuse a dense system that cannot fit in physical memory: the matrix
    and the copy LU factorization makes take 16*n^2 bytes.  assemble checks
    before it allocates anything for every matrix but a symmetric Toeplitz
    one, which is stored as one column of n numbers and checks here only
    when its dense matrix is formed: for the LU fallback from Levinson or
    when its `matrix` is read.  `cause` names which in the error."""
    need = DENSE_BYTES_PER_ENTRY * grid.n ** 2
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        n_fit = math.sqrt(have / DENSE_BYTES_PER_ENTRY)
        h_fit = grid.h * (grid.n / n_fit) ** (1.0 / grid.domain.N)
        raise ValueError(
            f"{cause}: dense system with n={grid.n} nodes needs {need / 1e9:.1f} GB "
            f"(matrix plus LU copy) but physical memory is {have / 1e9:.1f} GB; "
            f"use a coarser grid, h >= {h_fit:.3g}"
        )


def assemble(problem, grid, cfg):
    """Assemble the collocation matrix for the problem's operator: the polar
    rule, weights and diagonal of its nonlocal_eval._operator record,
    gathered through _lattice_matrix.

    A translation-invariant operator on a hole-free 1-D grid gives a
    _ToeplitzStiffness, which stores the first column only; every other
    matrix is dense, and for it assemble raises ValueError before
    allocating anything when the dense system would not fit in physical
    memory."""
    if grid.n == 0:
        raise ValueError("grid has no nodes")
    N = grid.domain.N
    # one stencil on a hole-free 1-D lattice: A[i, j] depends on j - i only,
    # and the 1-D polar rule pairs every offset with its mirror image.  Any
    # other grid is dense whatever the operator, and is refused before
    # anything is allocated (the reach alone takes O(n) memory).
    lattice_1d = N == 1 and grid.n == grid.dims[0]
    if not lattice_1d:
        _check_dense_size(grid)
    n_ang, n_rad = cfg.node_counts()
    reach = float(np.max(grid.domain.max_reach(grid.nodes)))
    op = nonlocal_eval._operator(problem.operator, N, cfg.r_min, reach, problem.kernel)
    toeplitz = lattice_1d and op.translation_invariant
    if lattice_1d and not toeplitz:
        _check_dense_size(grid)
    ranges = op.ranges()
    rules = [
        _quadrules.polar_rule(N, n_ang, lo, hi, n_rad, op.breaks)
        for lo, hi, _ in ranges
    ]
    offs, rho, w = (np.concatenate(part) for part in zip(*rules))
    # only the range that carries u(x), which comes first, feeds the diagonal
    near = len(rules[0][2]) if ranges[0][2] else 0
    w = op.scale * w
    if op.profile is not None:
        weights = w * op.profile(rho)
    elif op.weight is None:
        weights = w
    elif op.translation_invariant:
        weights = w * op.weight(np.zeros(N), offs)
    else:
        def weights(x):
            return w * op.weight(x, offs)

    def diag(wk):
        return wk[:near].sum() + op.const + problem.shift

    A = _lattice_matrix(grid, offs, weights, diag, toeplitz)
    return (_ToeplitzStiffness if toeplitz else StiffnessMatrix)(A, grid)


def _sigma_min_estimate(factor, n):
    """Smallest singular value by inverse power iteration on A^T A, using the
    factorization's solves; also returns the approximate singular vector.
    Stops once sigma changes by at most SIGMA_MIN_RTOL relative, or after
    40 steps from a fixed random start."""
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = math.inf
    with np.errstate(all="ignore"):
        for _ in range(40):
            y = factor.solve(v, trans=True)
            z = factor.solve(y)
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

    When the smallest-singular-value estimate is at most 1e-10 times the
    matrix 1-norm (it is 0 for a matrix with a zero LU pivot) the report
    flags the second Fredholm alternative and the returned grid function is
    a unit-norm approximate null vector instead of a solution.  Passing a
    prebuilt StiffnessMatrix skips assembly, and the
    matrix is factored only on its first solve (see StiffnessMatrix), so
    solving one matrix against many right-hand sides costs one
    factorization.  The report names the factorization ("toeplitz" or "lu"),
    and its timings split the wall time into assembly, factorization (with
    the condition estimate), the sigma_min iteration, the solve with the
    factorization, and the audit (the residual plus the maximum-principle
    check).  Both residuals are products with sm.matvec, so a Toeplitz
    matrix is never formed for them.
    """
    f = problem.rhs.evaluate(grid.nodes)
    t0 = time.perf_counter()
    sm = stiffness if stiffness is not None else assemble(problem, grid, cfg)
    t1 = time.perf_counter()
    reused = "_factors" in vars(sm)
    fac = sm._factors
    t2 = time.perf_counter()
    if fac.sigma_min <= NEAR_SINGULAR_FACTOR * fac.anorm:
        u = fac.null_vec.copy()
        t3 = time.perf_counter()
        residual = float(np.max(np.abs(sm.matvec(u))))
        alternative = "near_singular"
        mp_audit = {"pass": True, "max_violation": 0.0, "sup_ratio": 0.0}
    else:
        with np.errstate(all="ignore"):
            u = fac.factor.solve(f)
        if not np.all(np.isfinite(u)):
            raise ArithmeticError("linear solve produced non-finite values")
        t3 = time.perf_counter()
        residual = float(np.max(np.abs(sm.matvec(u) - f)))
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
        factorization=fac.factor.name,
        timings=timings,
    )
    return GridFunction(grid, u), report


def fredholm_sweep(problem, grid, cfg, mu_lo, mu_hi):
    """Enclose the first eigenvalue lambda_1 of the base operator (the
    problem's own shift is ignored) and check that it lies in [mu_lo, mu_hi].

    The collocation matrix A is a Z-matrix (off-diagonal entries <= 0), so
    lambda_1, its eigenvalue of smallest real part, is real and simple with a
    positive eigenvector, and (A - sigma*I)^-1 >= 0 for sigma below it
    (Perron-Frobenius).  sigma is the smallest row sum (sm._z_stats), at
    most lambda_1 by Collatz-Wielandt with x = 1, lowered once if A - sigma*I
    is exactly singular; mu_lo and mu_hi only judge the enclosure.  One
    factorization of A - sigma*I (sm._factor) drives inverse iteration from
    x = 1; each solve y = (A - sigma*I)^-1 x
    gives the Collatz-Wielandt enclosure
    sigma + 1/max(y/x) <= lambda_1 <= sigma + 1/min(y/x), exact for the
    exact solve.  Once that is at most SWEEP_RTOL*max(1, |lambda_1|) wide, the
    iterate y itself gives min(Ay/y) <= lambda_1 <= max(Ay/y), which holds
    for every positive y, so the solve's rounding drops out and only that of
    the one product A @ y is left; the iteration stops when this enclosure
    is that narrow too.

    Returns {"mu_star": midpoint of the enclosure, "evaluations": number of
    solves, "bounds": [lo, hi]}.  Raises ValueError when A is not
    a Z-matrix or the enclosure lies outside [mu_lo, mu_hi], and ArithmeticError
    when the enclosure has not converged after SWEEP_MAX_SOLVES solves.
    """
    sm = assemble(replace(problem, shift=0.0), grid, cfg)
    off_max, a_max, row_sums = sm._z_stats()
    if off_max > Z_MATRIX_TOL * a_max:
        raise ValueError(
            f"matrix is not a Z-matrix (off-diagonal entry {off_max:.3g} > 0); "
            "the eigenvalue enclosure needs a nonpositive off-diagonal"
        )
    sigma = float(np.min(row_sums))
    for _ in range(2):
        factor = sm._factor(sigma)
        if not factor.singular:
            break
        sigma -= max(1.0, abs(sigma))  # exactly singular: sigma hit lambda_1
    else:
        raise ArithmeticError(f"A - sigma*I is singular at sigma={sigma!r}")
    x = np.ones(sm.n)
    for solves in range(1, SWEEP_MAX_SOLVES + 1):
        y = factor.solve(x)
        r = y / x
        if not np.min(r) > 0.0:
            raise ArithmeticError("inverse iterate lost positivity")
        lo, hi = sigma + 1.0 / float(np.max(r)), sigma + 1.0 / float(np.min(r))
        if hi - lo <= SWEEP_RTOL * max(1.0, abs(lo + hi) / 2):
            q = sm.matvec(y) / y
            lo, hi = float(np.min(q)), float(np.max(q))
            lam1 = 0.5 * (lo + hi)
            if hi - lo <= SWEEP_RTOL * max(1.0, abs(lam1)):
                break
        x = y / np.max(y)
    else:
        raise ArithmeticError(
            f"lambda_1 enclosure [{lo!r}, {hi!r}] did not reach tol={SWEEP_RTOL} "
            f"in {SWEEP_MAX_SOLVES} solves"
        )
    if hi < mu_lo or lo > mu_hi:
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
