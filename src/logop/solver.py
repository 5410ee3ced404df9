"""Collocation discretization and dense solve of the nonlocal Dirichlet problem.

The unknown is the vector of nodal values on a Grid; the operator applied to
the multilinear interpolant (extended by zero outside the domain) is collocated
at the nodes.  The operator is the same record the pointwise evaluators
apply (nonlocal_eval._operator): its radial ranges give one polar rule of
offsets z with weights w (scale and kernel folded in), and the range that
carries u(x) plus the record's constant give the diagonal.  Every operator
is thus one stencil plus one diagonal.  Nodes lie on the lattice
center + h*Z^N, so every node sees the offsets fall into the same lattice
cells.  The rule grades radially from r_min, so most of its offsets have
|z| < h and lie in the 2^N cells around the origin (1 339 of the 1 558
radii of each ray at h = 0.02): there the multilinear weight of each corner
is a polynomial of degree N in |z| along a ray, so those offsets enter
through N radial moments per ray, mapped onto the 3^N differences around
the origin by one small matrix, and their weights leave the diagonal and
the stencil alike.  The other offsets are projected once onto the lattice
differences (geometry.difference_projection: the flat indices and weights
of 2^N corners per offset in a difference table padded by one cell on each
side of every axis, built in small blocks) for one offset z of each mirror
pair (z, -z): reversed on every axis, the table is that of the mirror
images, so an even weight gives a stencil symmetric bit for bit.  A
translation-invariant operator (every catalog kernel, the log-Laplacian
and the Schrodinger operator) has one stencil, its table summed by
np.bincount and gathered a block of rows at a time into a block-Toeplitz
matrix; a kernel that depends on x weights the offsets and their mirror
images at each node, one scipy.sparse product of the projection and its
reversal, plus one product for the moments.

Because the radial quadrature weights are positive and the interpolation
weights are a convex partition, the assembled matrix of the difference
operator has nonpositive off-diagonal entries (a Z-matrix).  Its row sums are
the kernel mass that lands outside the domain, plus the operator's constant
and shift, less the log-Laplacian's far field: positive for every unshifted
generic-kernel and Schrodinger matrix and for the log-Laplacian on small
domains, but not always (the log-Laplacian on (-3, 3) at h = 0.05 has a
smallest row sum of -3.34).  A Z-matrix with positive row
sums is a nonsingular M-matrix with A^-1 >= 0, so nonnegative data give
nonnegative solutions (the discrete comparison principle holds up to the
solve's rounding); SolveReport.sigma_path reads "m_matrix" and
mp_audit["certified"] is true exactly when a solve's matrix passed that test.

A StiffnessMatrix is factored at most once: its factorization, condition
number and smallest singular value are computed on the first solve and
kept (for an M-matrix from two solves, A^-1 1 and A^-T 1, one for a
symmetric matrix; otherwise by inverse iteration and the Hager-Higham
estimate), so every later right-hand side costs one solve with the
factorization, the residual and the maximum-principle audit.  A matrix
that solve_dirichlet assembles itself is never solved again, so nothing is
kept for it: when it is symmetric, certified as an M-matrix and would be
factored by LU, one numpy.linalg.solve of A [u, y] = [f, 1] gives the
solution and the certificate together (StiffnessMatrix._solve_once), and
any other matrix takes the kept factorization as above.

On a 1-D grid (a run of consecutive lattice points) an even
translation-invariant operator gives a symmetric Toeplitz matrix, and
assemble keeps only its first column (a _ToeplitzStiffness): its products
are direct convolutions, its n x n matrix is formed only when read or for
LU, and from TOEPLITZ_MIN_N rows on it is factored in O(n log n) by
_toeplitz.Factor (see _toeplitz).  Every other matrix, and a Toeplitz one
that _toeplitz refuses or whose sigma_min lies near the singular
threshold, is factored by dense LU of one Fortran-ordered copy.  Each
matrix type makes this choice (`_factor`, falling back to `_lu`) and
computes the sweep's Z-matrix statistics (`_z_stats`) itself, so no caller
asks which type a matrix is, and a factor is only its solves: the M-matrix
certificate, the sigma_min iteration and the Hager-Higham estimate are the
same on either factor.

scipy.linalg (LAPACK through scipy's own OpenBLAS) is loaded on the first
kept LU factorization, not when this module is imported.  A single-use
solve runs LAPACK gesv from numpy's OpenBLAS, already loaded with numpy,
and the dense Toeplitz matrix is formed with numpy alone.  So the
pointwise evaluators and the barrier verifiers (`eval`, `verify`,
`constants`) never load scipy.linalg, nor do the CLI's `solve`, `torsion`
and `converge` where the matrix is symmetric and certified (an even
kernel or operator, unshifted, with positive row sums), nor solves and
sweeps on 1-D Toeplitz matrices of TOEPLITZ_MIN_N rows or more.  A
prebuilt matrix, a nonsymmetric or uncertified one and every 2-D or small
1-D sweep do load it, and the first of them in a process pays the ~0.15 s
load (its `factor_s` includes it).  scipy.fft is never imported.  scipy.sparse is
loaded only to assemble an x-dependent kernel.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _quadrules, _toeplitz, geometry, kernels, nonlocal_eval
from .geometry import GridFunction
from .logmod import ell

__all__ = [
    "ProblemSpec",
    "StiffnessMatrix",
    "SolveReport",
    "assemble",
    "solve_dirichlet",
    "fredholm_sweep",
    "torsion_radii",
    "torsion_scan",
]

NEAR_SINGULAR_FACTOR = 1e-10
Z_MATRIX_TOL = 1e-14  # off-diagonal rounding allowed, relative to max|A|
SWEEP_MAX_SOLVES = 500
SWEEP_RTOL = 1e-12  # relative width of the lambda_1 enclosure that ends the sweep
SIGMA_MIN_RTOL = 1e-13  # relative change of sigma that ends the inverse iteration
DENSE_BYTES_PER_ENTRY = 16  # float64 matrix plus the LU factorization's copy
# entries per block of _lattice_matrix's row gather: its int32 index array
# (no dense table nears 2^31 entries) and numpy's intp copy of it stay under
# glibc's 128 KiB mmap threshold; mode "clip" writes without numpy's buffer
_GATHER_ENTRIES = 16384
# a Toeplitz factor is kept when sigma_min is at least TOEPLITZ_SIGMA_FLOOR
# times the 1-norm (a certified M-matrix bound under it falls back to the
# sigma_min iteration).  The Toeplitz and LU estimates of sigma_min agree to
# 1e-7 relative at sigma_min = 1e-9 times the 1-norm and to 9e-7 at 1e-10
# (unit and sinlog kernels, n = 99 and 499, shifted towards -lambda_1), so
# a margin of 10 over the near-singular threshold leaves every
# near_singular verdict and null vector to LU
TOEPLITZ_SIGMA_FLOOR = 10 * NEAR_SINGULAR_FACTOR
# a 1-D Toeplitz matrix with fewer rows is factored by LU.
# StiffnessMatrix._factors of a certified M-matrix (median of 21, the two
# paths alternating, one BLAS thread, unit, sinlog and log-Laplacian kernels
# on (-0.5, 0.5)), Toeplitz against LU with forming the dense matrix:
# 0.69-0.77 against 0.47-0.50 ms at n = 199, 0.69-0.75 against 0.59-0.66 at
# 225, 0.70-0.74 against 0.72-0.99 at 249, 0.90-0.91 against 1.05-1.49 at
# 299.  With the sigma_min iteration (unit kernel shifted by -0.9 lambda_1)
# 1.43 against 1.08 at 225, 1.72 against 1.43 at 249, 1.66 against 1.60 at
# 299.  Where the medians meet, the Toeplitz factor wins the tie: it needs
# no LAPACK, whose load costs LU's first use in a process ~0.13 s and ~8 MB
# (a single-use solve below TOEPLITZ_MIN_N is numpy's gesv and loads none)
TOEPLITZ_MIN_N = 240
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
    the copy never exist together.  A symmetric A is copied from A.T, a
    plain memcpy for a C-ordered A."""

    name = "lu"
    iterations = 0

    def __init__(self, A, shift, symmetric=False):
        self.symmetric = symmetric
        with warnings.catch_warnings():
            # sla is touched before the copy is made: loading scipy.linalg
            # while the copy exists leaves module objects above it on the
            # heap, which keeps its pages resident once it is freed (copying
            # first raised xdep-2d's peak RSS from 81.5 to 88.1 MB)
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            M = np.array(np.asarray_chkfinite(A.T if symmetric else A), order="F")
            M[np.diag_indices(len(M))] -= shift
            self.lu_piv = sla.lu_factor(M, overwrite_a=True, check_finite=False)
        self.singular = not np.all(np.diagonal(self.lu_piv[0]))

    def solve(self, b, trans=False):
        # an exactly singular factor gives inf or nan, which the callers
        # check; scipy's own check would raise instead
        return sla.lu_solve(self.lu_piv, b, trans=int(trans), check_finite=False)


class _Gesv:
    """The factorization behind a matrix solved once (see
    StiffnessMatrix._solve_once): LU with partial pivoting, made and dropped
    by numpy.linalg.solve (LAPACK gesv), so there is nothing to solve with."""

    name = "lu"
    iterations = 0


def _inverse_norm1_estimate(solve, n):
    """Estimate of ||A^-1||_1 from solves with A and A^T: Hager's method with
    Higham's refinements, step for step as LAPACK's dlacn2, which LAPACK's
    LU condition estimate runs on the solves with U^-1 L^-1 of A = PLU.
    solve(b, trans) returns A^-1 b, or A^-T b when trans is true."""
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


def _m_matrix_bound(factor, n):
    """Certified ||A^-1||_1 and sigma_min lower bound of a nonsingular
    M-matrix A (A^-1 >= 0 entrywise), from two solves with its factor:
    y = A^-1 1 and z = A^-T 1 (z = y for a symmetric factor) are the row and
    column sums of A^-1, so ||A^-1||_inf = max y and ||A^-1||_1 = max z, and
    sigma_min >= 1/sqrt(||A^-1||_1 ||A^-1||_inf).  Returns None unless both
    are finite and positive."""
    ones = np.ones(n)
    with np.errstate(all="ignore"):
        y = factor.solve(ones)
        z = y if factor.symmetric else factor.solve(ones, trans=True)
    if not all(np.min(v) > 0.0 and np.max(v) < math.inf for v in (y, z)):
        return None
    inverse_inf, inverse_1 = float(np.max(y)), float(np.max(z))
    return inverse_1, 1.0 / math.sqrt(inverse_inf * inverse_1)


@dataclass(frozen=True)
class _Factors:
    """What a solve needs from its matrix besides the matrix itself."""

    factor: _LU | _toeplitz.Factor | _Gesv
    anorm: float  # 1-norm of the matrix
    condition: float  # 1-norm condition number: exact or estimated, see sigma_path
    sigma_min: float
    sigma_path: str  # "m_matrix" | "iteration" | "svd"
    null_vec: np.ndarray | None  # approximate singular vector of sigma_min
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
    one).  A matrix built by `assemble` on a 1-D grid for an even
    translation-invariant operator is a _ToeplitzStiffness, which keeps only
    its first column and is factored by the Gohberg-Semencul formula.
    `matrix` is read-only, so writing into it raises instead of solving
    against a stale factorization; do not write into the array the matrix
    was built from either.  `symmetric` is true only where the construction guarantees
    A == A.T bit for bit (assemble sets it for an even stencil, see
    _lattice_matrix); its LU factor then certifies an M-matrix with one
    solve.  Matrices compare and hash by identity, as objects that own
    their factorization."""

    symmetric = False

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
        # a Z-matrix with a nonnegative diagonal: column j of |A| sums to
        # 2 a_jj less column sum j, with no n x n |A| temporary; the column
        # sums are the row sums of a symmetric A
        A = self._matrix
        off_max, _, row_sums = self._z_stats()
        diagonal = np.diagonal(A)
        if off_max <= 0.0 and np.min(diagonal) >= 0.0:
            col_sums = row_sums if self.symmetric else np.ones(self.n) @ A
            return float(np.max(2.0 * diagonal - col_sums))
        return float(np.linalg.norm(A, 1))

    def _dense(self, cause):
        """The n x n matrix LU factors; `cause` names, in the memory guard's
        error, what formed it (only a _ToeplitzStiffness forms it here)."""
        return self._matrix

    # LU is this matrix's first factorization (_factor), not a fallback
    _lu_first = True

    def _lu(self, shift=0.0):
        return _LU(self._dense("the LU fallback from the Toeplitz factor"), shift,
                   self.symmetric)

    def _factor(self, shift=0.0):
        return self._lu(shift)

    def _z_stats(self):
        # computed once, as the matrix is read-only.  No n x n temporary:
        # row r of flat[1:] reshaped to n - 1 rows of n + 1 holds n
        # off-diagonal entries and then a diagonal one (a view when A is C-
        # or F-contiguous), and max|A| is max(max A, -min A)
        if "_stats" not in vars(self):
            A = self._matrix
            off = np.ravel(A, order="K")[1:].reshape(self.n - 1, self.n + 1)[:, :-1]
            off_max = np.max(off, initial=-math.inf)
            self._stats = off_max, max(np.max(A), -np.min(A)), A.sum(axis=1)
        return self._stats

    def _is_m_matrix(self):
        """True when A is a Z-matrix (off-diagonal entries <= 0) whose row
        sums exceed their rounding, n*eps*max|A|: then it is strictly
        diagonally dominant, a nonsingular M-matrix with A^-1 >= 0."""
        off_max, a_max, row_sums = self._z_stats()
        return off_max <= 0.0 and np.min(row_sums) > self.n * np.finfo(float).eps * a_max

    def _solve_once(self, f):
        """(u, _Factors) with u = A^-1 f for a matrix that is solved once and
        then dropped, or None where `_factors` must factor it.  A symmetric
        matrix that passes `_is_m_matrix` and whose first factorization is
        LU (`_lu_first`) is solved for [f, 1] by one numpy.linalg.solve:
        LAPACK gesv from numpy's own OpenBLAS, on the F-contiguous A.T = A,
        so scipy.linalg is not loaded.  y = A^-1 1 certifies A as
        _m_matrix_bound does (sigma_min >= 1/max y, ||A^-1||_1 = max y,
        sigma_path "m_matrix"); factor_s holds the whole of it, sigma_s is
        0.0.  None, and so `_factors`, when A does not qualify, gesv meets
        an exactly zero pivot, y is not finite and positive, or sigma_min
        falls under TOEPLITZ_SIGMA_FLOOR times the 1-norm."""
        t0 = time.perf_counter()
        if not (self.symmetric and self._lu_first and self._is_m_matrix()):
            return None
        anorm = self._norm1()
        A = self._dense("the single-use LU solve")
        try:
            with np.errstate(all="ignore"):
                uy = np.linalg.solve(A.T, np.stack((f, np.ones(self.n)), axis=1))
        except np.linalg.LinAlgError:
            return None
        y = uy[:, 1]
        inverse_norm = float(np.max(y))
        # an infinite max y reads sigma_min 0, under the floor
        if not (np.min(y) > 0.0 and 1.0 / inverse_norm >= TOEPLITZ_SIGMA_FLOOR * anorm):
            return None
        return uy[:, 0].copy(), _Factors(
            factor=_Gesv(),
            anorm=anorm,
            condition=anorm * inverse_norm,
            sigma_min=1.0 / inverse_norm,
            sigma_path="m_matrix",
            null_vec=None,
            factor_s=time.perf_counter() - t0,
            sigma_s=0.0,
        )

    @cached_property
    def _factors(self):
        """Factorization, 1-norm, condition number and sigma_min, computed
        once.  An M-matrix (`_is_m_matrix`) is certified by two solves
        (`_m_matrix_bound`): its condition number is then exact up to the
        solves' rounding and sigma_min is a lower bound (sigma_path
        "m_matrix").  Any other matrix, or one whose bound falls under
        TOEPLITZ_SIGMA_FLOOR times the 1-norm, takes the sigma_min inverse
        iteration and Hager-Higham, floored at 1/(sigma sqrt(n)) ("iteration").
        A factor other than LU (a Toeplitz one) is replaced by `_lu` when its
        sigma_min falls under TOEPLITZ_SIGMA_FLOOR times the 1-norm;
        factor_s then includes the first factor and its sigma_min
        iteration.  Inverse iteration cannot run on an LU factor
        with a zero pivot, nor on one whose solves overflow (a tiny pivot),
        which _sigma_min_estimate reports as sigma_min 0 and the condition
        estimate as a non-finite norm: then sigma_min (0 for a zero pivot)
        and the null vector come from the SVD ("svd"), and the condition
        estimate is infinite."""
        t0 = time.perf_counter()
        anorm = self._norm1()
        floor = TOEPLITZ_SIGMA_FLOOR * anorm
        certify = True  # only the first factor: an LU refactor follows a refusal
        for factor_once in (self._factor, self._lu):
            factor = factor_once()
            t1 = time.perf_counter()
            sigma, null_vec, path = 0.0, None, "iteration"
            if not factor.singular:
                if certify and self._is_m_matrix():
                    bound = _m_matrix_bound(factor, self.n)
                    if bound is not None and bound[1] >= floor:
                        (inverse_norm, sigma), path = bound, "m_matrix"
                        break
                certify = False
                sigma, null_vec = _sigma_min_estimate(factor, self.n)
            if factor.name == "lu" or sigma >= floor:
                break
        t2 = time.perf_counter()
        if path == "iteration":
            inverse_norm = math.inf
            if sigma > 0.0:
                # ||A^-1||_1 >= 1/(sigma_min sqrt(n)) >= 1/(sigma sqrt(n)),
                # a floor under Hager-Higham, which can fall far short
                inverse_norm = max(_inverse_norm1_estimate(factor.solve, self.n),
                                   1.0 / (sigma * math.sqrt(self.n)))
        if math.isfinite(inverse_norm):
            condition = anorm * inverse_norm
        else:
            _, singular_values, vt = np.linalg.svd(self.matrix)
            sigma = 0.0 if factor.singular else float(singular_values[-1])
            null_vec, condition, path = vt[-1], math.inf, "svd"
        return _Factors(
            factor=factor,
            anorm=anorm,
            condition=condition,
            sigma_min=sigma,
            sigma_path=path,
            null_vec=null_vec,
            factor_s=t1 - t0 + time.perf_counter() - t2,
            sigma_s=t2 - t1,
        )


class _ToeplitzStiffness(StiffnessMatrix):
    """A symmetric Toeplitz StiffnessMatrix, kept as its first column
    c = A[:, 0] (n numbers; assemble builds one for an even
    translation-invariant operator on a hole-free 1-D grid).  Each entry of
    matvec is one dot product with a window of (c[n-1], ..., c[1], c[0],
    ..., c[n-1]), so it rounds like A @ v, in O(n) memory.  The dense
    matrix is formed only when `matrix` is read (built on each read, not
    kept) or LU needs it, and each time the memory guard runs first."""

    symmetric = True

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

    def _mirrored(self):
        """(c[n-1], ..., c[1], c[0], ..., c[n-1]): row i of the matrix is
        its window of n entries from n - 1 - i."""
        c = self.column
        return np.concatenate((c[:0:-1], c))

    def matvec(self, v):
        return np.convolve(self._mirrored(), v, "valid")

    def _norm1(self):
        return _toeplitz.norm1(self.column)

    @property
    def _lu_first(self):
        return self.n < TOEPLITZ_MIN_N

    def _factor(self, shift=0.0):
        """The Toeplitz factor when n >= TOEPLITZ_MIN_N and _toeplitz keeps
        it, else LU, which forms the dense matrix behind the memory guard."""
        if not self._lu_first:
            try:
                return _toeplitz.Factor(self.column, shift)
            except np.linalg.LinAlgError:
                pass
        return self._lu(shift)

    def _z_stats(self):
        c = self.column  # in O(n): the off-diagonal is c[1:]
        return np.max(c[1:], initial=-math.inf), np.max(np.abs(c)), _toeplitz.row_sums(c)

    def _dense(self, cause):
        """toeplitz(c), read-only, once the guard has found room for it: the
        windows of `_mirrored` in reverse order, copied."""
        _check_dense_size(self.grid, cause)
        windows = np.lib.stride_tricks.sliding_window_view(self._mirrored(), self.n)
        A = np.array(windows[::-1])
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
    # which computation gave sigma_min and condition_estimate: "m_matrix"
    # (certified: sigma_min a lower bound, condition_estimate exact up to
    # rounding), "iteration" (inverse iteration and Hager-Higham) or "svd"
    sigma_path: str
    factorization: str  # "toeplitz" (MINRES generator, Gohberg-Semencul) | "lu"
    iterations: int  # MINRES iterations of the Toeplitz generator, 0 for LU
    # seconds per phase and the node count n:
    # {assemble_s, factor_s, sigma_s, solve_s, audit_s, n}; assemble_s is 0.0
    # for a prebuilt matrix, factor_s and sigma_s are 0.0 for a factored one.
    # A single-use solve (StiffnessMatrix._solve_once) is one numpy gesv for
    # the solution and the certificate together: factor_s holds it, and
    # sigma_s and solve_s are 0.0
    timings: dict


@functools.cache
def _corner_tables(N):
    """The corners e of a lattice cell, (2^N, N) in itertools.product
    order, with 1 - e and 2e - 1; the powers of 3 that index {-1, 0, 1}^N
    (first axis slowest) by d + 1; and that set, (3^N, N)."""
    e = np.array(list(itertools.product((0, 1), repeat=N)))
    cells = np.array(list(itertools.product((-1, 0, 1), repeat=N)))
    tables = e, 1.0 - e, 2.0 * e - 1.0, 3 ** np.arange(N - 1, -1, -1), cells
    for table in tables:
        table.flags.writeable = False  # cached: shared by every caller
    return tables


def _origin_cells(rays, h, span):
    """Where the offsets rho*theta with rho < h land in the padded difference
    table (shape span), and how: the flat indices of the 3^N differences in
    {-1, 0, 1}^N around the zero difference, and the matrix C that takes the
    radial moments M[r, p - 1] = sum_j W_rj rho_j^p (p = 1..N) of the
    weights W_rj of the offsets rho_j*rays[r] to minus their table there.

    Such an offset lies in the lattice cell spanned by 0 and sign(theta), and
    its multilinear weight at the corner e in {0, 1}^N of that cell (the
    difference e*sign(theta)) is prod_a (e_a ? rho*a_a : 1 - rho*a_a) with
    a = |theta|/h, a polynomial of degree N in rho.  C holds its coefficients
    of rho^1..rho^N; the constant term, 1 at e = 0, is left out, since it
    cancels the same weights' share of the diagonal, which drops them too."""
    R, N = rays.shape
    e, at0, slope_sign, radix, cells = _corner_tables(N)
    # each factor is e_a ? 0 + rho*a_a : 1 - rho*a_a: its value at rho = 0
    # and its slope; multiply them out one axis at a time
    slope = slope_sign * (np.abs(rays) / h)[:, None, :]
    coef = [at0[:, 0], slope[..., 0]]  # in rho^0, rho^1, ...
    for ax in range(1, N):
        c0, c1 = at0[:, ax], slope[..., ax]
        coef = ([coef[0] * c0] + [coef[p] * c0 + coef[p - 1] * c1 for p in range(1, ax + 1)]
                + [coef[-1] * c1])
    # the corner's difference e*sign(theta), as an index into cells
    cell = (e * np.where(rays < 0, -1, 1)[:, None, :] + 1) @ radix
    C = np.zeros((3 ** N, R, N))
    C[cell, np.arange(R)[:, None]] = -np.stack(coef[1:], axis=-1)
    stride = [math.prod(span[ax + 1:]) for ax in range(N)]
    at = math.prod(span) // 2 + cells @ stride
    return at, C.reshape(3 ** N, R * N)


def _lattice_matrix(grid, offs, rays, weights, diag, mirror, toeplitz=False):
    """Dense matrix of u -> d u(x_i) - sum_k W_k interp u(x_i + z_k)
    collocated at every node x_i, or only its first column when `toeplitz`
    is true.  The z_k are the offsets offs, their mirror images -offs where
    the rule has them, and the inner offsets rho_j*theta_r with rho_j < h
    along each ray theta_r of `rays`.

    At node x_i the weights are (W, M).  W weights offs (column 0) and, for
    mirror "pairs", their mirror images (column 1); for "flip" its one
    column stands for both, and for None the rule has no mirror images.
    M[r, p - 1] is the radial moment sum_j W_rj rho_j^p (p = 1..N) of the
    inner offsets along ray r, each ray followed by its mirror for "pairs"
    (see _origin_cells).  d = diag(W) leaves the inner offsets out, as
    their moments leave out the constant term.  weights is (W, M) when it
    is the same at every node (a translation-invariant operator) or a
    function of the node giving it (an x-dependent kernel).

    offs are projected once (geometry.difference_projection: rows and vals
    of 2^N corners per offset), and the table T of minus the weights is
    np.bincount(rows, -vals * W); for "pairs" each offset's rows are
    followed by those of its mirror image, size - 1 - rows: flip, which
    reverses the flat padded difference table (shape 2*dims + 1), maps
    difference d to -d.  C @ M adds the inner offsets at the 3^N
    differences around the origin.  The stencil S is T, or T + flip(T) for
    "flip", symmetric bit for bit, plus d at the zero difference.  Entry
    (i, j) is S[q[j] + origin - q[i]], q the flat index of each node and
    origin that of the zero difference; rows read only the table's
    interior (the padding holds the corners of offsets beyond every lattice
    difference), so only it must be finite.  One stencil is gathered
    _GATHER_ENTRIES entries at a time, an x-dependent kernel's a row at a
    time, from a scipy.sparse product of the same arrays (its one use,
    imported there).  `toeplitz` asks for one stencil on a hole-free 1-D
    lattice, where A is symmetric Toeplitz: its first column
    S[q[0] + origin - q] is returned, and no n x n array is allocated."""
    corner, vals = geometry.difference_projection(grid, offs)
    np.negative(vals, out=vals)  # in place, once, not per stencil
    span = tuple(2 * d + 1 for d in grid.dims)
    size = math.prod(span)
    q = np.ravel_multi_index((grid.lattice - grid.kmin).T, span).astype(np.int32)
    origin = size // 2
    interior = (slice(1, -1),) * len(span)
    if mirror == "pairs":
        corner = np.stack((corner, size - 1 - corner), axis=1)
        vals = np.stack((vals, vals), axis=1)
        rays = np.stack((rays, -rays), axis=1).reshape(-1, grid.domain.N)
    at, C = _origin_cells(rays, grid.h, span)
    rows, vals = corner.reshape(-1), vals.reshape(-1, corner.shape[-1])

    if callable(weights):
        # per node, scipy's csc_matvec is faster than np.bincount: 25-26
        # against 36-38 ms per assembly of the n = 489 ball at h = 0.02
        # (1 752 offsets and their mirror images; a kernel that costs
        # nothing, 2 vCPU)
        from scipy import sparse

        P = sparse.csc_array(
            (vals.reshape(-1), rows, np.arange(0, rows.size + 1, vals.shape[1])),
            shape=(size, len(vals)),
        )

        def table(W):
            return P @ W.reshape(-1)
    else:
        def table(W):
            # np.bincount adds the products offset by offset and corner by
            # corner, as scipy's csc_matvec does: the same table bit for bit
            return np.bincount(rows, (vals * W.reshape(-1, 1)).reshape(-1), size)

    def stencil(i, W, M):
        S = table(W)
        S[at] += C @ M.reshape(-1)
        if mirror == "flip":
            S = S + S[::-1]
        S[origin] += diag(W)  # the zero difference: only the diagonal reads it
        if not np.all(np.isfinite(S.reshape(span)[interior])):
            raise ArithmeticError(
                f"quadrature failure assembling node {i} at {grid.nodes[i]}"
            )
        return S

    if callable(weights):
        blocks = ((i, i + 1, stencil(i, *weights(x))) for i, x in enumerate(grid.nodes))
    else:
        S = stencil(0, *weights)
        if toeplitz:
            return S[q[0] + origin - q]
        step = max(1, _GATHER_ENTRIES // grid.n)
        blocks = ((i, i + step, S) for i in range(0, grid.n, step))
    A = np.empty((grid.n, grid.n))
    for i0, i1, S in blocks:
        np.take(S, q + (origin - q[i0:i1, None]), out=A[i0:i1], mode="clip")
    return A


def _check_dense_size(grid, cause="assembly"):
    """Refuse a dense system that cannot fit in physical memory: the matrix
    and the copy LU factorization makes take 16*n^2 bytes (scipy's getrf
    factors one Fortran-ordered copy, numpy's gesv copies A into its own
    buffer, so either way 16 bytes per entry).  assemble checks
    before it allocates anything for every matrix but a symmetric Toeplitz
    one, which is stored as one column of n numbers and checks here only
    when its dense matrix is formed: for LU (a fallback from the Toeplitz
    factor, or the single-use solve under TOEPLITZ_MIN_N rows) or when its
    `matrix` is read.  `cause` names which in the error."""
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

    An even translation-invariant operator (a weight of |z| alone, or none)
    on a hole-free 1-D grid gives a _ToeplitzStiffness, which stores the
    first column only; every other matrix is dense, and for it assemble
    raises ValueError before allocating anything when the dense system
    would not fit in physical memory."""
    if grid.n == 0:
        raise ValueError("grid has no nodes")
    N = grid.domain.N
    # one even stencil on a hole-free 1-D lattice: A[i, j] depends on |j - i|
    # only.  Any other grid is dense whatever the operator, and is refused
    # before anything is allocated (the reach alone takes O(n) memory).
    lattice_1d = N == 1 and grid.n == grid.dims[0]
    if not lattice_1d:
        _check_dense_size(grid)
    n_ang, n_rad = cfg.node_counts()
    reach = float(np.max(grid.domain.max_reach(grid.nodes)))
    op = nonlocal_eval._operator(problem.operator, N, cfg.r_min, reach, problem.kernel)
    toeplitz = lattice_1d and op.weight is None
    if lattice_1d and not toeplitz:
        _check_dense_size(grid)
    ranges = op.ranges()
    rules = [
        _quadrules.polar_rule(N, n_ang, lo, hi, n_rad, op.breaks)
        for lo, hi, _ in ranges
    ]
    w = op.scale * np.concatenate([wr for _, _, wr, _ in rules])
    if op.profile is not None:
        # every ray of a rule carries the same radii: the profile once per radius
        w = w * np.concatenate(
            [np.tile(op.profile(rho), len(wr) // len(rho)) for _, rho, wr, _ in rules]
        )
    # the first range, from r_min, carries u(x): its offsets with rho < h lie
    # in the lattice cells around the origin and enter by their radial
    # moments (_origin_cells), all others are projected.  polar_rule builds
    # the first rays of unit_directions, all with the same radii and weights
    Z, rho, _, mirrored = rules[0]
    rays = _quadrules.unit_directions(N, n_ang)[0][:len(Z) // len(rho)]
    split = int(np.searchsorted(rho, grid.h)) if ranges[0][2] else 0
    Z, w0 = Z.reshape(len(rays), -1, N), w[:len(Z)].reshape(len(rays), -1)
    offs = np.concatenate([Z[:, split:].reshape(-1, N)] + [Zr for Zr, _, _, _ in rules[1:]])
    w = np.concatenate([w0[:, split:].ravel(), w[w0.size:]])
    inner, powers = Z[:, :split], rho[:split, None] ** np.arange(1, N + 1)
    # only the range that carries u(x) feeds the diagonal, without the
    # inner offsets: their moments leave out the constant term
    near = w0[:, split:].size if ranges[0][2] else 0
    # how the mirror images -z enter _lattice_matrix: not at all for a rule
    # without them, through the one weight column of an even weight, or
    # weighted at every node next to the offsets
    mirror = None if not mirrored else "flip" if op.weight is None else "pairs"
    if op.weight is None:
        # _lattice_matrix's weights (W, M)
        weights = w[:, None], w0[:, :split] @ powers
    else:
        # w_rad * rho^p: the moments are the kernel values at the inner
        # offsets times this, as every ray carries the same weights
        radial = w0[0, :split, None] * powers
        columns = 2 if mirror == "pairs" else 1
        points = offs
        if mirror == "pairs":
            # each offset next to its mirror image, for one kernel call per node
            points = np.stack((offs, -offs), axis=1).reshape(-1, N)
            inner = np.stack((inner, -inner), axis=1)
        points = np.asfortranarray(np.concatenate((points, inner.reshape(-1, N))))
        w_c = np.repeat(w, columns)

        def weights(x):
            # _lattice_matrix's weights (W, M) at node x
            k = op.weight(x, points)
            inner_k = k[len(w_c):].reshape(columns * len(rays), split)
            return (w_c * k[:len(w_c)]).reshape(-1, columns), inner_k @ radial

        if op.translation_invariant:
            weights = weights(np.zeros(N))

    halves = 2.0 if mirror == "flip" else 1.0

    def diag(W):
        # the near weights of both halves, one column standing for both
        return W[:near].sum() * halves + op.const + problem.shift

    A = _lattice_matrix(grid, offs, rays, weights, diag, mirror, toeplitz=toeplitz)
    sm = (_ToeplitzStiffness if toeplitz else StiffnessMatrix)(A, grid)
    if mirror == "flip":
        sm.symmetric = True  # one even stencil, symmetric bit for bit
    return sm


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


def _mp_audit(u, f, residual_inf, certified):
    """Maximum-principle audit: nonnegative data must give solutions above
    -10*residual; also records the discrete sup bound ||u||/||f||, and
    whether the matrix is a certified M-matrix (A^-1 >= 0, so f >= 0 gives
    u >= 0 by construction, up to the solve's rounding)."""
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
    return {
        "pass": bool(passed),
        "max_violation": violation,
        "sup_ratio": ratio,
        "certified": certified,
    }


def solve_dirichlet(problem, grid, cfg, stiffness=None):
    """Solve the collocation system; returns (GridFunction, SolveReport).

    When the smallest-singular-value estimate is at most 1e-10 times the
    matrix 1-norm (it is 0 for a matrix with a zero LU pivot) the report
    flags the second Fredholm alternative and the returned grid function is
    a unit-norm approximate null vector instead of a solution.  Passing a
    prebuilt StiffnessMatrix skips assembly, and the
    matrix is factored only on its first solve (see StiffnessMatrix), so
    solving one matrix against many right-hand sides costs one
    factorization.  A matrix assembled here is solved once, by
    sm._solve_once where it qualifies (one numpy gesv, no factorization
    kept), else through sm._factors.  The report names the factorization
    ("toeplitz" or "lu") and which computation gave sigma_min
    (`sigma_path`), and its timings split the wall time into assembly,
    factorization (with the condition estimate), sigma_min (the M-matrix
    certificate's two solves, or the inverse iteration), the solve with the
    factorization, and the audit (the residual plus the maximum-principle
    check).  Both residuals are
    products with sm.matvec, so a Toeplitz matrix is never formed for them.
    """
    f = problem.rhs.evaluate(grid.nodes)
    t0 = time.perf_counter()
    sm = stiffness if stiffness is not None else assemble(problem, grid, cfg)
    t1 = time.perf_counter()
    reused = "_factors" in vars(sm)
    # an assembled matrix is never solved again: no factorization is kept
    once = sm._solve_once(f) if stiffness is None else None
    u, fac = once if once is not None else (None, sm._factors)
    t2 = time.perf_counter()
    if fac.sigma_min <= NEAR_SINGULAR_FACTOR * fac.anorm:
        u = fac.null_vec.copy()
        t3 = time.perf_counter()
        residual = float(np.max(np.abs(sm.matvec(u))))
        alternative = "near_singular"
        mp_audit = {"pass": True, "max_violation": 0.0, "sup_ratio": 0.0,
                    "certified": False}
    else:
        if u is None:
            with np.errstate(all="ignore"):
                u = fac.factor.solve(f)
        if not np.all(np.isfinite(u)):
            raise ArithmeticError("linear solve produced non-finite values")
        t3 = time.perf_counter()
        residual = float(np.max(np.abs(sm.matvec(u) - f)))
        alternative = "unique_solution"
        mp_audit = _mp_audit(u, f, residual, fac.sigma_path == "m_matrix")
    timings = {
        "assemble_s": t1 - t0 if stiffness is None else 0.0,
        "factor_s": 0.0 if reused else fac.factor_s,
        "sigma_s": 0.0 if reused else fac.sigma_s,
        "solve_s": t3 - t2 if once is None else 0.0,
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
        sigma_path=fac.sigma_path,
        factorization=fac.factor.name,
        iterations=fac.factor.iterations,
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

