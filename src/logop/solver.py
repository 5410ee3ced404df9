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
(geometry.difference_projection: the flat indices and weights of 2^N
corners per offset in a difference table padded by one cell on each side
of every axis, built in small blocks) for one offset z of each mirror pair
(z, -z): reversed on every axis, the table is that of the mirror images,
so an even weight gives a stencil symmetric bit for bit.  A
translation-invariant operator (every catalog kernel, the log-Laplacian
and the Schrodinger operator) has one stencil, its table summed by
np.bincount and gathered a block of rows at a time into a block-Toeplitz
matrix; a kernel that depends on x weights the offsets and their mirror
images at each node, one half-size scipy.sparse product of two columns.

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

A StiffnessMatrix is factored once: its factorization, condition number
and smallest singular value are computed on the first solve and kept (for
an M-matrix from two solves, A^-1 1 and A^-T 1, one for a symmetric matrix;
otherwise by inverse iteration and the Hager-Higham estimate), so every
later right-hand side costs one solve with the factorization, the
residual and the maximum-principle audit.  On a 1-D grid (a run of
consecutive lattice points) an even translation-invariant operator gives a
symmetric Toeplitz matrix A = T(S) + d*I, and assemble keeps only its first
column (a _ToeplitzStiffness): its products are direct convolutions, the
first column of its inverse is generated by circulant-preconditioned MINRES
in O(n log n) per iteration, it is solved in O(n log n) by the
Gohberg-Semencul formula, and its n x n matrix is formed only when read or
for LU.  Every other matrix, a Toeplitz one of fewer than TOEPLITZ_MIN_N
rows, and a Toeplitz one whose generator does not converge or whose factor
fails its backward-error check or lies near the singular threshold, is
factored by dense LU of one Fortran-ordered copy.  Each matrix type makes
this choice (`_factor`, falling back to `_lu`) and computes the sweep's
Z-matrix statistics (`_z_stats`) itself, so no caller asks which type a
matrix is, and a factor is only its solves: the M-matrix certificate, the
sigma_min iteration and the Hager-Higham estimate are the same on either
factor.

scipy.linalg (LAPACK) is loaded on the first LU factorization or when a
Toeplitz matrix is formed, not when this module is imported: the pointwise
evaluators and the barrier verifiers (`eval`, `verify`, `constants`) never
load it, nor do solves and sweeps on 1-D Toeplitz matrices of
TOEPLITZ_MIN_N rows or more, and the first LU solve in a process pays the
~0.2 s load (its `factor_s` includes it).  The Toeplitz factor uses
numpy.fft, which numpy has already loaded; scipy.fft is never imported.
scipy.sparse is loaded only to assemble an x-dependent kernel.
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
# entries per block of _lattice_matrix's row gather: its int32 index array
# (no dense table nears 2^31 entries) and numpy's intp copy of it stay under
# glibc's 128 KiB mmap threshold; mode "clip" writes without numpy's buffer
_GATHER_ENTRIES = 16384
# a Toeplitz factor is kept when a probe solve's normwise backward error is
# at most TOEPLITZ_BACKWARD_TOL (measured up to 4.7e-16 on the 1-D catalog
# operators, the wide log-Laplacian and shifts past lambda_1 at n <= 2000,
# LU up to 2e-14) and sigma_min is at least TOEPLITZ_SIGMA_FLOOR times the
# matrix 1-norm (a certified M-matrix bound under it falls back to the
# sigma_min iteration).  The Toeplitz and LU estimates of sigma_min agree to
# 1e-7 relative at sigma_min = 1e-9 times the 1-norm and to 9e-7 at 1e-10
# (unit and sinlog kernels, n = 99 and 499, shifted towards -lambda_1), so
# a margin of 10 over the near-singular threshold leaves every
# near_singular verdict and null vector to LU
TOEPLITZ_BACKWARD_TOL = 1e-11
TOEPLITZ_SIGMA_FLOOR = 10 * NEAR_SINGULAR_FACTOR
# the generator's MINRES takes 9-15 iterations on those matrices and 17-26
# at sigma_min = 1e-8 to 1e-10 times the 1-norm; a singular matrix stalls
TOEPLITZ_MAX_ITERATIONS = 40
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


class _Toeplitz:
    """Inverse of T - shift*I, where T is the symmetric Toeplitz matrix with
    this first column, by the Gohberg-Semencul formula
    T^-1 = (L(x) L(x)^T - L(ZJx) L(ZJx)^T) / x[0] in O(n log n), where
    x = T^-1 e_1 comes from _toeplitz_generator: L(v) is the lower-triangular
    Toeplitz matrix with first column v, J the reversal and Z the down-shift,
    so ZJx = [0, x[n-1], ..., x[1]].  L(v) b is the first n entries of the
    convolution v * b, and L(v)^T b = J L(v) J b; the convolutions are real
    FFTs of length m >= 2n - 1, the circulant embedding of T - shift*I that
    the generator and the probe multiply by.  Raises np.linalg.LinAlgError
    when the generator does, when x[0] is 0, or when a probe solve's
    normwise backward error exceeds TOEPLITZ_BACKWARD_TOL.  `iterations`
    and `residual` are the generator's.  No n x n array is formed."""

    name = "toeplitz"
    singular = False
    symmetric = True  # solve(b, trans=True) is solve(b)

    def __init__(self, column, shift=0.0):
        self.n = n = len(column)
        self.m = m = 1 << (2 * n - 1).bit_length()
        # the even circulant embeddings of T - shift*I and of its taper
        # (1 - k/n) c_k, whose spectra are real
        embedded = np.zeros((2, m))
        embedded[0, :n] = column
        embedded[0, 0] -= shift
        column = embedded[0, :n]
        embedded[1, :n] = column * (1.0 - np.arange(n) / n)
        embedded[:, m - n + 1:] = embedded[:, n - 1:0:-1]
        F, taper = np.fft.rfft(embedded).real
        x, self.iterations, self.residual = _toeplitz_generator(F, taper, n)
        if not x[0] != 0.0:
            raise np.linalg.LinAlgError("first entry of the generator is 0")
        # the spectra of x and ZJx, once as they are and once as the last
        # stage of solve combines them
        XY = np.fft.rfft(np.stack((x, np.concatenate(([0.0], x[:0:-1])))), m)
        self.XY, self.XY_last = XY, XY * [[1.0 / x[0]], [-1.0 / x[0]]]
        b = np.random.default_rng(7).standard_normal(n)
        with np.errstate(all="ignore"):
            y = self.solve(b)
            r = np.fft.irfft(F * np.fft.rfft(y, m), m)[:n] - b
            scale = _toeplitz_norm1(column) * np.max(np.abs(y)) + np.max(np.abs(b))
            backward = np.max(np.abs(r)) / scale
        if not backward <= TOEPLITZ_BACKWARD_TOL:
            raise np.linalg.LinAlgError(f"Toeplitz probe backward error {backward:.3g}")

    def solve(self, b, trans=False):
        """T^-1 b; T is symmetric, so trans changes nothing."""
        n, m, fft = self.n, self.m, np.fft
        B = fft.rfft(b[::-1], m)
        st = fft.rfft(fft.irfft(self.XY * B, m)[:, n - 1::-1], m)
        return fft.irfft(np.sum(self.XY_last * st, axis=0), m)[:n]


def _toeplitz_generator(F, G, n):
    """x = T^-1 e_1, the iteration count and the final relative residual
    estimate, by MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12, 1975)
    with a circulant preconditioner (Chan and Jin, An Introduction to
    Iterative Toeplitz Solvers, SIAM 2007).  T v = irfft(F rfft(v, m))[:n]:
    T is the leading n x n block of the circulant with eigenvalues F.  G are
    the eigenvalues of the circulant of the tapered column (1 - k/n) c_k,
    Fejer means of T's symbol and Rayleigh quotients of T at the Fourier
    vectors, so they lie in [lambda_min(T), lambda_max(T)]; the
    preconditioner, the leading n x n block of the inverse of the circulant
    with eigenvalues |G|, is positive definite for indefinite T as well.
    MINRES stops when its estimate of the residual in the preconditioner's
    norm has fallen to eps times its start; x is formed once, from the
    Lanczos vectors kept a row each.  Raises np.linalg.LinAlgError when
    some |G| is not above NEAR_SINGULAR_FACTOR times the largest, on a
    breakdown, or after TOEPLITZ_MAX_ITERATIONS steps (the residual of a
    singular T stalls)."""
    G = np.abs(G)
    if not np.min(G) > NEAR_SINGULAR_FACTOR * np.max(G):
        raise np.linalg.LinAlgError("circulant preconditioner is near singular")
    m, cap = 2 * (len(F) - 1), TOEPLITZ_MAX_ITERATIONS
    rfft, irfft = np.fft.rfft, np.fft.irfft
    # complex copies: a complex-by-complex product is faster than numpy's
    # mixed real-by-complex loop
    F, P = F.astype(complex), (1.0 / G).astype(complex)
    spectrum = np.empty(len(F), complex)
    V = np.empty((cap, n))  # Lanczos vectors, a row per step; later rows untouched
    R = np.zeros((3, cap + 2))  # the rotated tridiagonal: diagonal and two above it
    phi = np.empty(cap)
    r_old, r = np.zeros(n), np.eye(1, n)[0]
    z = irfft(P, m)[:n]  # the preconditioned e_1
    beta = beta1 = math.sqrt(z[0])
    beta_old, cs, sn, dbar, eps_next, phibar = 1.0, -1.0, 0.0, 0.0, 0.0, beta1
    tol = np.finfo(float).eps * beta1
    for k in range(cap):
        v = np.multiply(z, 1.0 / beta, out=V[k])
        z = irfft(np.multiply(rfft(v, m, out=spectrum), F, out=spectrum), m)[:n]
        z -= (beta / beta_old) * r_old
        alpha = float(np.dot(v, z))
        z -= (alpha / beta) * r
        r_old, r = r, z
        z = irfft(np.multiply(rfft(r, m, out=spectrum), P, out=spectrum), m)[:n]
        beta_old, beta = beta, math.sqrt(max(float(np.dot(r, z)), 0.0))
        # the next Givens rotation of the Lanczos tridiagonal
        R[1, k] = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        R[2, k], eps_next = eps_next, sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if not gamma > 0.0:
            raise np.linalg.LinAlgError("MINRES broke down")
        R[0, k], cs, sn = gamma, gbar / gamma, beta / gamma
        phi[k], phibar = cs * phibar, sn * phibar
        if phibar <= tol:
            break
    else:
        raise np.linalg.LinAlgError(f"MINRES did not converge in {cap} iterations "
                                    f"(residual {phibar / beta1:.3g})")
    k += 1
    y = np.zeros(k + 2)  # x = V^T y, R y = phi by back substitution
    for i in range(k - 1, -1, -1):
        y[i] = (phi[i] - R[1, i + 1] * y[i + 1] - R[2, i + 2] * y[i + 2]) / R[0, i]
    return y[:k] @ V[:k], k, phibar / beta1


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

    factor: _LU | _Toeplitz
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
        return float(np.linalg.norm(self._matrix, 1))

    def _lu(self, shift=0.0):
        return _LU(self._matrix, shift, self.symmetric)

    def _factor(self, shift=0.0):
        return self._lu(shift)

    def _z_stats(self):
        # no n x n temporary: row r of flat[1:] reshaped to n - 1 rows of
        # n + 1 holds n off-diagonal entries and then a diagonal one (a view
        # when A is C- or F-contiguous), and max|A| is max(max A, -min A)
        A = self._matrix
        off = np.ravel(A, order="K")[1:].reshape(self.n - 1, self.n + 1)[:, :-1]
        off_max = np.max(off, initial=-math.inf)
        return off_max, max(np.max(A), -np.min(A)), A.sum(axis=1)

    def _is_m_matrix(self):
        """True when A is a Z-matrix (off-diagonal entries <= 0) whose row
        sums exceed their rounding, n*eps*max|A|: then it is strictly
        diagonally dominant, a nonsingular M-matrix with A^-1 >= 0."""
        off_max, a_max, row_sums = self._z_stats()
        return off_max <= 0.0 and np.min(row_sums) > self.n * np.finfo(float).eps * a_max

    @cached_property
    def _factors(self):
        """Factorization, 1-norm, condition number and sigma_min, computed
        once.  An M-matrix (`_is_m_matrix`) is certified by two solves
        (`_m_matrix_bound`): its condition number is then exact up to the
        solves' rounding and sigma_min is a lower bound (sigma_path
        "m_matrix").  Any other matrix, or one whose bound falls under
        TOEPLITZ_SIGMA_FLOOR times the 1-norm, takes the sigma_min inverse
        iteration and the Hager-Higham condition estimate ("iteration").
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
                inverse_norm = _inverse_norm1_estimate(factor.solve, self.n)
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

    def matvec(self, v):
        c = self.column
        return np.convolve(np.concatenate((c[:0:-1], c)), v, "valid")

    def _norm1(self):
        return _toeplitz_norm1(self.column)

    def _lu(self, shift=0.0):
        return _LU(self._dense("the LU fallback from the Toeplitz factor"), shift,
                   self.symmetric)

    def _factor(self, shift=0.0):
        """The Toeplitz factor when n >= TOEPLITZ_MIN_N and _Toeplitz keeps
        it, else LU, which forms the dense matrix behind the memory guard."""
        if self.n >= TOEPLITZ_MIN_N:
            try:
                return _Toeplitz(self.column, shift)
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
    # which computation gave sigma_min and condition_estimate: "m_matrix"
    # (certified: sigma_min a lower bound, condition_estimate exact up to
    # rounding), "iteration" (inverse iteration and Hager-Higham) or "svd"
    sigma_path: str
    factorization: str  # "toeplitz" (MINRES generator, Gohberg-Semencul) | "lu"
    iterations: int  # MINRES iterations of the Toeplitz generator, 0 for LU
    # seconds per phase and the node count n:
    # {assemble_s, factor_s, sigma_s, solve_s, audit_s, n}; assemble_s is 0.0
    # for a prebuilt matrix, factor_s and sigma_s are 0.0 for a factored one
    timings: dict


def _lattice_matrix(grid, offs, weights, diag, toeplitz=False):
    """Dense matrix of u -> d u(x_i) - sum_k (W[k, 0] interp u(x_i + offs[k])
    + W[k, -1] interp u(x_i - offs[k])) collocated at every node x_i, or
    only its first column when `toeplitz` is true.  W holds the weights at
    x_i of the offsets (column 0) and of their mirror images (the last; one
    column for an even weight), and d = diag(W).

    weights is W when it is the same at every node (a translation-invariant
    operator) or a function of the node giving it (an x-dependent kernel).
    The offsets are projected once (geometry.difference_projection: rows
    and vals of 2^N corners per offset), the table of each weight column is
    T = np.bincount(rows, vals * W), and the stencil is
    S = -(T[:, 0] + flip(T[:, -1])), plus d at the zero difference: flip
    reverses the padded difference table (shape 2*dims + 1) on every axis,
    mapping difference d to -d, so S is symmetric bit for bit when W has
    one column.  Entry (i, j) is S[q[j] + origin - q[i]], q the flat index
    of each node and origin that of the zero difference; rows read only the
    table's interior (the padding holds the corners of offsets beyond every
    lattice difference), so only it must be finite.  One stencil is
    gathered _GATHER_ENTRIES entries at a time, an x-dependent kernel's a
    row at a time, from a sparse product of the same arrays (the one use
    of scipy.sparse, imported there).  `toeplitz` asks for one stencil on a
    hole-free 1-D lattice, where A is symmetric Toeplitz: its first column
    S[q[0] + origin - q] is returned, and no n x n array is allocated."""
    corner, vals = geometry.difference_projection(grid, offs)
    np.negative(vals, out=vals)  # in place, once, not per stencil
    span = tuple(2 * d + 1 for d in grid.dims)
    q = np.ravel_multi_index((grid.lattice - grid.kmin).T, span).astype(np.int32)
    origin = int(np.ravel_multi_index(grid.dims, span))
    inner = (slice(1, -1),) * len(span)

    if callable(weights):
        # per node, scipy's csc_matvec is ~3 times faster than one np.bincount
        # per column: 74 against 250 us for the two columns of a 2-D ball
        # rule of 12 464 offsets (2 vCPU)
        from scipy import sparse

        P = sparse.csc_array(
            (vals.reshape(-1), corner.reshape(-1), np.arange(0, corner.size + 1, 2 ** len(span))),
            shape=(math.prod(span), len(offs)),
        )

        def tables(W):
            return (P @ W).T
    else:
        def tables(W):
            # np.bincount adds the products offset by offset and corner by
            # corner, as scipy's csc_matvec does: the same table bit for bit
            flat, size = corner.reshape(-1), math.prod(span)
            return [np.bincount(flat, (vals * w[:, None]).reshape(-1), size) for w in W.T]

    def stencil(i, W):
        T = tables(W)
        S = T[0] + T[-1][::-1]
        S[origin] += diag(W)  # the zero difference: only the diagonal reads it
        if not np.all(np.isfinite(S.reshape(span)[inner])):
            raise ArithmeticError(
                f"quadrature failure assembling node {i} at {grid.nodes[i]}"
            )
        return S

    if callable(weights):
        blocks = ((i, i + 1, stencil(i, weights(x))) for i, x in enumerate(grid.nodes))
    else:
        S = stencil(0, weights)
        if toeplitz:
            return S[q[0] + origin - q]
        rows = max(1, _GATHER_ENTRIES // grid.n)
        blocks = ((i, i + rows, S) for i in range(0, grid.n, rows))
    A = np.empty((grid.n, grid.n))
    for i0, i1, S in blocks:
        np.take(S, q + (origin - q[i0:i1, None]), out=A[i0:i1], mode="clip")
    return A


def _check_dense_size(grid, cause="assembly"):
    """Refuse a dense system that cannot fit in physical memory: the matrix
    and the copy LU factorization makes take 16*n^2 bytes.  assemble checks
    before it allocates anything for every matrix but a symmetric Toeplitz
    one, which is stored as one column of n numbers and checks here only
    when its dense matrix is formed: for the LU fallback from the Toeplitz
    factor or when its `matrix` is read.  `cause` names which in the error."""
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
    offs = np.concatenate([Z for Z, _, _, _ in rules])
    w = op.scale * np.concatenate([wr for _, _, wr, _ in rules])
    mirrored = rules[0][3]
    # only the range that carries u(x), which comes first, feeds the diagonal
    near = len(rules[0][2]) if ranges[0][2] else 0
    if op.profile is not None:
        # every ray of a rule carries the same radii: the profile once per radius
        w = w * np.concatenate(
            [np.tile(op.profile(rho), len(wr) // len(rho)) for _, rho, wr, _ in rules]
        )
    even = mirrored and op.weight is None  # one weight column serves both halves
    if not even:
        # each offset next to its mirror image, for one kernel call per node;
        # a rule without mirrors weights the mirror images by zero
        pairs = np.asfortranarray(np.stack((offs, -offs), axis=1).reshape(-1, N))
        w_pairs = (w[:, None] * [1.0, float(mirrored)]).ravel()

    def at(x):
        # _lattice_matrix's weights W at node x
        if even:
            return w[:, None]
        k = 1.0 if op.weight is None else op.weight(x, pairs)
        return (w_pairs * k).reshape(-1, 2)

    def diag(W):
        # the near weights of both halves, one column standing for both
        return W[:near].sum() * (2 / W.shape[1]) + op.const + problem.shift

    weights = at(np.zeros(N)) if op.translation_invariant else at
    A = _lattice_matrix(grid, offs, weights, diag, toeplitz)
    sm = (_ToeplitzStiffness if toeplitz else StiffnessMatrix)(A, grid)
    if even:
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
    factorization.  The report names the factorization ("toeplitz" or "lu")
    and which computation gave sigma_min (`sigma_path`), and its timings
    split the wall time into assembly, factorization (with the condition
    estimate), sigma_min (the M-matrix certificate's two solves, or the
    inverse iteration), the solve with the factorization, and the audit
    (the residual plus the maximum-principle check).  Both residuals are
    products with sm.matvec, so a Toeplitz matrix is never formed for them.
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
        mp_audit = {"pass": True, "max_violation": 0.0, "sup_ratio": 0.0,
                    "certified": False}
    else:
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
