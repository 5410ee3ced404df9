"""Symmetric Toeplitz algebra through one circulant embedding.

The n x n symmetric Toeplitz matrix T with first column c (a 1-D Dirichlet
matrix of a translation-invariant operator) is the leading block of a
circulant of size m >= 2n - 1, and so is a lower-triangular Toeplitz
matrix: every product here is one `Embedding.apply`.  On it rest the
circulant-preconditioned MINRES `generator` of x = T^-1 e_1 (Chan and Jin,
An Introduction to Iterative Toeplitz Solvers, SIAM 2007) and the
Gohberg-Semencul `Factor`, O(n log n) with no n x n array.  Only numpy is
imported: numpy.fft, never scipy.fft.
"""

from __future__ import annotations

import math

import numpy as np

# a factor is kept when a probe solve's normwise backward error is at most
# BACKWARD_TOL (measured up to 4.7e-16 on the 1-D catalog operators, the
# wide log-Laplacian and shifts past lambda_1 at n <= 2000, LU up to 2e-14)
BACKWARD_TOL = 1e-11
# the generator's MINRES takes 9-15 iterations on those matrices and 17-26
# at sigma_min = 1e-8 to 1e-10 times the 1-norm; a singular matrix stalls
MAX_ITERATIONS = 40
PRECONDITIONER_FLOOR = 1e-10  # least |eigenvalue| / largest the generator takes


class Embedding:
    """Circulant embedding of n x n Toeplitz matrices, of size m the power
    of two above 2n - 1, so no product wraps around."""

    def __init__(self, n):
        self.n = n
        self.m = 1 << (2 * n - 1).bit_length()

    def apply(self, S, v):
        """The first n entries of irfft(S * rfft(v, m), m) over the last axis
        of S: v times the leading block of the circulant with spectrum S."""
        m = self.m
        # rfft allocating its own output takes ~1 us longer at m = 1024
        V = np.fft.rfft(v, m, out=np.empty(m // 2 + 1, complex))
        return np.fft.irfft(S * V, m)[..., :self.n]


def row_sums(c):
    """Row sums of toeplitz(c): row i sums c[0..i] and c[1..n-1-i]."""
    p = np.cumsum(c)
    return p + p[::-1] - c[0]


def norm1(c):
    """1-norm of toeplitz(c) in O(n)."""
    return float(np.max(row_sums(np.abs(c))))


class Factor:
    """Inverse of T - shift*I, T symmetric Toeplitz with this first column,
    by Gohberg-Semencul: T^-1 = (L(x) L(x)^T - L(ZJx) L(ZJx)^T) / x[0] with
    x = T^-1 e_1 from `generator`, L(v) lower-triangular Toeplitz with first
    column v, J the reversal and Z the down-shift (ZJx = [0, x[n-1], ...,
    x[1]]), and L(v)^T b = J L(v) J b.  Raises np.linalg.LinAlgError when
    the generator does, when x[0] is 0, or when a probe solve's normwise
    backward error exceeds BACKWARD_TOL."""

    name = "toeplitz"
    singular = False
    symmetric = True  # solve(b, trans=True) is solve(b)

    def __init__(self, column, shift=0.0):
        self.embedding = embedding = Embedding(len(column))
        n, m = embedding.n, embedding.m
        # the even circulant embeddings of T - shift*I and of its taper
        # (1 - k/n) c_k, whose spectra are real
        embedded = np.zeros((2, m))
        embedded[0, :n] = column
        embedded[0, 0] -= shift
        column = embedded[0, :n]
        embedded[1, :n] = column * (1.0 - np.arange(n) / n)
        embedded[:, m - n + 1:] = embedded[:, n - 1:0:-1]
        F, taper = np.fft.rfft(embedded).real
        x, self.iterations = generator(embedding, F, taper)
        if not x[0] != 0.0:
            raise np.linalg.LinAlgError("first entry of the generator is 0")
        # the spectra of x and ZJx, plain and scaled for solve's last stage
        XY = np.fft.rfft(np.stack((x, np.concatenate(([0.0], x[:0:-1])))), m)
        self.XY, self.XY_last = XY, XY * [[1.0 / x[0]], [-1.0 / x[0]]]
        b = np.random.default_rng(7).standard_normal(n)
        with np.errstate(all="ignore"):
            y = self.solve(b)
            r = embedding.apply(F, y) - b
            scale = norm1(column) * np.max(np.abs(y)) + np.max(np.abs(b))
            backward = np.max(np.abs(r)) / scale
        if not backward <= BACKWARD_TOL:
            raise np.linalg.LinAlgError(f"Toeplitz probe backward error {backward:.3g}")

    def solve(self, b, trans=False):
        """T^-1 b; the last stage sums two spectra before its one irfft."""
        m = self.embedding.m
        st = np.fft.rfft(self.embedding.apply(self.XY, b[::-1])[:, ::-1], m)
        return np.fft.irfft(np.sum(self.XY_last * st, axis=0), m)[:self.embedding.n]


def generator(embedding, F, G):
    """x = T^-1 e_1 and the iteration count, by MINRES (Paige and Saunders,
    SIAM J. Numer. Anal. 12, 1975); T v = embedding.apply(F, v).  G, the
    eigenvalues of the circulant of the tapered column (1 - k/n) c_k, are
    Fejer means of T's symbol and Rayleigh quotients of T, in
    [lambda_min(T), lambda_max(T)]; the leading block of the inverse of the
    circulant with eigenvalues |G| preconditions, positive definite for
    indefinite T too.  MINRES stops when its residual estimate in the
    preconditioner's norm has fallen to eps times its start; x is formed
    from the Lanczos vectors kept a row each.  Raises np.linalg.LinAlgError
    when some |G| is not above PRECONDITIONER_FLOOR times the largest, on a
    breakdown, or after MAX_ITERATIONS steps (a singular T stalls)."""
    G = np.abs(G)
    if not np.min(G) > PRECONDITIONER_FLOOR * np.max(G):
        raise np.linalg.LinAlgError("circulant preconditioner is near singular")
    n, cap, apply = embedding.n, MAX_ITERATIONS, embedding.apply
    # complex copies: faster than numpy's mixed real-by-complex product
    F, P = F.astype(complex), (1.0 / G).astype(complex)
    V = np.empty((cap, n))  # Lanczos vectors, a row per step; later rows untouched
    R = np.zeros((3, cap + 2))  # the rotated tridiagonal: diagonal and two above it
    phi = np.empty(cap)
    r_old, r = np.zeros(n), np.eye(1, n)[0]
    z = apply(P, r)  # the preconditioned e_1
    beta = beta1 = math.sqrt(z[0])
    beta_old, cs, sn, dbar, eps_next, phibar = 1.0, -1.0, 0.0, 0.0, 0.0, beta1
    tol = np.finfo(float).eps * beta1
    for k in range(cap):
        v = np.multiply(z, 1.0 / beta, out=V[k])
        z = apply(F, v)
        z -= (beta / beta_old) * r_old
        alpha = float(np.dot(v, z))
        z -= (alpha / beta) * r
        r_old, r = r, z
        z = apply(P, r)
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
    return y[:k] @ V[:k], k
