import math

import numpy as np
import pytest
import scipy.special

# The acceptance module records one verdict line per criterion here so the
# lines always show up in the terminal summary, whether or not capture is on.
ACCEPTANCE_LINES = []


def record_criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def toeplitz_at_any_n(monkeypatch):
    """The Toeplitz factor for 1-D Toeplitz matrices of every size, so that
    tests on small grids exercise it (solver.TOEPLITZ_MIN_N gives those to
    LU)."""
    from logop import solver

    monkeypatch.setattr(solver, "TOEPLITZ_MIN_N", 0)


# Spectral oracle: L u = F^-1(m F u) for the symbols m = 2 ln|xi| of the
# logarithmic Laplacian (Chen & Weth, CPDE 2019) and ln(1 + |xi|^2) of the
# logarithmic Schrodinger operator (I - Delta)^log.  For the Gaussian
# u = exp(-|y|^2 / (2 sigma^2)) the transform is sigma sqrt(2 pi)
# exp(-(sigma xi)^2 / 2) in 1-D and 2 pi sigma^2 exp(-(sigma |xi|)^2 / 2) in
# 2-D; the inversion integral runs on 30-point Gauss-Legendre panels,
# log-graded on [0, 1] and uniform on [1, 40].  It shares nothing with the
# polar rule, the operator records or the constants c_N and rho_N.
_GL_T, _GL_W = np.polynomial.legendre.leggauss(30)
_XI_EDGES = np.concatenate(([0.0], np.logspace(-14, 0, 15), np.arange(2.0, 41.0)))
_XI = ((_XI_EDGES[:-1, None] + _XI_EDGES[1:, None]) / 2
       + np.diff(_XI_EDGES)[:, None] / 2 * _GL_T).ravel()
_XI_W = (np.diff(_XI_EDGES)[:, None] / 2 * _GL_W).ravel()


def spectral(symbol, sigma, r, N):
    """L u at a point at distance r from 0, u the Gaussian of width sigma."""
    damp = np.exp(-((sigma * _XI) ** 2) / 2)
    if N == 1:
        uhat = sigma * math.sqrt(2 * math.pi) * damp
        return float(np.dot(_XI_W, symbol(_XI) * uhat * np.cos(_XI * r))) / math.pi
    uhat = 2 * math.pi * sigma ** 2 * damp
    radial = symbol(_XI) * uhat * scipy.special.j0(_XI * r) * _XI
    return float(np.dot(_XI_W, radial)) / (2 * math.pi)
