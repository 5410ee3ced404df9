import ast
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla

from logop import _toeplitz

SIZES = [1, 2, 3, 17, 240, 241]


def _even_spectrum(c, m):
    """Spectrum of the even circulant of size m whose first column starts
    with c: the leading n x n block of that circulant is toeplitz(c)."""
    n = len(c)
    embedded = np.zeros(m)
    embedded[:n] = c
    embedded[m - n + 1:] = c[n - 1:0:-1]
    return np.fft.rfft(embedded)


@pytest.mark.parametrize("n", SIZES)
def test_embedding_apply_is_the_toeplitz_product(n):
    rng = np.random.default_rng(n)
    c, x, v = rng.standard_normal((3, n))
    embedding = _toeplitz.Embedding(n)
    m = embedding.m
    assert m >= 2 * n - 1 and m & (m - 1) == 0
    products = [
        (embedding.apply(_even_spectrum(c, m), v), sla.toeplitz(c) @ v, c),
        (embedding.apply(np.fft.rfft(x, m), v),
         sla.toeplitz(x, np.eye(1, n)[0] * x[0]) @ v, x),  # lower-triangular L(x)
    ]
    for fast, dense, column in products:
        assert fast.shape == (n,)
        assert np.max(np.abs(fast - dense)) <= 1e-14 * np.sum(np.abs(column)) * np.max(np.abs(v))
    # a stack of spectra gives a stack of products, one per row
    stacked = embedding.apply(np.stack((_even_spectrum(c, m), np.fft.rfft(x, m))), v)
    assert np.array_equal(stacked, np.stack([fast for fast, _, _ in products]))


@pytest.mark.parametrize("n", SIZES)
def test_row_sums_and_norm1_match_the_dense_matrix(n):
    rng = np.random.default_rng(n)
    # integers: every sum is exact, so the two orders agree bit for bit
    c = rng.integers(-50, 50, n).astype(float)
    T = sla.toeplitz(c)
    assert np.array_equal(_toeplitz.row_sums(c), T.sum(axis=1))
    assert _toeplitz.norm1(c) == np.linalg.norm(T, 1)
    c = rng.standard_normal(n)
    T = sla.toeplitz(c)
    scale = n * np.finfo(float).eps * np.sum(np.abs(c))
    assert np.max(np.abs(_toeplitz.row_sums(c) - T.sum(axis=1))) <= scale
    assert _toeplitz.norm1(c) == pytest.approx(np.linalg.norm(T, 1), rel=0, abs=scale)


def _fft_uses(tree):
    """Source of every `.fft` attribute and every import naming fft."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            found.add(ast.unparse(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("fft" in name.split(".") for name in names):
                found.add(ast.unparse(node))
    return sorted(found)


def test_only_toeplitz_calls_numpy_fft():
    # one circulant embedding: the package's FFTs are all in _toeplitz.
    # Code only, read from the syntax tree, so docstrings may name np.fft
    package = pathlib.Path(_toeplitz.__file__).parent
    uses = {path.name: _fft_uses(ast.parse(path.read_text())) for path in package.glob("*.py")}
    assert len(uses) >= 10
    assert uses.pop("_toeplitz.py") == ["np.fft"]
    assert {name: found for name, found in uses.items() if found} == {}


def test_toeplitz_imports_numpy_alone():
    # nothing from logop, nothing from scipy
    tree = ast.parse(pathlib.Path(_toeplitz.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "math", "numpy"}
