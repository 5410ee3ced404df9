import ast
import math
import pathlib

import numpy as np
import pytest

from logop import geometry, regularity
from logop.geometry import Domain, GridFunction, build_grid
from logop.logmod import ell
from logop.regularity import estimate_regularity, fit_exponent, fit_second_order_exponent


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------


def test_fit_exponent_recovers_generator():
    radii = [0.08 / 2 ** k for k in range(6)]
    assert fit_exponent(radii, ell(np.array(radii), 0.5)) == pytest.approx(0.5, abs=1e-9)
    assert fit_exponent(radii, ell(np.array(radii), 1.0)) == pytest.approx(1.0, abs=1e-9)


def test_fit_exponent_with_multiplicative_noise():
    rng = np.random.default_rng(42)
    radii = np.array([0.08 / 2 ** k for k in range(6)])
    osc = ell(radii, 0.5) * (1.0 + 0.05 * rng.uniform(-1, 1, size=len(radii)))
    assert fit_exponent(radii, osc) == pytest.approx(0.5, abs=0.05)


def test_fit_exponent_needs_three_usable_points():
    with pytest.raises(ValueError):
        fit_exponent([0.5, 0.2, 0.04], [1.0, 1.0, 1.0])  # two are above the cutoff
    with pytest.raises(ValueError):
        fit_exponent([0.05, 0.02], [0.1, 0.05])


def _interval_grid_function(profile, h=0.0005, half=1.0):
    dom = geometry.Domain.interval(-half, half)
    grid = geometry.build_grid(dom, h)
    return geometry.GridFunction(grid, profile(grid.nodes[:, 0]))


def test_second_order_fit_parabola_saturates():
    u = _interval_grid_function(lambda x: 3.0 * x ** 2)
    gamma = fit_second_order_exponent(u, np.array([0.0]), [0.08, 0.04, 0.02, 0.01])
    # second differences of a parabola are O(eps^2): smoother than ell^gamma
    # for every exponent of interest
    assert gamma > 3.0


def test_second_order_fit_flat_reports_inf():
    u = _interval_grid_function(lambda x: np.full_like(x, 7.0))
    gamma = fit_second_order_exponent(u, np.array([0.0]), [0.08, 0.04, 0.02])
    assert gamma == math.inf


def test_second_order_fit_recovers_modulus_power():
    u = _interval_grid_function(
        lambda x: ell(np.maximum(np.abs(x), 1e-300), 1.3)
    )
    gamma = fit_second_order_exponent(
        u, np.array([0.0]), [0.08, 0.04, 0.02, 0.01, 0.005]
    )
    assert gamma == pytest.approx(1.3, abs=0.1)


def test_second_order_fit_rejects_radii_outside_domain():
    u = _interval_grid_function(lambda x: x, h=0.01, half=0.5)
    with pytest.raises(ValueError):
        fit_second_order_exponent(u, np.array([0.4]), [0.2, 0.1, 0.05])


def _second_order_reference(u, center, radii):
    """fit_second_order_exponent as a loop over radii, three interpolations
    per radius: the oracle for the single batched interpolation."""
    center = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    dirs = regularity._DIRECTIONS[u.grid.domain.N]
    second = []
    for eps in radii:
        vp = geometry.interpolate_many(u, center + eps * dirs)
        vm = geometry.interpolate_many(u, center - eps * dirs)
        v0 = geometry.interpolate(u, center)
        second.append(float(np.max(np.abs(vp + vm - 2 * v0))))
    second = np.asarray(second)
    scale = max(1.0, float(np.max(np.abs(u.values))))
    if np.all(second <= 1e-14 * scale):
        return math.inf
    return fit_exponent(radii, second)


_ORACLE_DOMAINS = {
    "interval": (Domain.interval(-0.5, 0.5), 0.001),
    "short-interval": (Domain.interval(-0.1, 0.1), 0.0005),
    "small-ball": (Domain.ball([0.05, 0.0], 0.1), 0.004),
    "ball": (Domain.ball([0.0, 0.0], 0.3), 0.01),
    "off-centre-ball": (Domain.ball([0.2, -0.1], 0.3), 0.01),
    "box": (Domain.box([-0.3, -0.2], [0.3, 0.4]), 0.01),
}

_ORACLE_PROFILES = {
    "smooth": lambda x, d: 3.0 * np.sum(x ** 2, axis=1) + x[:, 0],
    "ell-half-d": lambda x, d: ell(np.maximum(d, 1e-300), 0.5),
    "ell-radial": lambda x, d: ell(np.maximum(np.linalg.norm(x, axis=1), 1e-300), 1.3),
    "random": lambda x, d: np.random.default_rng(7).uniform(-1.0, 1.0, len(x)),
    "flat": lambda x, d: np.full(len(x), 7.0),
}


@pytest.mark.parametrize("profile", sorted(_ORACLE_PROFILES))
@pytest.mark.parametrize("domain", sorted(_ORACLE_DOMAINS))
def test_second_order_fit_matches_per_radius_loop(domain, profile):
    dom, h = _ORACLE_DOMAINS[domain]
    grid = build_grid(dom, h)
    x = grid.nodes - dom.center
    d = geometry.dist_to_boundary(dom, grid.nodes)
    u = GridFunction(grid, _ORACLE_PROFILES[profile](x, d))
    top = min(0.08, 0.45 * float(geometry.dist_to_boundary(dom, dom.center)))
    radii = [top / 2 ** k for k in range(5)]
    for center in (dom.center, dom.center + 0.01):
        want = _second_order_reference(u, center, radii)
        assert fit_second_order_exponent(u, center, radii) == want
        assert want == math.inf or profile != "flat"


# ---------------------------------------------------------------------------
# the three exponents of a grid function
# ---------------------------------------------------------------------------


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


def test_estimate_regularity_names_the_fit_when_every_oscillation_vanishes():
    # the solution of rhs const(0): every ball oscillation is zero, so no
    # scale survives the fit's filter although there are enough radii
    grid = build_grid(Domain.interval(-0.5, 0.5), 0.001)
    u = GridFunction(grid, np.zeros(grid.n))
    with pytest.raises(
        ValueError,
        match=r"insufficient scales for the global oscillation fit \(rhs 'const\(0\)'\)",
    ):
        estimate_regularity(u, "const(0)")


def test_estimate_regularity_names_the_interior_fit_when_some_scales_vanish():
    # |x - 0.03| is linear within 0.03 of the centre: the second differences
    # at the four scales below 0.03 vanish, those at 0.04 and 0.08 do not,
    # so only two scales survive the interior fit's filter
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.001)
    u = GridFunction(grid, np.abs(grid.nodes[:, 0] - 0.03))
    with pytest.raises(
        ValueError, match=r"insufficient scales for the interior fit \(rhs 'kink'\)"
    ):
        estimate_regularity(u, "kink")


# ---------------------------------------------------------------------------
# module boundaries
# ---------------------------------------------------------------------------


def _imports(tree):
    """Modules a syntax tree imports; `from . import x` counts as `.x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            found.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + node.module)
    return found


def _names_polyfit(tree):
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "polyfit")
        or (isinstance(node, ast.Name) and node.id == "polyfit")
        or (isinstance(node, ast.alias) and node.name == "polyfit")
        for node in ast.walk(tree)
    )


def test_fits_live_in_regularity_alone():
    # logmod is the modulus alone, solver only solves, and every least-squares
    # slope of the package is regularity.slope.  Code only, read from the
    # syntax tree, so docstrings may name them
    package = pathlib.Path(regularity.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert len(trees) >= 11
    assert _imports(trees["logmod"]) <= {"__future__", "math", "numpy"}
    assert not any("regularity" in name.split(".") for name in _imports(trees["solver"]))
    assert {name for name, tree in trees.items() if _names_polyfit(tree)} == {"regularity"}
