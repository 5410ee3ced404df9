import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logop.geometry import (
    Domain,
    GridFunction,
    build_grid,
    difference_projection,
    dist_to_boundary,
    exterior_ball_radius,
    interpolate,
    interpolate_many,
    scatter_weights,
)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_domain_constructors_and_validation():
    with pytest.raises(ValueError):
        Domain("pentagon")
    with pytest.raises(ValueError):
        Domain.interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain.ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Domain.box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Domain.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])  # only N in {1, 2}


def test_domain_membership_is_open():
    ball = Domain.ball([0.0, 0.0], 1.0)
    assert ball.contains(np.array([0.5, 0.0]))
    assert not ball.contains(np.array([1.0, 0.0]))  # boundary excluded
    box = Domain.box([-1.0, -1.0], [1.0, 1.0])
    inside = box.contains(np.array([[0.0, 0.0], [1.0, 0.5], [0.9, -0.9]]))
    assert list(inside) == [True, False, True]


def test_dist_to_boundary_reference_values():
    assert dist_to_boundary(Domain.ball([0.0], 1.0), np.array([0.0])) == 1.0
    assert dist_to_boundary(Domain.interval(-1.0, 1.0), np.array([0.25])) == 0.75
    assert dist_to_boundary(
        Domain.box([-1.0, -1.0], [1.0, 1.0]), np.array([0.9, 0.0])
    ) == pytest.approx(0.1)
    # exterior points measure distance back to the boundary
    assert dist_to_boundary(Domain.interval(-1.0, 1.0), np.array([2.0])) == 1.0
    assert dist_to_boundary(
        Domain.box([0.0, 0.0], [1.0, 1.0]), np.array([2.0, 2.0])
    ) == pytest.approx(math.sqrt(2.0))


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
def test_dist_to_boundary_is_1_lipschitz(x, y):
    dom = Domain.ball([0.0], 1.0)
    dx = dist_to_boundary(dom, np.array([x]))
    dy = dist_to_boundary(dom, np.array([y]))
    assert abs(dx - dy) <= abs(x - y) + 1e-12


def test_exterior_ball_radius_unbounded_for_convex_shapes():
    assert exterior_ball_radius(Domain.ball([0.0], 0.5)) == math.inf
    assert exterior_ball_radius(Domain.interval(0.0, 1.0)) == math.inf
    assert exterior_ball_radius(Domain.box([0.0, 0.0], [1.0, 2.0])) == math.inf


def test_boundary_point_lies_on_boundary():
    for dom in (
        Domain.interval(-1.0, 2.0),
        Domain.ball([0.5, 0.5], 0.75),
        Domain.box([-1.0, 0.0], [1.0, 3.0]),
    ):
        p = dom.boundary_point()
        assert dist_to_boundary(dom, p) == pytest.approx(0.0, abs=1e-14)


def test_max_reach():
    assert Domain.ball([0.0], 1.0).max_reach(np.array([0.5])) == pytest.approx(1.5)
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    assert box.max_reach(np.array([0.0, 0.0])) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize(
    "dom",
    [
        Domain.interval(-1.0, 2.0),
        Domain.ball([0.5, -0.25], 0.75),
        Domain.box([-1.0, 0.0], [1.0, 3.0]),
    ],
    ids=["interval", "ball", "box"],
)
def test_max_reach_batch_matches_per_point(dom):
    pts = np.random.default_rng(5).uniform(-2.0, 4.0, size=(40, dom.N))
    batch = dom.max_reach(pts)
    assert batch.shape == (40,)
    assert np.array_equal(batch, [dom.max_reach(p) for p in pts])
    if dom.shape == "ball":
        brute = np.linalg.norm(pts - dom.center_pt, axis=1) + dom.radius
    else:  # the farthest of all corners
        corners = np.array(list(itertools.product(*zip(dom.lo, dom.hi))))
        brute = np.max(np.linalg.norm(corners[None] - pts[:, None], axis=2), axis=1)
    assert np.allclose(batch, brute, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_build_grid_interval_nodes():
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.4)
    assert np.allclose(grid.nodes[:, 0], [-0.8, -0.4, 0.0, 0.4, 0.8])


def test_build_grid_2d_ball_node_count():
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0), 0.4)
    # lattice points 0.4*(i, j) with i^2 + j^2 < 6.25
    assert grid.n == 21
    got = {tuple(np.round(p / 0.4).astype(int)) for p in grid.nodes}
    assert (0, 0) in got and (2, 1) in got and (2, 2) not in got
    assert all(i * i + j * j < 6.25 for i, j in got)


def test_build_grid_resolution_guard():
    with pytest.raises(ValueError):
        build_grid(Domain.interval(0.0, 1.0), 0.25)  # h >= diam/4
    with pytest.raises(ValueError):
        build_grid(Domain.interval(0.0, 1.0), 0.0)


def test_grid_nodes_interior_sorted_uniform():
    grid = build_grid(Domain.ball([0.2, -0.1], 0.7), 0.1)
    assert np.all(grid.domain.contains(grid.nodes))
    order = np.lexsort((grid.nodes[:, 1], grid.nodes[:, 0]))
    assert np.array_equal(order, np.arange(grid.n))
    # all pairwise gaps along each axis are integer multiples of h
    rel = (grid.nodes - grid.nodes[0]) / grid.h
    assert np.allclose(rel, np.round(rel), atol=1e-9)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_at_nodes_and_outside():
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.25)
    u = GridFunction(grid, np.sin(grid.nodes[:, 0]))
    for k in range(grid.n):
        assert interpolate(u, grid.nodes[k]) == pytest.approx(u.values[k], abs=1e-15)
    assert interpolate(u, np.array([1.3])) == 0.0  # beyond the domain by > h
    assert u(np.array([-2.0])) == 0.0


def test_interpolate_linear_between_nodes():
    # nodes at 0 and 0.5 among others; values chosen so midpoint gives 2
    grid = build_grid(Domain.interval(-1.0, 2.0), 0.5)
    values = np.zeros(grid.n)
    values[np.isclose(grid.nodes[:, 0], 0.0)] = 1.0
    values[np.isclose(grid.nodes[:, 0], 0.5)] = 3.0
    u = GridFunction(grid, values)
    assert interpolate(u, np.array([0.25])) == pytest.approx(2.0, abs=1e-14)


def test_interpolate_many_matches_single():
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0), 0.2)
    rng = np.random.default_rng(5)
    u = GridFunction(grid, rng.normal(size=grid.n))
    pts = rng.uniform(-1.2, 1.2, size=(40, 2))
    batch = interpolate_many(u, pts)
    single = [interpolate(u, p) for p in pts]
    assert np.allclose(batch, single, atol=1e-15)


def test_interpolation_zero_exterior_contract():
    grid = build_grid(Domain.ball([0.0, 0.0], 0.5), 0.1)
    u = GridFunction(grid, np.ones(grid.n))
    far = np.array([[0.0, 0.7], [2.0, 2.0], [-0.7, 0.0]])
    assert np.allclose(interpolate_many(u, far), 0.0)


def test_grid_function_length_check():
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.25)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(grid.n + 1))


def test_scatter_weights_partition_of_unity():
    grid = build_grid(Domain.ball([0.0, 0.0], 1.0), 0.2)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.9, 0.9, size=(60, 2))
    idx, wts = scatter_weights(grid, pts)
    assert np.allclose(wts.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(wts >= -1e-15)
    # reconstruction agrees with interpolation (holes contribute zero)
    u = GridFunction(grid, rng.normal(size=grid.n))
    vals = np.where(idx >= 0, u.values[np.maximum(idx, 0)], 0.0)
    assert np.allclose((vals * wts).sum(axis=1), interpolate_many(u, pts), atol=1e-13)


@pytest.mark.parametrize(
    "domain, h",
    [(Domain.interval(-0.5, 0.5), 0.05), (Domain.ball([0.3, -0.2], 0.1), 0.02)],
    ids=["1d", "2d"],
)
def test_difference_projection_matches_scatter_weights(domain, h):
    grid = build_grid(domain, h)
    rng = np.random.default_rng(13)
    N = domain.N
    # offsets well inside, beyond the grid's span, and on lattice points
    offs = np.concatenate([
        rng.uniform(-1.5 * domain.diameter, 1.5 * domain.diameter, size=(400, N)),
        h * rng.integers(-5, 6, size=(40, N)),
    ])
    w = rng.uniform(0.1, 1.0, size=len(offs))
    P = difference_projection(grid, offs)
    span = tuple(2 * d - 1 for d in grid.dims)
    assert P.shape == (math.prod(span), len(offs))
    assert np.all(np.diff(P.indptr) <= 2 ** N)
    S = P @ w
    q = np.ravel_multi_index((grid.lattice - grid.kmin).T, span)
    origin = np.ravel_multi_index(tuple(d - 1 for d in grid.dims), span)
    for i, x in enumerate(grid.nodes):
        idx, sw = scatter_weights(grid, x + offs)
        valid = idx >= 0
        row = np.zeros(grid.n)
        np.add.at(row, idx[valid], (w[:, None] * sw)[valid])
        assert np.max(np.abs(S[q + (origin - q[i])] - row)) <= 1e-14 * np.max(row)


def test_interpolation_reproduces_linear_functions():
    # multilinear interpolation is exact on affine data away from the boundary
    grid = build_grid(Domain.box([-1.0, -1.0], [1.0, 1.0]), 0.25)
    f = lambda p: 0.3 * p[:, 0] - 0.7 * p[:, 1] + 0.1
    u = GridFunction(grid, f(grid.nodes))
    pts = np.random.default_rng(2).uniform(-0.6, 0.6, size=(30, 2))
    assert np.allclose(interpolate_many(u, pts), f(pts), atol=1e-12)
