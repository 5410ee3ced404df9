import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logop import geometry
from logop._quadrules import polar_rule
from logop.geometry import (
    Domain,
    GridFunction,
    build_grid,
    difference_projection,
    dist_to_boundary,
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


@pytest.mark.parametrize(
    "domain, h",
    [
        (Domain.ball([0.2, -0.1], 0.7), 0.1),
        (Domain.interval(-0.3, 1.1), 0.05),
        (Domain.ball([0.23, -0.41], 0.77), 0.013),
        (Domain.box([-0.5, 0.1], [0.7, 0.45]), 0.02),
    ],
    ids=["ball", "interval", "ball-off-centre-fine", "box"],
)
def test_grid_nodes_interior_sorted_uniform(domain, h):
    # build_grid does not sort: the lattice it filters is in this order
    grid = build_grid(domain, h)
    assert np.all(grid.domain.contains(grid.nodes))
    order = np.lexsort(grid.nodes.T[::-1])  # axis 0 is the primary key
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


def test_grids_compare_and_hash_by_identity():
    domain = Domain.ball([0.0, 0.0], 1.0)
    a, b = build_grid(domain, 0.1), build_grid(domain, 0.1)
    assert (a == b) is False
    assert a == a
    assert {a: 1, b: 2}[a] == 1


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


def _padded_indices(grid):
    # flat index of every node, and of the zero difference, in the padded
    # difference table of shape 2*dims + 1
    span = tuple(2 * d + 1 for d in grid.dims)
    q = np.ravel_multi_index((grid.lattice - grid.kmin).T, span)
    return span, q, np.ravel_multi_index(grid.dims, span)


def _table(grid, projection, w):
    # the flattened padded difference table of one weight per offset
    rows, vals = projection
    size = math.prod(2 * d + 1 for d in grid.dims)
    return np.bincount(rows.reshape(-1), (vals * w[:, None]).reshape(-1), size)


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
    rows, vals = projection = difference_projection(grid, offs)
    span, q, origin = _padded_indices(grid)
    assert rows.shape == vals.shape == (len(offs), 2 ** N)
    assert np.all((rows >= 0) & (rows < math.prod(span)))
    S = _table(grid, projection, w)
    for i, x in enumerate(grid.nodes):
        idx, sw = scatter_weights(grid, x + offs)
        valid = idx >= 0
        row = np.zeros(grid.n)
        np.add.at(row, idx[valid], (w[:, None] * sw)[valid])
        assert np.max(np.abs(S[q + (origin - q[i])] - row)) <= 1e-14 * np.max(row)


@pytest.mark.parametrize(
    "domain, h",
    [
        (Domain.interval(-0.5, 0.5), 0.05),
        (Domain.ball([0.3, -0.2], 0.1), 0.02),
        (Domain.box([-0.6, -0.4], [0.4, 0.5]), 0.1),
    ],
    ids=["1d", "2d-ball", "2d-box"],
)
def test_flipped_projection_is_the_projection_of_the_mirror_images(domain, h):
    # reversing the padded table on every axis maps difference d to -d, so
    # the table of the offsets -z is that of z reversed, up to the rounding
    # of the cell fractions f and 1 - f; assembly projects one offset of
    # each mirror pair on this
    grid = build_grid(domain, h)
    rng = np.random.default_rng(17)
    N = domain.N
    rule, _, w_rule, _ = polar_rule(N, 16, 1e-12, 3.0, 128)
    offs = np.concatenate([
        rng.uniform(-1.5 * domain.diameter, 1.5 * domain.diameter, size=(400, N)),
        h * rng.integers(-5, 6, size=(40, N)),
    ])
    for Z, w in ((rule, w_rule), (offs, rng.uniform(0.1, 1.0, size=len(offs)))):
        T = _table(grid, difference_projection(grid, Z), w)
        M = _table(grid, difference_projection(grid, -Z), w)
        assert np.max(np.abs(T[::-1] - M)) <= 1e-15 * np.max(np.abs(M))


def _masked_projection(grid, offsets):
    # the projection onto the unpadded table (shape 2*dims - 1) with the
    # corners beyond +-(dims - 1) masked out, built whole
    from scipy import sparse

    dims = np.asarray(grid.dims)
    span = tuple((2 * dims - 1).tolist())
    t = np.asarray(offsets, dtype=float) / grid.h
    floor = np.floor(t)
    frac = t - floor
    base = floor.astype(np.int64) + (dims - 1)
    shifts = list(itertools.product((0, 1), repeat=grid.domain.N))
    rows = np.empty((len(t), len(shifts)), dtype=np.int64)
    vals = np.empty((len(t), len(shifts)))
    keep = np.empty((len(t), len(shifts)), dtype=bool)
    for c, shift in enumerate(shifts):
        k = base + shift
        keep[:, c] = np.all((k >= 0) & (k < span), axis=1)
        rows[:, c] = np.ravel_multi_index(k.T, span, mode="clip")
        vals[:, c] = np.prod(np.where(shift, frac, 1 - frac), axis=1)
    indptr = np.zeros(len(t) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sparse.csc_array(
        (vals[keep], rows[keep], indptr), shape=(math.prod(span), len(t))
    )


@pytest.mark.parametrize(
    "domain, h, Q",
    [
        (Domain.interval(-0.5, 0.5), 0.05, 1000),
        (Domain.interval(-0.5, 0.5), 0.05, 2 * geometry._BLOCK_OFFSETS + 123),
        (Domain.ball([0.3, -0.2], 0.1), 0.02, 1000),
        (Domain.ball([0.3, -0.2], 0.1), 0.02, 2 * geometry._BLOCK_OFFSETS + 123),
    ],
    ids=["1d-one-block", "1d-blocks", "2d-one-block", "2d-blocks"],
)
def test_difference_projection_is_the_masked_one_padded(domain, h, Q):
    # bit for bit on the interior of the padded table: the same entries in
    # the same order for every offset, the same table S of one weight per
    # offset, and the padding holds only the corners the mask dropped
    grid = build_grid(domain, h)
    rng = np.random.default_rng(Q)
    N = domain.N
    lattice = h * rng.integers(-12, 13, size=(Q // 4, N))
    offs = np.concatenate([
        rng.uniform(-domain.diameter, domain.diameter, size=(Q // 4, N)),
        rng.uniform(-40.0, 40.0, size=(Q // 4, N)),
        lattice,
        -lattice,
    ])
    offs = np.concatenate([offs, rng.uniform(-1.0, 1.0, size=(Q - len(offs), N))])
    assert len(offs) == Q
    rows, vals = projection = difference_projection(grid, offs)
    ref = _masked_projection(grid, offs)
    span, _, _ = _padded_indices(grid)
    at = np.unravel_index(rows.reshape(-1), span)
    inner = np.all([(k >= 1) & (k <= 2 * d - 1) for k, d in zip(at, grid.dims)], axis=0)
    unpadded = np.ravel_multi_index([k[inner] - 1 for k in at], [2 * d - 1 for d in grid.dims])
    assert np.array_equal(unpadded, ref.indices)
    assert np.array_equal(vals.reshape(-1)[inner].view(np.uint64), ref.data.view(np.uint64))
    per_offset = np.count_nonzero(inner.reshape(rows.shape), axis=1)
    assert np.array_equal(per_offset, np.diff(ref.indptr))
    assert np.count_nonzero(~inner) > 0

    w = rng.uniform(0.1, 1.0, size=Q)
    S = _table(grid, projection, w).reshape(span)[(slice(1, -1),) * N].ravel()
    assert np.array_equal(S.view(np.uint64), (ref @ w).view(np.uint64))


@pytest.mark.parametrize(
    "domain, h, Q",
    [
        (Domain.interval(-0.5, 0.5), 0.05, 2 * geometry._BLOCK_OFFSETS + 123),
        (Domain.ball([0.3, -0.2], 0.1), 0.02, 2 * geometry._BLOCK_OFFSETS + 123),
    ],
    ids=["1d", "2d"],
)
def test_projected_tables_are_the_sparse_products(domain, h, Q):
    # np.bincount per weight column adds offset by offset and corner by
    # corner, as scipy's csc_matvec does, so assembly's table is the sparse
    # product bit for bit, with the weights negated as assembly negates them
    from scipy import sparse

    grid = build_grid(domain, h)
    rng = np.random.default_rng(Q + 1)
    offs = rng.uniform(-domain.diameter, domain.diameter, size=(Q, domain.N))
    rows, vals = difference_projection(grid, offs)
    np.negative(vals, out=vals)
    span, _, _ = _padded_indices(grid)
    indptr = np.arange(0, rows.size + 1, rows.shape[1])
    P = sparse.csc_array((vals.ravel(), rows.ravel(), indptr), shape=(math.prod(span), Q))
    W = rng.uniform(0.1, 1.0, size=(Q, 2))
    ref = P @ W
    for c, w in enumerate(W.T):
        T = _table(grid, (rows, vals), w)
        assert np.array_equal(T.view(np.uint64), ref[:, c].view(np.uint64))


def test_difference_projection_refuses_nonfinite_offsets():
    grid = build_grid(Domain.ball([0.0, 0.0], 0.1), 0.02)
    offs = np.zeros((10, 2))
    offs[7, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        difference_projection(grid, offs)


def test_difference_projection_peak_memory_is_its_output():
    # built in blocks: beyond its two arrays the temporaries take about 8 doubles
    # per offset of one block in 2-D, not per offset of the whole rule
    grid = build_grid(Domain.ball([0.0, 0.0], 0.25), 0.02)
    Q = 12 * geometry._BLOCK_OFFSETS
    offs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, Q)).T  # column-major
    tracemalloc.start()
    try:
        rows, vals = difference_projection(grid, offs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = rows.nbytes + vals.nbytes
    assert peak <= output + 16 * 8 * geometry._BLOCK_OFFSETS


def test_interpolation_reproduces_linear_functions():
    # multilinear interpolation is exact on affine data away from the boundary
    grid = build_grid(Domain.box([-1.0, -1.0], [1.0, 1.0]), 0.25)
    f = lambda p: 0.3 * p[:, 0] - 0.7 * p[:, 1] + 0.1
    u = GridFunction(grid, f(grid.nodes))
    pts = np.random.default_rng(2).uniform(-0.6, 0.6, size=(30, 2))
    assert np.allclose(interpolate_many(u, pts), f(pts), atol=1e-12)


def test_interpolation_reproduces_bilinear_functions_inside_a_ball():
    # exact wherever all four corners of the cell are nodes; the corners are
    # located here from the lattice, not through geometry's cell code
    domain = Domain.ball([0.23, -0.41], 0.77)
    grid = build_grid(domain, 0.07)
    f = lambda p: 0.4 - 1.3 * p[:, 0] + 0.6 * p[:, 1] + 2.1 * p[:, 0] * p[:, 1]
    u = GridFunction(grid, f(grid.nodes))
    pts = np.random.default_rng(8).uniform(domain.lo, domain.hi, size=(4000, 2))
    low = np.floor((pts - domain.center) / grid.h)
    inside = np.ones(len(pts), dtype=bool)
    for shift in itertools.product((0, 1), repeat=2):
        inside &= domain.contains(domain.center + grid.h * (low + shift))
    pts = pts[inside]
    assert len(pts) > 1000
    assert np.max(np.abs(interpolate_many(u, pts) - f(pts))) <= 1e-14
