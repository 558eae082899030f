import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase.mesh import (
    ScalarField,
    boundary_mask,
    build_grid,
    cell_average_adjoint,
    cell_average_values,
    form_apply,
    form_factor,
    form_solve,
    gradient_adjoint,
    gradient_form,
    gradient_values,
    integrate_cells,
    magnitude,
    squared_norm,
)


def test_build_grid_1d():
    g = build_grid(1, [(0, 1)], [4])
    assert g.n_nodes == 5
    assert g.n_cells == 4
    assert g.cell_size == (0.25,)
    assert g.cell_volume == 0.25


def test_build_grid_2d():
    g = build_grid(2, [(0, 1), (0, 2)], [2, 4])
    assert g.n_nodes == 15
    assert g.n_cells == 8
    assert g.cell_volume == pytest.approx(0.25)


def test_degenerate_extent():
    with pytest.raises(ValueError, match="degenerate extent"):
        build_grid(1, [(0, 0)], [4])
    # hi - lo overflows: every cell size would be infinite
    with pytest.raises(ValueError, match="degenerate extent"):
        build_grid(1, [(-1e308, 1e308)], [4])
    with pytest.raises(ValueError, match="resolution"):
        build_grid(1, [(0, 1)], [1])
    with pytest.raises(ValueError, match="integral"):
        build_grid(1, [(0, 1)], [8.7])
    # each side 2.5e-301 is positive, but their product underflows
    with pytest.raises(ValueError, match="cell volume .* underflows to 0"):
        build_grid(2, [(0, 1e-300)] * 2, [4, 4])


def _former_axes(grid, centers):
    """The per-axis construction node_coords and cell_centers used to call."""
    axes = []
    for axis in range(grid.dim):
        lo, hi = grid.extents[axis]
        if centers:
            axes.append(lo + grid.cell_size[axis] * (np.arange(grid.resolution[axis]) + 0.5))
        else:
            axes.append(np.linspace(lo, hi, grid.resolution[axis] + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@pytest.mark.parametrize(
    "dim,extents,resolution",
    [(1, [(-0.3, 1.7)], [37]), (2, [(0.1, 1.0), (-2.5, 3.3)], [7, 12])],
    ids=["1D", "2D"],
)
def test_lattices_keep_the_per_axis_bytes(dim, extents, resolution):
    g = build_grid(dim, extents, resolution)
    nodes, centers = g.node_coords(), g.cell_centers()
    assert nodes.shape == (g.n_nodes, dim) and centers.shape == (g.n_cells, dim)
    assert nodes.tobytes() == _former_axes(g, centers=False).tobytes()
    assert centers.tobytes() == _former_axes(g, centers=True).tobytes()


def test_gradient_linear_1d():
    g = build_grid(1, [(0, 1)], [7])
    u = ScalarField(g, g.node_coords()[:, 0])
    gv = gradient_values(g, u.values)
    assert np.allclose(gv, 1.0)


def test_gradient_constant_zero():
    g = build_grid(2, [(0, 1), (0, 1)], [3, 5])
    u = ScalarField(g, np.full(g.n_nodes, 3.7))
    assert np.all(gradient_values(g, u.values) == 0.0)


def test_gradient_multilinear_2d():
    g = build_grid(2, [(0, 1), (0, 2)], [4, 6])
    xy = g.node_coords()
    u = ScalarField(g, xy[:, 0] + 2.0 * xy[:, 1])
    gv = gradient_values(g, u.values)
    assert np.allclose(gv[:, 0], 1.0)
    assert np.allclose(gv[:, 1], 2.0)
    # bilinear term x*y is differentiated exactly at cell centers
    v = ScalarField(g, xy[:, 0] * xy[:, 1])
    gw = gradient_values(g, v.values)
    centers = g.cell_centers()
    assert np.allclose(gw[:, 0], centers[:, 1])
    assert np.allclose(gw[:, 1], centers[:, 0])


def test_gradient_is_linear():
    g = build_grid(2, [(0, 1), (0, 1)], [5, 4])
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.n_nodes)
    v = rng.normal(size=g.n_nodes)
    a, b = 2.5, -1.25
    lhs = gradient_values(g, a * u + b * v)
    rhs = a * gradient_values(g, u) + b * gradient_values(g, v)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_integrate_ones_unit_square():
    g = build_grid(2, [(0, 1), (0, 1)], [8, 8])
    assert integrate_cells(g, np.ones(g.n_cells)) == pytest.approx(1.0)


def test_integrate_affine_exact():
    # midpoint rule integrates affine functions exactly
    for n in (2, 5, 64):
        g = build_grid(1, [(0, 1)], [n])
        c = g.cell_centers()[:, 0]
        assert integrate_cells(g, c) == pytest.approx(0.5, abs=1e-14)


def test_integrate_sine():
    g = build_grid(1, [(0, 1)], [64])
    c = np.sin(np.pi * g.cell_centers()[:, 0])
    assert abs(integrate_cells(g, c) - 2.0 / np.pi) < 1e-4


def test_integrate_monotone_and_linear():
    g = build_grid(1, [(0, 1)], [16])
    rng = np.random.default_rng(3)
    c = np.abs(rng.normal(size=g.n_cells))
    assert integrate_cells(g, c) >= 0.0
    d = rng.normal(size=g.n_cells)
    lhs = integrate_cells(g, 2.0 * c - 3.0 * d)
    rhs = 2.0 * integrate_cells(g, c) - 3.0 * integrate_cells(g, d)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_node_to_cell():
    g = build_grid(1, [(0, 1)], [2])
    u = ScalarField(g, np.full(3, 4.0))
    assert np.allclose(cell_average_values(g, u.values), 4.0)
    g1 = build_grid(1, [(0, 1)], [2])
    u1 = ScalarField(g1, [0.0, 1.0, 2.0])
    assert np.allclose(cell_average_values(g1, u1.values), [0.5, 1.5])
    g2 = build_grid(2, [(0, 1), (0, 1)], [2, 2])
    vals = np.zeros((3, 3))
    vals[1, 1] = 4.0  # shared corner of all four cells
    u2 = ScalarField(g2, vals.reshape(-1))
    assert np.allclose(cell_average_values(g2, u2.values), 1.0)


def test_operators_match_explicit_corner_formulas():
    # the stencil loops keep the rounding order of the written-out formulas
    rng = np.random.default_rng(5)
    g1 = build_grid(1, [(0, 1.3)], [9])
    v = rng.normal(size=g1.n_nodes)
    (h,) = g1.cell_size
    np.testing.assert_array_equal(gradient_values(g1, v)[:, 0], (v[1:] - v[:-1]) / h)
    np.testing.assert_array_equal(cell_average_values(g1, v), 0.5 * (v[1:] + v[:-1]))
    g2 = build_grid(2, [(0, 1.3), (-1, 2)], [5, 7])
    v = rng.normal(size=g2.node_shape)
    hx, hy = g2.cell_size
    dx = (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / (2.0 * hx)
    dy = (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / (2.0 * hy)
    grad = gradient_values(g2, v.reshape(-1))
    np.testing.assert_array_equal(grad[:, 0], dx.reshape(-1))
    np.testing.assert_array_equal(grad[:, 1], dy.reshape(-1))
    avg = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
    np.testing.assert_array_equal(cell_average_values(g2, v.reshape(-1)), avg.reshape(-1))
    w = rng.normal(size=(g2.n_cells, 2))
    gx = w[:, 0].reshape(g2.cell_shape) / (2.0 * hx)
    gy = w[:, 1].reshape(g2.cell_shape) / (2.0 * hy)
    out = np.zeros(g2.node_shape)
    out[:-1, :-1] -= gx
    out[1:, :-1] += gx
    out[:-1, 1:] -= gx
    out[1:, 1:] += gx
    out[:-1, :-1] -= gy
    out[:-1, 1:] += gy
    out[1:, :-1] -= gy
    out[1:, 1:] += gy
    np.testing.assert_array_equal(gradient_adjoint(g2, w), out.reshape(-1))


@settings(max_examples=40, deadline=None)
@given(
    resolution=st.lists(st.integers(2, 12), min_size=1, max_size=2),
    batch=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_operators_match_row_by_row(resolution, batch, seed):
    dim = len(resolution)
    g = build_grid(dim, [(0.0, 1.3), (-1.0, 2.0)][:dim], resolution)
    stack = np.random.default_rng(seed).normal(size=(*batch, g.n_nodes))
    grads = gradient_values(g, stack)
    averages = cell_average_values(g, stack)
    assert grads.shape == (*batch, g.n_cells, dim)
    assert averages.shape == (*batch, g.n_cells)
    for row in np.ndindex(*batch):
        np.testing.assert_array_equal(grads[row], gradient_values(g, stack[row]))
        np.testing.assert_array_equal(averages[row], cell_average_values(g, stack[row]))


def test_boundary_mask_counts():
    g1 = build_grid(1, [(0, 1)], [9])
    assert boundary_mask(g1).sum() == 2
    g2 = build_grid(2, [(0, 1), (0, 1)], [4, 6])
    m = boundary_mask(g2)
    assert m.sum() == 2 * 5 + 2 * 7 - 4


@pytest.mark.parametrize("dim,res", [(1, [6]), (2, [4, 5])])
def test_adjoints_match_forward_operators(dim, res):
    extents = [(0, 1)] * dim
    g = build_grid(dim, extents, res)
    rng = np.random.default_rng(17)
    v = rng.normal(size=g.n_nodes)
    w = rng.normal(size=(g.n_cells, g.dim))
    c = rng.normal(size=g.n_cells)
    # <G v, w> == <v, G^T w>
    lhs = float(np.sum(gradient_values(g, v) * w))
    rhs = float(np.dot(v, gradient_adjoint(g, w)))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # <C v, c> == <v, C^T c>
    lhs = float(np.dot(cell_average_values(g, v), c))
    rhs = float(np.dot(v, cell_average_adjoint(g, c)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    resolution=st.lists(st.integers(2, 12), min_size=1, max_size=2),
    origins=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    lengths=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoints_match_forward_operators_random_grids(resolution, origins, lengths, seed):
    dim = len(resolution)
    extents = [(lo, lo + length) for lo, length in zip(origins, lengths)][:dim]
    g = build_grid(dim, extents, resolution)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=g.n_nodes)
    w = rng.normal(size=(g.n_cells, g.dim))
    c = rng.normal(size=g.n_cells)
    # <G v, w> == <v, G^T w>, up to rounding of the summed magnitudes
    terms = gradient_values(g, v) * w
    rhs = float(np.dot(v, gradient_adjoint(g, w)))
    assert float(np.sum(terms)) == pytest.approx(rhs, abs=1e-12 * np.sum(np.abs(terms)))
    # <C v, c> == <v, C^T c>
    terms = cell_average_values(g, v) * c
    rhs = float(np.dot(v, cell_average_adjoint(g, c)))
    assert float(np.sum(terms)) == pytest.approx(rhs, abs=1e-12 * np.sum(np.abs(terms)))


def _random_cell_matrices(g, rng, spread):
    """Symmetric positive definite per-cell matrices, eigenvalues over 10^spread."""
    a = rng.normal(size=(g.n_cells, g.dim, g.dim))
    q, _ = np.linalg.qr(a)
    eig = 10.0 ** rng.uniform(-spread, spread, size=(g.n_cells, g.dim))
    return np.einsum("cij,cj,ckj->cik", q, eig, q)


grids = dict(
    resolution=st.lists(st.integers(2, 9), min_size=1, max_size=2),
    lengths=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**grids)
def test_gradient_form_matches_operator_chain(resolution, lengths, seed):
    dim = len(resolution)
    g = build_grid(dim, [(0.0, length) for length in lengths[:dim]], resolution)
    rng = np.random.default_rng(seed)
    cells = _random_cell_matrices(g, rng, spread=3)
    v = rng.normal(size=g.n_nodes)
    expected = g.cell_volume * gradient_adjoint(
        g, np.einsum("ckl,cl->ck", cells, gradient_values(g, v))
    )
    got = form_apply(g, gradient_form(g, cells), v)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(**grids)
def test_form_solve_matches_dense_solve(resolution, lengths, seed):
    dim = len(resolution)
    g = build_grid(dim, [(0.0, length) for length in lengths[:dim]], resolution)
    rng = np.random.default_rng(seed)
    coeffs = gradient_form(g, _random_cell_matrices(g, rng, spread=3))
    interior = np.flatnonzero(~boundary_mask(g))
    dense = np.stack(
        [form_apply(g, coeffs, np.eye(g.n_nodes)[i])[interior] for i in interior], axis=1
    )
    rhs = np.zeros(g.n_nodes)
    rhs[interior] = rng.normal(size=interior.size)
    x = form_solve(g, coeffs, rhs)
    expected = np.linalg.solve(dense, rhs[interior])
    assert np.all(x[boundary_mask(g)] == 0.0)
    # both solves are accurate to about cond * eps relative
    err = np.max(np.abs(x[interior] - expected))
    assert err <= 1e-14 * np.linalg.cond(dense) * np.max(np.abs(expected))


@pytest.mark.parametrize("resolution", [[30, 2], [2, 30]])
def test_form_solve_blocks_span_the_shorter_axis(resolution, monkeypatch):
    import doublephase.mesh as mesh

    g = build_grid(2, [(0.0, 1.0), (0.0, 2.0)], resolution)
    rng = np.random.default_rng(3)
    coeffs = gradient_form(g, _random_cell_matrices(g, rng, spread=1))
    rhs = np.where(boundary_mask(g), 0.0, rng.normal(size=g.n_nodes))
    # 29 rows of one interior node each: the long axis would need 29 x 30
    monkeypatch.setattr(mesh, "FORM_SOLVE_MAX_BYTES", 29 * 1 * 2 * 8)
    x = form_solve(g, coeffs, rhs)
    interior = ~boundary_mask(g)
    assert np.max(np.abs(form_apply(g, coeffs, x)[interior] - rhs[interior])) < 1e-12
    monkeypatch.setattr(mesh, "FORM_SOLVE_MAX_BYTES", 29 * 1 * 2 * 8 - 1)
    with pytest.raises(MemoryError, match="MiB"):
        form_solve(g, coeffs, rhs)


def _block_elimination(g, coeffs, rhs):
    """2D block-tridiagonal elimination that keeps [P_r | z_r] = S_r^-1 [U_r | b_r]
    per row of the longer axis and back-substitutes x_r = z_r - P_r x_(r+1)."""
    c, b = coeffs, rhs.reshape(g.node_shape)
    flip = b.shape[1] > b.shape[0]
    if flip:
        c, b = c.transpose(1, 0, 3, 2), b.T
    band, b = c[1:, :, 1:-1, 1:-1], b[1:-1, 1:-1]
    rows, m = b.shape

    def block(r, d0):
        out = np.zeros((m, m))
        for d1 in range(3):
            for j in range(m):
                if 0 <= j + d1 - 1 < m:
                    out[j, j + d1 - 1] = band[d0, d1, r, j]
        return out

    factors = []
    for r in range(rows):
        system = np.hstack([block(r, 0), b[r][:, None]])
        if factors:
            system -= block(r - 1, 1).T @ factors[-1]
        upper = np.hstack([block(r, 1), system[:, m:]])
        factors.append(np.linalg.solve(system[:, :m], upper))
    out = np.zeros((rows + 2, m + 2))
    x = out[1:-1, 1:-1]
    x[-1] = factors[-1][:, m]
    for r in range(rows - 2, -1, -1):
        x[r] = factors[r][:, m] - factors[r][:, :m] @ x[r + 1]
    return (out.T if flip else out).reshape(-1)


# 29 rows of one interior node, along either axis, and 10 rows of 7 along the second axis
FACTOR_RESOLUTIONS = [[30, 2], [2, 30], [8, 11]]


@settings(max_examples=60, deadline=None)
@given(
    resolution=st.sampled_from(FACTOR_RESOLUTIONS),
    lengths=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_fresh_factor_matches_the_block_elimination(resolution, lengths, seed):
    g = build_grid(2, [(0.0, length) for length in lengths], resolution)
    rng = np.random.default_rng(seed)
    coeffs = gradient_form(g, _random_cell_matrices(g, rng, spread=1))
    rhs = np.where(boundary_mask(g), 0.0, rng.normal(size=g.n_nodes))
    x = form_factor(g, coeffs).solve(rhs)
    expected = _block_elimination(g, coeffs, rhs)
    assert np.all(x[boundary_mask(g)] == 0.0)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
    # form_solve is the factor applied
    np.testing.assert_array_equal(form_solve(g, coeffs, rhs), x)


def _curvature_weights(g, rng):
    # the solver's curvature model at 8th powers, where cells with a small
    # gradient sit on the CURVATURE_CONTRAST floor
    from doublephase.solver import CURVATURE_CONTRAST, _curvature
    from test_phase import make_phase

    w_grad = (rng.choice([-1.0, 1.0], g.n_cells) * 10.0 ** rng.uniform(-6, 0, g.n_cells))[:, None]
    cells, _ = _curvature(make_phase(g, 8.0, [(8.0, 1.0)]), w_grad)
    assert np.min(cells) <= CURVATURE_CONTRAST * np.max(cells)
    return cells


@pytest.mark.parametrize("weights", ["curvature", "random"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_form_solve_1d_backward_error_at_solver_scale(weights, seed):
    g = build_grid(1, [(0.0, 1.0)], [256])
    rng = np.random.default_rng(seed)
    if weights == "curvature":
        cells = _curvature_weights(g, rng)
    else:
        cells = (10.0 ** rng.uniform(-3, 3, g.n_cells))[:, None, None]
    coeffs = gradient_form(g, cells)
    interior = np.flatnonzero(~boundary_mask(g))
    dense = np.stack(
        [form_apply(g, coeffs, np.eye(g.n_nodes)[i])[interior] for i in interior], axis=1
    )
    rhs = np.zeros(g.n_nodes)
    rhs[interior] = rng.normal(size=interior.size)
    x = form_solve(g, coeffs, rhs)
    assert np.all(x[boundary_mask(g)] == 0.0)
    residual = np.max(np.abs(dense @ x[interior] - rhs[interior]))
    scale = np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(x))
    assert residual <= 4.0 * np.finfo(float).eps * scale


def test_form_solve_1d_calls_no_dense_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    g = build_grid(1, [(0.0, 1.0)], [256])
    rng = np.random.default_rng(4)
    coeffs = gradient_form(g, _random_cell_matrices(g, rng, spread=3))
    rhs = np.where(boundary_mask(g), 0.0, rng.normal(size=g.n_nodes))
    monkeypatch.setattr(np.linalg, "solve", refuse)
    x = form_solve(g, coeffs, rhs)
    interior = ~boundary_mask(g)
    residual = np.max(np.abs(form_apply(g, coeffs, x)[interior] - rhs[interior]))
    assert residual <= 1e-12 * np.max(np.abs(coeffs)) * np.max(np.abs(x))


@pytest.mark.parametrize("row", [0, 1])
def test_form_solve_1d_zero_pivot_raises(row):
    # a zero first pivot, and a pivot that eliminates to zero: the interior
    # form [[1, 1], [1, 1]] is singular
    g = build_grid(1, [(0.0, 1.0)], [3])
    coeffs = np.zeros((3, g.n_nodes))
    if row == 1:
        coeffs[1, 1:-1] = 1.0
        coeffs[2, 1] = coeffs[0, 2] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        form_solve(g, coeffs, np.array([0.0, 1.0, 2.0, 0.0]))


def test_scalar_field_validation():
    g = build_grid(1, [(0, 1)], [4])
    with pytest.raises(ValueError, match="node count"):
        ScalarField(g, np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g, [0, 1, np.nan, 2, 3])
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g, [0, 1, np.inf, 2, 3])


def test_scalar_field_keeps_a_read_only_copy():
    g = build_grid(2, [(0, 1)] * 2, [2, 2])
    source = np.arange(9.0).reshape(3, 3)
    u = ScalarField(g, source)
    source[0, 0] = -1.0
    assert u.values.shape == (9,) and u.values[0] == 0.0
    assert not u.values.flags.writeable


def _corner_weights_by_pair_scan(grid):
    # the weights read off every (lo, hi) stencil pair of every axis
    st = grid.stencil
    out = []
    for corner in st.corners:
        offset = tuple(int(s.start == 1) for s in corner[1:])
        weights = np.zeros(grid.dim)
        for k, (pairs, scale) in enumerate(zip(st.pairs, st.scales)):
            for lo, hi in pairs:
                weights[k] += (corner == hi) / scale - (corner == lo) / scale
        out.append((offset, weights))
    return out


@pytest.mark.parametrize(
    "dim,extents,res",
    [
        (1, [(0, 1)], [7]),
        (1, [(-2, 3)], [3]),
        (2, [(0, 1), (0, 2)], [3, 5]),
        (2, [(0, 0.3), (1, 8)], [9, 2]),
    ],
)
def test_corner_weights_equal_the_pair_scan(dim, extents, res):
    from doublephase.mesh import _corner_weights

    grid = build_grid(dim, extents, res)
    got = _corner_weights(grid)
    expected = _corner_weights_by_pair_scan(grid)
    assert [o for o, _ in got] == [o for o, _ in expected]
    for (_, w), (_, w_ref) in zip(got, expected):
        assert w.dtype == w_ref.dtype and np.array_equal(w, w_ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_squared_norm_equals_the_axis_sum(dim):
    # bit for bit, on every batch shape, through underflow, overflow and NaN
    special = [0.0, -0.0, 1e-200, -1e-200, 1e200, np.nan, -3.0]
    rows = np.array(list(itertools.product(special, repeat=dim)))
    rng = np.random.default_rng(31)
    x = np.concatenate([rows, rng.normal(size=(40, dim))])
    x = np.stack([x, 1e3 * x[::-1], rng.uniform(-1.0, 1.0, x.shape)])
    with np.errstate(all="ignore"):
        for batch in (x[0, 3], x[0, -1], x[1], x):  # (), (), (n,), (k, n)
            got, ref = squared_norm(batch), np.sum(batch**2, axis=-1)
            assert np.shape(got) == np.shape(ref)
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim,res", [(1, [256]), (2, [64, 64])])
def test_gradient_magnitude_and_flux_keep_the_axis_sum_bytes(dim, res):
    from doublephase.modular import _magnitude
    from doublephase.solver import _flux
    from test_phase import make_phase

    grid = build_grid(dim, [(0, 1)] * dim, res)
    n = grid.n_cells
    rng = np.random.default_rng(32)
    u = rng.normal(size=grid.n_nodes)
    u[: grid.n_nodes // 4] = 0.0  # cells with a zero gradient
    g = gradient_values(grid, u)
    t = np.sqrt(np.sum(g**2, axis=-1))
    assert _magnitude(u, grid, "gradient").tobytes() == t.tobytes()
    phase = make_phase(
        grid, rng.uniform(1.2, 3.5, n), [(rng.uniform(1.2, 3.5, n), rng.uniform(0.0, 4.0, n))]
    )
    assert _flux(phase, g).tobytes() == (phase.flux_coefficient(t)[:, None] * g).tobytes()


AXIS_SUM_OF_SQUARES = re.compile(
    r"np\.sum\([^\n]*\*\*\s*2\s*,\s*axis\s*=|np\.sqrt\(np\.sum\([^\n]*\*\*\s*2"
)


def test_package_vector_norms_go_through_squared_norm():
    # squared_norm is the one implementation of |x|^2 over a vector axis
    import doublephase

    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(doublephase.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if AXIS_SUM_OF_SQUARES.search(line)
    ]
    assert hits == []


def _definitions_containing(text: str) -> list[str]:
    """``module.name`` of each top-level statement of the package whose source holds ``text``."""
    import doublephase

    hits = []
    for path in sorted(Path(doublephase.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for stmt in ast.parse(source).body:
            if text in ast.get_source_segment(source, stmt):
                hits.append(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    return hits


def test_every_vector_magnitude_is_mesh_magnitude():
    # one per-row vector norm: only mesh.magnitude takes the root of squared_norm
    assert _definitions_containing("sqrt(squared_norm(") == ["mesh.magnitude"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(-320, 300)),
        min_size=1,
        max_size=8,
    )
)
def test_magnitude_is_a_scaled_hypot(rows):
    # a batch of 2-vectors scaled by 10^k: the rows whose square is a normal
    # float keep sqrt(squared_norm) bit for bit, the rest are re-measured
    x = np.array([(a * 10.0**k, b * 10.0**k) for a, b, k in rows])
    got = magnitude(x)
    ref = np.hypot(x[:, 0], x[:, 1])
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))
    with np.errstate(all="ignore"):
        square = squared_norm(x)
    normal = (np.finfo(float).tiny <= square) & (square < np.inf)
    assert got[normal].tobytes() == np.sqrt(square[normal]).tobytes()
    assert magnitude(x[:, :1]).tobytes() == np.abs(x[:, 0]).tobytes()


def test_magnitude_at_the_ends_of_the_float_range():
    # an infinite component stays inf, a norm past the largest float reads inf
    x = np.array([[np.inf, 1.0], [-np.inf, np.inf], [1.5e308, 1.5e308], [1e308, 1e308],
                  [0.0, 0.0], [np.nan, 1e-200]])
    got = magnitude(x)
    assert got[:5].tolist() == [np.inf, np.inf, np.inf, 1.4142135623730951e308, 0.0]
    assert np.isnan(got[5])
