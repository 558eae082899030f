"""Uniform rectilinear grids, nodal scalar fields, per-cell gradients, quadrature.

Nodal data is stored as a flat float64 array in row-major order over the node
lattice; per-cell data likewise over the cell lattice.  Gradients live at cell
centers: each entry is the gradient of the multilinear nodal interpolant
evaluated at the center of that cell.  ``gradient_values`` and
``cell_average_values`` also take a stack ``values[..., n_nodes]``: leading
batch axes pass through, and each row comes out bit-identical to the operator
applied to that row alone.  Every per-row vector norm in the package is
``magnitude``.  A per-cell weight matrix B turns into
the nodal form vol * G^T B G (``gradient_form``), stored as nearest-neighbour
stencil coefficients and solved on the interior nodes by ``form_solve``: one
scalar tridiagonal sweep in 1D, block-tridiagonal elimination in 2D.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _corner(offsets) -> tuple:
    """Node-lattice slice of the cell corner at 0/1 offsets along each axis.

    The leading ``...`` passes any batch axes in front of the lattice through.
    """
    return (Ellipsis, *(slice(1, None) if o else slice(None, -1) for o in offsets))


@dataclass(frozen=True)
class Stencil:
    """Corner slices of the node lattice shared by every mesh operator.

    ``pairs[k]`` lists the (lo, hi) corners that differ along axis k only,
    ordered by the offsets of the other axes; ``scales[k]`` is
    ``len(pairs[k]) * h_k``, the divisor of the k-th gradient component;
    ``corners`` lists every cell corner, first axis fastest.
    """

    pairs: tuple[tuple[tuple[tuple, tuple], ...], ...]
    scales: tuple[float, ...]
    corners: tuple[tuple, ...]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on a box in 1 or 2 dimensions.

    A value: two grids are equal when their dim, extents and resolution are.
    """

    dim: int
    extents: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.extents) != self.dim or len(self.resolution) != self.dim:
            raise ValueError(
                f"extents and resolution must have length {self.dim}, "
                f"got {len(self.extents)} and {len(self.resolution)}"
            )
        for lo, hi in self.extents:
            # a finite width hi - lo also rules out an infinite or NaN end
            if not (lo < hi and np.isfinite(hi - lo)):
                raise ValueError(f"degenerate extent ({lo}, {hi})")
        for n in self.resolution:
            if n < 2:
                raise ValueError(f"resolution must be >= 2 per axis, got {n}")
        # every quadrature weighs by the cell volume, so none may underflow to 0
        if self.cell_volume == 0.0:
            raise ValueError(f"cell volume of {self.cell_size} underflows to 0")

    @cached_property
    def cell_size(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.extents, self.resolution)
        )

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_size))

    @cached_property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.extents]))

    @cached_property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.resolution)

    @cached_property
    def cell_shape(self) -> tuple[int, ...]:
        return tuple(self.resolution)

    @cached_property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @cached_property
    def n_cells(self) -> int:
        return int(np.prod(self.cell_shape))

    @cached_property
    def stencil(self) -> Stencil:
        pairs = tuple(
            tuple(
                (_corner(rest[:k] + (0,) + rest[k:]), _corner(rest[:k] + (1,) + rest[k:]))
                for rest in np.ndindex(*(2,) * (self.dim - 1))
            )
            for k in range(self.dim)
        )
        scales = tuple(len(pp) * h for pp, h in zip(pairs, self.cell_size))
        corners = tuple(corner for pair in pairs[0] for corner in pair)
        return Stencil(pairs, scales, corners)

    def node_coords(self) -> np.ndarray:
        """Coordinates of every node, shape (n_nodes, dim), row-major order."""
        return _lattice(
            np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(self.extents, self.resolution)
        )

    def cell_centers(self) -> np.ndarray:
        """Coordinates of every cell center, shape (n_cells, dim)."""
        return _lattice(
            lo + h * (np.arange(n) + 0.5)
            for (lo, _), h, n in zip(self.extents, self.cell_size, self.resolution)
        )


def _lattice(axes) -> np.ndarray:
    """Every point of the tensor product of 1D axes, shape (points, dim), row-major."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _finite_samples(values, n: int, point: str, what: str) -> np.ndarray:
    """A fresh, flat, read-only float copy of ``values``: one finite value per point."""
    v = np.asarray(values, dtype=float).reshape(-1).copy()
    if v.size != n:
        raise ValueError(f"{what}: value count {v.size} does not match {point} count {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite values")
    return _readonly(v)


def build_grid(dim, extents, resolution) -> Grid:
    """Validate and build a Grid from plain sequences.

    ``dim`` and every resolution entry must be integral numbers (``8.0``
    passes) and every extent a number; bools and strings are rejected.
    """
    for name, n in [("dim", dim)] + [("resolution", n) for n in resolution]:
        if not (_is_number(n, numbers.Real) and float(n).is_integer()):
            raise ValueError(f"{name} must be integral, got {n!r}")
    if not all(_is_number(x, numbers.Real) for pair in extents for x in pair):
        raise ValueError(f"extents must be numbers, got {extents!r}")
    return Grid(
        dim=int(dim),
        extents=tuple((float(lo), float(hi)) for lo, hi in extents),
        resolution=tuple(int(n) for n in resolution),
    )


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per grid node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _finite_samples(self.values, self.grid.n_nodes, "node", "scalar field")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n_nodes))


def boundary_mask(grid: Grid) -> np.ndarray:
    """Flat boolean array over the nodes, true exactly on boundary nodes."""
    m = np.ones(grid.node_shape, dtype=bool)
    m[(slice(1, -1),) * grid.dim] = False
    return m.reshape(-1)


def _require_same_grid(grid: Grid, *named):
    """Raise unless every ``(name, part)``, a field or a phase, lies on ``grid``."""
    for name, part in named:
        if part.grid != grid:
            raise ValueError(f"{name} does not match the grid")


def _require_zero_trace(grid: Grid, values: np.ndarray, what: str):
    if np.any(values[boundary_mask(grid)] != 0.0):
        raise ValueError(f"{what} must vanish on boundary nodes (a zero boundary trace)")


def squared_norm(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the trailing axis, one component at a time.

    Bit-identical to numpy's sum of the squares over that axis for trailing
    lengths 1 and 2, and several times faster on so short an axis.
    """
    out = x[..., 0] ** 2
    for k in range(1, x.shape[-1]):
        out += x[..., k] ** 2
    return out


def _in_float_range(x):
    """Where ``x`` is a normal positive float: the window in which a value certifies."""
    return (np.finfo(float).tiny <= x) & (x < math.inf)


def magnitude(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing axis, the one per-row vector norm; it never warns.

    One component gives its absolute value, more the root of ``squared_norm``,
    where a row whose square is not a normal float is measured in units of its
    largest component (Blue, ACM TOMS 4, 1978).  An infinite component stays inf.
    """
    if x.shape[-1] == 1:
        return np.abs(x[..., 0])
    with np.errstate(over="ignore"):
        square = squared_norm(x)
        t = np.sqrt(square)
        if t.size and not (_in_float_range(square.min()) & _in_float_range(square.max())):
            out = ~_in_float_range(square)
            top = np.max(np.abs(x[out]), axis=-1)
            unit = np.where((top > 0) & (top < np.inf), top, 1.0)
            t[out] = top * np.sqrt(squared_norm(x[out] / unit[:, None]))
    return t


# The operators below are loops over ``grid.stencil``.  Forward operators
# accumulate in place in the table's order; each adjoint scatters in that same
# order, so the 1D and 2D results keep a fixed float rounding.


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-cell gradient of the multilinear interpolant of flat nodal values.

    Maps ``values[..., n_nodes]`` to ``out[..., n_cells, dim]``.
    """
    batch = values.shape[:-1]
    v = values.reshape(batch + grid.node_shape)
    out = np.empty(batch + (grid.n_cells, grid.dim))
    components = out.reshape(batch + grid.cell_shape + (grid.dim,))
    for k, (pairs, scale) in enumerate(zip(grid.stencil.pairs, grid.stencil.scales)):
        comp = components[..., k]
        (lo, hi), rest = pairs[0], pairs[1:]
        np.subtract(v[hi], v[lo], out=comp)
        for lo, hi in rest:
            comp += v[hi]
            comp -= v[lo]
        comp /= scale
    return out


def gradient_adjoint(grid: Grid, vectors: np.ndarray) -> np.ndarray:
    """Transpose of ``gradient_values``: scatter per-cell vectors to nodes.

    Satisfies sum(gradient_values(g, v) * w) == dot(v, gradient_adjoint(g, w))
    for every nodal v and per-cell vector field w.
    """
    out = np.zeros(grid.node_shape)
    components = vectors.reshape(grid.cell_shape + (grid.dim,))
    for k, (pairs, scale) in enumerate(zip(grid.stencil.pairs, grid.stencil.scales)):
        comp = components[..., k] / scale
        for lo, hi in pairs:
            out[lo] -= comp
            out[hi] += comp
    return out.reshape(-1)


def cell_average_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the corner nodal values, one value per cell.

    Maps ``values[..., n_nodes]`` to ``out[..., n_cells]``.
    """
    batch = values.shape[:-1]
    v = values.reshape(batch + grid.node_shape)
    first, second, *rest = grid.stencil.corners
    out = v[first] + v[second]
    for corner in rest:
        out += v[corner]
    out *= 1.0 / len(grid.stencil.corners)
    return out.reshape(batch + (grid.n_cells,))


def cell_average_adjoint(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Transpose of ``cell_average_values``: scatter cell values to corner nodes."""
    out = np.zeros(grid.node_shape)
    share = (1.0 / len(grid.stencil.corners)) * cells.reshape(grid.cell_shape)
    for corner in grid.stencil.corners:
        out[corner] += share
    return out.reshape(-1)


# A symmetric nodal form with nearest-neighbour coupling is stored as stencil
# coefficients: ``coeffs[d + 1][i]`` is the matrix entry M[i, i + d] for the
# node offset d in {-1, 0, 1}^dim (zero where i + d leaves the lattice).


def _corner_weights(grid: Grid) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Node offset and gradient weight per axis of every cell corner.

    Along axis k a corner at offset o_k is the ``hi`` (o_k = 1) or ``lo``
    (o_k = 0) end of one stencil pair, so its weight is (2 o_k - 1) / scale_k.
    """
    st = grid.stencil
    offsets = [tuple(int(s.start == 1) for s in corner[1:]) for corner in st.corners]
    return [(o, np.array([(2 * ok - 1) / h for ok, h in zip(o, st.scales)])) for o in offsets]


def gradient_form(grid: Grid, cell_matrices: np.ndarray) -> np.ndarray:
    """Stencil coefficients of vol * sum_c G_c^T B_c G_c over all nodes.

    ``cell_matrices`` holds one symmetric dim x dim matrix B_c per cell, so
    the form applied to v is ``vol * gradient_adjoint(B gradient_values(v))``.
    """
    coeffs = np.zeros((3,) * grid.dim + grid.node_shape)
    corners = _corner_weights(grid)
    vol = grid.cell_volume
    for oi, wi in corners:
        row = np.einsum("k,ckl->cl", wi, cell_matrices)
        for oj, wj in corners:
            delta = tuple(b - a + 1 for a, b in zip(oi, oj))
            coeffs[delta][_corner(oi)] += vol * (row @ wj).reshape(grid.cell_shape)
    return coeffs


def _tridiagonal_sweep(coeffs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a 1D form on the interior nodes by the scalar LU sweep, in O(n).

    Forward elimination keeps P_r = U_r / S_r and z_r, each division taken as
    a product with 1 / S_r, as LAPACK's triangular solve takes it; back
    substitution is x_r = z_r - P_r x_(r+1) (Golub & Van Loan, Matrix
    Computations, 4.3).  A zero pivot raises ``np.linalg.LinAlgError``.
    """
    # diagonal and coupling to the next node (M[i, i + 1] = M[i + 1, i] by
    # symmetry) of every interior node, as Python floats
    diag, upper, rhs = (a[1:-1].tolist() for a in (coeffs[1], coeffs[2], b))
    factors = []
    p = z = u_prev = 0.0
    for d, u, r in zip(diag, upper, rhs):
        s = d - u_prev * p
        if s == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        inv = 1.0 / s
        p, z, u_prev = u * inv, (r - u_prev * z) * inv, u
        factors.append((p, z))
    # x runs from the last node back to the first, between the two boundary zeros
    x = [0.0, factors.pop()[1]]
    for p, z in reversed(factors):
        x.append(z - p * x[-1])
    x.append(0.0)
    return np.array(x[::-1])


# bytes of dense block factors one 2D ``form_solve`` may keep; 2^30 admits 512^2
FORM_SOLVE_MAX_BYTES = 2**30


def form_solve(grid: Grid, coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the form restricted to the interior nodes; zero on the boundary.

    In 1D the form is tridiagonal and is solved by one scalar sweep over the
    interior nodes.  In 2D, block-tridiagonal elimination over the interior
    node rows of the longer axis: each block couples the interior nodes of
    one row along the shorter axis, and only the Schur factors
    P_i = S_i^-1 U_i, one dense block per row, are kept for the back
    substitution; it raises ``MemoryError`` before factoring when the factors
    would exceed ``FORM_SOLVE_MAX_BYTES``.  The form must be symmetric
    positive definite on the interior nodes.
    """
    c = coeffs
    b = rhs.reshape(grid.node_shape)
    if grid.dim == 1:
        return _tridiagonal_sweep(c, b)
    flip = b.shape[1] > b.shape[0]
    if flip:
        c, b = c.transpose(1, 0, 3, 2), b.T
    # couplings of each interior row within itself (d0 = 1) and to the next
    # row (d0 = 2), by the offset d1 - 1 along the row
    band = c[1:, :, 1:-1, 1:-1]
    b = b[1:-1, 1:-1]
    rows, m = band.shape[2:]
    need = rows * m * (m + 1) * 8
    if need > FORM_SOLVE_MAX_BYTES:
        raise MemoryError(
            f"block elimination on {' x '.join(map(str, grid.node_shape))} nodes needs "
            f"{need / 2**20:.0f} MiB of factors, over the "
            f"{FORM_SOLVE_MAX_BYTES / 2**20:.0f} MiB limit"
        )
    # flat positions of the three block diagonals in an m x (m + 1) array,
    # and the matching coefficients of every row
    j = np.arange(m)
    keep = (j >= 1, j >= 0, j < m - 1)
    pos = np.concatenate([j[k] * (m + 1) + j[k] + d1 - 1 for d1, k in enumerate(keep)])
    vals = np.concatenate([band[:, d1][..., k] for d1, k in enumerate(keep)], axis=-1)
    # factors[r] = [P_r | z_r] with S_r P_r = U_r and S_r z_r = the eliminated
    # rhs; one small array per row, so that no large buffer is allocated
    factors = []
    for r in range(rows):
        system = np.zeros(m * (m + 1))
        system[pos] = vals[0, r]
        system = system.reshape(m, m + 1)
        system[:, m] = b[r]
        if factors:
            # the coupling to the previous row is U_(r-1)^T, by symmetry
            system -= upper[:, :m].T @ factors[-1]
        upper = np.zeros(m * (m + 1))
        upper[pos] = vals[1, r]
        upper = upper.reshape(m, m + 1)
        upper[:, m] = system[:, m]
        factors.append(np.linalg.solve(system[:, :m], upper))
    out = np.zeros((rows + 2, m + 2))
    x = out[1:-1, 1:-1]
    x[-1] = factors[-1][:, m]
    for r in range(rows - 2, -1, -1):
        x[r] = factors[r][:, m] - factors[r][:, :m] @ x[r + 1]
    if flip:
        out = out.T
    return out.reshape(-1)


def integrate_cells(grid: Grid, cells: np.ndarray) -> float:
    """Midpoint-rule integral of per-cell samples: sum(c) * cell_volume."""
    c = np.asarray(cells, dtype=float).reshape(-1)
    if c.size != grid.n_cells:
        raise ValueError(
            f"cell count {c.size} does not match grid cell count {grid.n_cells}"
        )
    return float(np.sum(c) * grid.cell_volume)
