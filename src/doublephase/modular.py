"""Modulars, the Luxemburg norm by Newton's method, and norm-modular diagnostics.

Three modular kinds are supported:

* ``zero_order``  integrates the integrand of |u| (cell averages of u),
* ``gradient``    integrates the integrand of |grad u| (cell gradients),
* ``sobolev``     is the exact sum of the two.

``rho``, ``modular_value``, ``stacked_rho`` and ``norm_report`` all take
their integrand values from ``_part_values``, which evaluates each part the
kinds need once, for one field or a whole stack; ``norm_report`` takes one
field's magnitudes once for its modular, its norm and both norm-modular checks.

All integrals use the one-point cell-center quadrature of the mesh module,
so every modular is a finite weighted sum and is convex, symmetric, and
strictly decreasing in the Luxemburg scaling parameter wherever positive.
The Luxemburg norm solves log rho(u / lambda) = 0 by Newton's method in
log lambda, over per-cell magnitudes divided by their maximum; a step whose
modular overflows is halved.  ``_luxemburg`` roots a stack of fields at once,
row by row: each row takes the steps it would take alone and stops on its own
step, so every norm is bit-identical to rooting one field at a time, and one
stacked modular evaluation checks every row's unit modular.  A norm whose check
leaves the float range (squared gradients that overflow, a subnormal cell
volume) raises ``FloatingPointError``.  ``estimate_dual_bound`` roots its
probes in stacks of at most ``STACK_CELLS`` = 2^11 cells, or of one row on a
larger grid: 8 rows on 256 cells, one on a 64x64 grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import (
    Grid,
    ScalarField,
    _require_zero_trace,
    boundary_mask,
    cell_average_values,
    gradient_values,
    squared_norm,
)
from .phase import PhaseStructure

KINDS = ("zero_order", "gradient", "sobolev")

# |rho(u / norm) - 1| at the returned norm
UNIT_MODULAR_TOLERANCE = 1e-10
# relative norm change of the last Newton step; convergence is quadratic, so
# the norm is then accurate far beyond the 1e-12-level homogeneity checks
NEWTON_STEP_TOLERANCE = 1e-13
MAX_NEWTON_STEPS = 100
# cells per stack of dual-bound probes: 8 rows on 256 cells, one row from 2^11
# cells up; a root on a few hundred cells is mostly per-call overhead, which the
# rows of a stack share
STACK_CELLS = 2**11


@dataclass(frozen=True, eq=False)
class ModularReport:
    kind: str
    value: float
    cell_values: np.ndarray  # per-cell contributions, zero outside the mask


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


# the integrand arguments each kind sums, in this order: |cell average| for
# "zero_order", |cell gradient| for "gradient"
_PARTS = {
    "zero_order": ("zero_order",),
    "gradient": ("gradient",),
    "sobolev": ("zero_order", "gradient"),
}


def _magnitude(u_values: np.ndarray, grid: Grid, part: str) -> np.ndarray:
    """Per-cell integrand argument of one part, for ``u_values[..., n_nodes]``."""
    if part == "zero_order":
        return np.abs(cell_average_values(grid, u_values))
    return np.sqrt(squared_norm(gradient_values(grid, u_values)))


def _part_values(
    u_values: np.ndarray, grid: Grid, phase: PhaseStructure, kinds, bar: bool = False, mags=None
) -> dict[str, np.ndarray]:
    """{part: h(|part|)} of ``u_values[..., n_nodes]``, once for each part the kinds sum.

    ``mags``, where known, lists the parts' magnitudes in the order the kinds name them.
    """
    parts = list(dict.fromkeys(part for kind in kinds for part in _PARTS[kind]))
    if mags is None:
        mags = (_magnitude(u_values, grid, part) for part in parts)
    return {part: phase.h_of(t, bar=bar) for part, t in zip(parts, mags)}


def _assemble(h: dict[str, np.ndarray], kind: str, grid: Grid) -> np.ndarray:
    """Per-cell contributions of one kind from its parts' integrand values."""
    return functools.reduce(np.add, [h[part] for part in _PARTS[kind]]) * grid.cell_volume


def stacked_rho(
    u_values: np.ndarray, grid: Grid, phase: PhaseStructure, kinds
) -> dict[str, np.ndarray]:
    """Modular of every row of ``u_values[..., n_nodes]``, for each kind in ``kinds``.

    Each part the kinds need is evaluated once for the whole stack, and a
    sobolev modular adds its two parts as ``rho`` does, so every value
    equals ``rho`` of that row bit for bit.
    """
    for kind in kinds:
        _check_kind(kind)
    h = _part_values(u_values, grid, phase, kinds)
    return {kind: np.sum(_assemble(h, kind, grid), axis=-1) for kind in kinds}


def modular_value(
    u_values: np.ndarray, grid: Grid, phase: PhaseStructure, kind: str, bar: bool = False
) -> float | np.ndarray:
    """Modular of ``u_values[..., n_nodes]``: a float for one field, one per row of a stack."""
    cells = _assemble(_part_values(u_values, grid, phase, (kind,), bar), kind, grid)
    value = np.sum(cells, axis=-1)
    return float(value) if value.ndim == 0 else value


def rho(
    u: ScalarField,
    phase: PhaseStructure,
    kind: str,
    mask: np.ndarray | None = None,
) -> ModularReport:
    """Modular of u under the phase integrand, optionally restricted to a cell mask."""
    _check_kind(kind)
    cells = _assemble(_part_values(u.values, u.grid, phase, (kind,)), kind, u.grid)
    if mask is not None:
        cells = np.where(np.asarray(mask, dtype=bool), cells, 0.0)
    return ModularReport(kind=kind, value=float(np.sum(cells)), cell_values=cells)


def _luxemburg(
    u_values: np.ndarray,
    grid: Grid,
    phase: PhaseStructure,
    kind: str,
    bar: bool = False,
    mags: list[np.ndarray] | None = None,
) -> float | np.ndarray:
    """Luxemburg norm of ``u_values[..., n_nodes]``: a float for one field, one per row of a stack.

    One Newton iteration roots the rows together, each row taking the steps
    it would take alone; ``mags`` are the kind's part magnitudes of u, if known.
    """
    stack = np.reshape(u_values, (-1, grid.n_nodes))
    if mags is None:
        mags = [_magnitude(u_values, grid, part) for part in _PARTS[kind]]
    mags = [np.reshape(t, (len(stack), -1)) for t in mags]
    top = functools.reduce(np.maximum, [np.maximum.reduce(t, axis=-1) for t in mags])
    nonzero = top != 0.0
    if np.count_nonzero(nonzero) == len(stack):
        # rho(u / (top e^s)) = sum w e^(-r s) over the (cell, term) entries with
        # w = vol c (t/top)^r > 0; every t/top <= 1, so no power overflows
        terms = phase.terms(bar=bar)
        w = np.concatenate(
            [grid.cell_volume * c * (t / top[:, None]) ** r for t in mags for r, c in terms],
            axis=-1,
        )
        r = np.concatenate([r for r, _ in terms] * len(mags))
        positive = w > 0.0
        keep = np.logical_or.reduce(positive)
        n_keep = np.count_nonzero(keep)
        if np.count_nonzero(positive) == len(stack) * n_keep:
            if n_keep < keep.size:
                w, r = w.take(np.flatnonzero(keep), axis=-1), r[keep]
            lam = top * np.exp(_newton_roots(w, r))
            _check_unit_modular(u_values, lam, grid, phase, kind, bar)
            return float(lam[0]) if np.ndim(u_values) == 1 else lam
        # a row that lacks an entry the others have (a zero magnitude where the
        # weight is positive) is rooted alone, so every sum runs over its own entries
        alone = np.count_nonzero(positive, axis=-1) < n_keep
        groups = [np.flatnonzero(~alone), *([i] for i in np.flatnonzero(alone))]
    else:
        # a null row has norm 0
        groups = [np.flatnonzero(nonzero)]
    lam = np.zeros(len(stack))
    for rows in groups:
        if len(rows):
            lam[rows] = _luxemburg(stack[rows], grid, phase, kind, bar, [t[rows] for t in mags])
    return float(lam[0]) if np.ndim(u_values) == 1 else lam


def _newton_roots(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s per row with sum w e^(-r s) = 1, for weights ``w[k, n_entries] > 0``."""
    # F(s) = log rho is convex, with slope -(w-weighted mean of r) in [-M, -m]:
    # Newton climbs monotonically to the root from any iterate left of it.  A
    # row stops once its step is within tolerance; ``live`` lists the others.
    nr = -r
    root = np.zeros(len(w))
    live = np.arange(len(w))
    s = step = np.zeros(len(w))
    e = np.empty_like(w)
    with np.errstate(over="ignore"):
        for _ in range(MAX_NEWTON_STEPS):
            np.multiply(nr, s[:, None], out=e)
            np.exp(e, out=e)
            e *= w
            total = np.add.reduce(e, axis=-1)
            e *= r
            slope = np.add.reduce(e, axis=-1)
            newton = np.isfinite(slope)
            if np.count_nonzero(newton) == len(s):
                step = np.log(total) * total / slope
                s = s + step
                done = np.abs(step) <= NEWTON_STEP_TOLERANCE
            else:
                # a step far past the root (tiny rho(u / top), large r) overflowed
                # the sums (slope >= total, as every r > 1): take back half of it
                with np.errstate(invalid="ignore"):
                    step = np.where(newton, np.log(total) * total / slope, 0.5 * step)
                s = np.where(newton, s + step, s - step)
                done = newton & (np.abs(step) <= NEWTON_STEP_TOLERANCE)
            if np.count_nonzero(done):
                root[live[done]] = s[done]
                live, w, s, step = live[~done], w[~done], s[~done], step[~done]
                if not len(live):
                    break
                e = np.empty_like(w)
    root[live] = s
    return root


def _check_unit_modular(
    u_values: np.ndarray, lam: np.ndarray, grid: Grid, phase: PhaseStructure, kind: str, bar: bool
):
    """Raise unless rho(u / lam) = 1 on every row of ``u_values``, in one modular evaluation."""
    scaled = u_values / np.reshape(lam, (*np.shape(u_values)[:-1], 1))
    residual = np.reshape(modular_value(scaled, grid, phase, kind, bar=bar), -1) - 1.0
    reached = np.abs(residual) <= UNIT_MODULAR_TOLERANCE
    if np.count_nonzero(reached) < len(lam):
        residual = residual[~reached][0]
        if not math.isfinite(residual):
            # a magnitude, a cell weight or the root itself left the float range
            raise FloatingPointError(f"luxemburg norm out of float range: residual {residual}")
        raise RuntimeError(f"luxemburg Newton did not reach unit modular: residual {residual}")


def luxemburg_norm(u: ScalarField, phase: PhaseStructure, kind: str) -> float:
    """The unique lambda > 0 with rho(u/lambda) = 1, or 0 for a null argument."""
    _check_kind(kind)
    return _luxemburg(u.values, u.grid, phase, kind)


@dataclass(frozen=True)
class NormReport:
    kind: str
    modular: float
    norm: float
    sandwich_lower: float
    sandwich_upper: float
    sandwich_holds: bool | None  # None where the modular overflowed: it then bounds nothing
    bar_norm: float | None  # norm under t^p + mu t^q; double-phase (k = 1) only
    overline_holds: bool | None


def norm_report(u: ScalarField, phase: PhaseStructure, kind: str) -> NormReport:
    """Modular, Luxemburg norm and the two norm-modular checks of one field.

    The sandwich bounds the norm by min/max of rho^(1/m), rho^(1/M).  With
    k = 1, the larger norm under t^p + mu t^q must lie in the band
    norm <= bar-norm <= e^(1/e) * norm.  The magnitudes are taken once.
    """
    _check_kind(kind)
    mags = [_magnitude(u.values, u.grid, part) for part in _PARTS[kind]]
    h = _part_values(u.values, u.grid, phase, (kind,), mags=mags)
    value = float(np.sum(_assemble(h, kind, u.grid)))
    s = phase.summary
    lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
    upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
    norm = _luxemburg(u.values, u.grid, phase, kind, mags=mags)
    holds = None
    if math.isfinite(value):
        holds = bool(lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9))
    bar_norm = overline = None
    if phase.k == 1:
        bar_norm = _luxemburg(u.values, u.grid, phase, kind, bar=True, mags=mags)
        slack = 1e-9 * (1.0 + norm + bar_norm)
        band = np.exp(1.0 / np.e) * norm
        overline = bool(norm <= bar_norm + slack and bar_norm <= band + slack)
    return NormReport(kind, value, norm, lower, upper, holds, bar_norm, overline)


def sweep_sandwich(grid: Grid, phase: PhaseStructure, n_samples: int, seed: int) -> dict:
    """Seeded sweep of ``norm_report``'s checks and of ||c u|| = c ||u|| (1e-12 relative).

    Each sample draws a scale, a field u, a kind and c, in this order.  A sample
    fails only on a check it evaluated: a sandwich over an overflowed modular
    (``None``) counts as neither pass nor failure.
    """
    rng = np.random.default_rng(seed)
    fails = 0
    for _ in range(n_samples):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ScalarField(grid, scale * rng.normal(size=grid.n_nodes))
        kind = KINDS[int(rng.integers(0, 3))]
        report = norm_report(u, phase, kind)
        c = float(rng.uniform(0.1, 10.0))
        scaled = luxemburg_norm(ScalarField(grid, c * u.values), phase, kind)
        hom_ok = abs(scaled - c * report.norm) <= 1e-12 * max(1.0, c * report.norm)
        if report.sandwich_holds is False or not hom_ok or report.overline_holds is False:
            fails += 1
    return {"samples": max(n_samples, 0), "fails": fails}


def poincare_ratio(u: ScalarField, phase: PhaseStructure) -> float:
    """Zero-order norm over gradient norm for a zero-trace field."""
    _require_zero_trace(u.grid, u.values, "u")
    grad_norm = luxemburg_norm(u, phase, "gradient")
    if grad_norm == 0.0:
        raise ValueError("gradient vanishes identically")
    return luxemburg_norm(u, phase, "zero_order") / grad_norm


def _pairing(fc: np.ndarray, u_values: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 pairing of each row of ``u_values[..., n_nodes]`` with cell averages ``fc``."""
    return np.sum(fc * cell_average_values(grid, u_values), axis=-1) * grid.cell_volume


def l2_pairing(f: ScalarField, u: ScalarField) -> float:
    """Midpoint-quadrature L2 pairing of two nodal fields."""
    return float(_pairing(cell_average_values(f.grid, f.values), u.values, u.grid))


def dual_pairing_bound_check(
    f: ScalarField, u: ScalarField, a: float, phase: PhaseStructure
) -> bool:
    """Check |<f, u>| <= a * rho(u)^(1/m) for a zero-trace u with gradient norm >= 1."""
    if a < 0:
        raise ValueError("dual-norm bound must be nonnegative")
    grad_norm = luxemburg_norm(u, phase, "gradient")
    if grad_norm < 1.0 - 1e-12:
        raise ValueError(f"hypothesis violated: gradient norm {grad_norm} < 1")
    value = rho(u, phase, "gradient").value
    m = phase.summary.m
    lhs = abs(l2_pairing(f, u))
    rhs = a * value ** (1.0 / m)
    return bool(lhs <= rhs + 1e-12 * (1.0 + rhs))


def estimate_dual_bound(
    f: ScalarField,
    phase: PhaseStructure,
    n_probes: int = 256,
    seed: int = 0,
    extra_fields: tuple[ScalarField, ...] = (),
) -> float:
    """Empirical bound on sup |<f, u>| / ||grad u|| over zero-trace probes.

    Random probes alone sit far below the supremum, so pass any fields known
    to align with f (for instance a computed minimizer) as extra probes.  The
    probes, then the extra fields, are rooted and paired with f in stacks of
    ``STACK_CELLS // n_cells`` rows (at least one), each drawn as one block.
    """
    grid = f.grid
    interior = np.flatnonzero(~boundary_mask(grid))
    fc = cell_average_values(grid, f.values)
    rng = np.random.default_rng(seed)
    extras = np.array([u.values[interior] for u in extra_fields])
    extras = extras.reshape(len(extra_fields), len(interior))
    n_rows = n_probes + len(extras)
    per_stack = max(1, STACK_CELLS // grid.n_cells)
    best = 0.0
    for first in range(0, n_rows, per_stack):
        last = min(first + per_stack, n_rows)
        drawn = max(min(last, n_probes) - first, 0)
        stack = np.zeros((last - first, grid.n_nodes))
        # interior columns by index: a boolean column mask on a 2D array is slower
        stack[:, interior] = np.concatenate(
            [
                rng.normal(size=(drawn, len(interior))),
                extras[max(first - n_probes, 0) : max(last - n_probes, 0)],
            ]
        )
        denom = _luxemburg(stack, grid, phase, "gradient")
        pairing = np.abs(_pairing(fc, stack, grid))
        rooted = denom != 0.0
        best = max([best, *(pairing[rooted] / denom[rooted]).tolist()])
    return 1.01 * best
