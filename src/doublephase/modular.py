"""Modulars, the Luxemburg norm by Newton's method, and norm-modular diagnostics.

Three modular kinds are supported:

* ``zero_order``  integrates the integrand of |u| (cell averages of u),
* ``gradient``    integrates the integrand of |grad u| (cell gradients),
* ``sobolev``     is the exact sum of the two.

``rho``, ``modular_value``, ``stacked_rho`` and ``norm_report`` all take
their integrand values from ``_part_values``, once per part the kinds need,
for one field or a whole stack.  A modular that overflows there reads inf,
silently; the sandwich then reads ``None``, a uniform-convexity pair vacuous,
and a Luxemburg check raises ``FloatingPointError``.

All integrals use the one-point cell-center quadrature of the mesh module,
so every modular is a finite weighted sum and is convex, symmetric, and
strictly decreasing in the Luxemburg scaling parameter wherever positive.
The Luxemburg norm solves log rho(u / lambda) = 0 by Newton's method in
log lambda, over per-cell magnitudes divided by their maximum; a step whose
modular overflows is halved.  ``_luxemburg`` takes magnitudes only and roots a
stack of them by one grouping rule: a null row has norm 0, and the other rows
share one Newton iteration when they all have the same positive (cell, term)
entries, each row alone otherwise.  In the shared iteration each row takes the
steps it would take alone and is held in place once its step is within
tolerance, so every norm is bit-identical to rooting one field at a time, and
one stacked modular evaluation of rho(t / lambda), the equation Newton solved,
checks every row's unit modular.  No gradient of u / lambda is
taken, so a field with a large constant part roots like its varying part.  A
norm whose check leaves the float range (squared gradients that overflow, a
subnormal cell volume) raises ``FloatingPointError``.  ``estimate_dual_bound``
roots its probes in stacks of at most ``STACK_CELLS`` = 2^11 cells, or of one
row on a larger grid: 8 rows on 256 cells, one on a 64x64 grid.
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
    u_values: np.ndarray | None, grid: Grid, phase: PhaseStructure, kinds, bar=False, mags=None
) -> dict[str, np.ndarray]:
    """{part: h(|part|)} of ``u_values[..., n_nodes]``, once for each part the kinds sum.

    ``mags``, where known, lists the parts' magnitudes in the order the kinds name them.
    """
    parts = list(dict.fromkeys(part for kind in kinds for part in _PARTS[kind]))
    if mags is None:
        mags = (_magnitude(u_values, grid, part) for part in parts)
    with np.errstate(over="ignore"):
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
    u_values: np.ndarray | None, grid: Grid, phase: PhaseStructure, kind: str, bar=False, mags=None
) -> np.ndarray:
    """Modular of ``u_values[..., n_nodes]``, or of the kind's part magnitudes ``mags``.

    One value per row: 0-d for one field.
    """
    cells = _assemble(_part_values(u_values, grid, phase, (kind,), bar, mags), kind, grid)
    return np.sum(cells, axis=-1)


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
    mags: list[np.ndarray], grid: Grid, phase: PhaseStructure, kind: str, bar: bool = False
) -> np.ndarray:
    """Luxemburg norm of each row of ``mags``, the kind's part magnitudes as ``[rows, n_cells]``.

    A null row has norm 0.  The other rows share one Newton iteration, each
    taking the steps it would take alone, when they all have the same positive
    (cell, term) entries; otherwise each is rooted alone, so every sum runs over
    its own entries.
    """
    top = functools.reduce(np.maximum, [np.maximum.reduce(t, axis=-1) for t in mags])
    lam = np.zeros(len(top))
    rows = np.flatnonzero(top)
    if not len(rows):
        return lam
    if len(rows) < len(top):
        mags, top = [t[rows] for t in mags], top[rows]
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
    if np.count_nonzero(positive) == len(rows) * np.count_nonzero(keep):
        if not keep.all():
            w, r = w.take(np.flatnonzero(keep), axis=-1), r[keep]
        lam[rows] = top * np.exp(_newton_roots(w, r))
        _check_unit_modular(mags, lam[rows], grid, phase, kind, bar)
    else:
        for i, row in enumerate(rows):
            lam[row] = _luxemburg([t[i : i + 1] for t in mags], grid, phase, kind, bar)[0]
    return lam


def _newton_roots(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s per row with sum w e^(-r s) = 1, for weights ``w[k, n_entries] > 0``."""
    # F(s) = log rho is convex, with slope -(w-weighted mean of r) in [-M, -m]:
    # Newton climbs monotonically to the root from any iterate left of it.  A
    # row is done once its step is within tolerance; its s is then held fixed.
    nr = -r
    s = step = np.zeros(len(w))
    done = np.zeros(len(w), dtype=bool)
    # C order, whatever the order of w: each row sums along its contiguous entries
    e = np.empty(w.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_STEPS):
            np.multiply(nr, s[:, None], out=e)
            np.exp(e, out=e)
            e *= w
            total = np.add.reduce(e, axis=-1)
            e *= r
            slope = np.add.reduce(e, axis=-1)
            # a step far past the root (tiny rho(u / top), large r) overflowed
            # the sums (slope >= total, as every r > 1): take back half of it
            newton = np.isfinite(slope)
            step = np.where(newton, np.log(total) * total / slope, 0.5 * step)
            step[done] = 0.0
            s = np.where(newton, s + step, s - step)
            done |= newton & (np.abs(step) <= NEWTON_STEP_TOLERANCE)
            if done.all():
                break
    return s


def _check_unit_modular(mags, lam: np.ndarray, grid: Grid, phase: PhaseStructure, kind, bar):
    """Raise unless rho(t / lam) = 1 on every row of the magnitudes, in one modular evaluation."""
    scaled = [t / lam[:, None] for t in mags]
    residual = modular_value(None, grid, phase, kind, bar, scaled) - 1.0
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
    mags = [_magnitude(u.values, u.grid, part)[None] for part in _PARTS[kind]]
    return float(_luxemburg(mags, u.grid, phase, kind)[0])


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
    norm <= bar-norm <= e^(1/e) * norm.  The magnitudes are taken once: they
    serve the modular, both roots and both roots' unit-modular checks.
    """
    _check_kind(kind)
    mags = [_magnitude(u.values, u.grid, part)[None] for part in _PARTS[kind]]
    value = float(modular_value(None, u.grid, phase, kind, mags=mags)[0])
    s = phase.summary
    lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
    upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
    norm = float(_luxemburg(mags, u.grid, phase, kind)[0])
    holds = None
    if math.isfinite(value):
        holds = bool(lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9))
    bar_norm = overline = None
    if phase.k == 1:
        bar_norm = float(_luxemburg(mags, u.grid, phase, kind, bar=True)[0])
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
) -> bool | None:
    """Check |<f, u>| <= a * rho(u)^(1/m) for a zero-trace u with gradient norm >= 1.

    ``None`` where the modular overflows: the bound is then inf and checks nothing.
    """
    if a < 0:
        raise ValueError("dual-norm bound must be nonnegative")
    grad_norm = luxemburg_norm(u, phase, "gradient")
    if grad_norm < 1.0 - 1e-12:
        raise ValueError(f"hypothesis violated: gradient norm {grad_norm} < 1")
    value = rho(u, phase, "gradient").value
    if not math.isfinite(value):
        return None
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
        denom = _luxemburg([_magnitude(stack, grid, "gradient")], grid, phase, "gradient")
        pairing = np.abs(_pairing(fc, stack, grid))
        rooted = denom != 0.0
        best = max([best, *(pairing[rooted] / denom[rooted]).tolist()])
    return 1.01 * best
