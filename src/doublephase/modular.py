"""Modulars, the Luxemburg norm by Newton's method, and norm-modular diagnostics.

Three modular kinds are supported:

* ``zero_order``  integrates the integrand of |u| (cell averages of u),
* ``gradient``    integrates the integrand of |grad u| (cell gradients),
* ``sobolev``     is the exact sum of the two.

``stacked_rho`` evaluates each of the two parts once for a whole stack of
fields and forms every requested kind from them.

All integrals use the one-point cell-center quadrature of the mesh module,
so every modular is a finite weighted sum and is convex, symmetric, and
strictly decreasing in the Luxemburg scaling parameter wherever positive.
The Luxemburg norm solves log rho(u / lambda) = 0 by Newton's method in
log lambda, over per-cell magnitudes divided by their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (
    Grid,
    ScalarField,
    boundary_mask,
    cell_average_values,
    gradient_values,
)
from .phase import PhaseStructure

KINDS = ("zero_order", "gradient", "sobolev")

# |rho(u / norm) - 1| at the returned norm
UNIT_MODULAR_TOLERANCE = 1e-10
# relative norm change of the last Newton step; convergence is quadratic, so
# the norm is then accurate far beyond the 1e-12-level homogeneity checks
NEWTON_STEP_TOLERANCE = 1e-13
MAX_NEWTON_STEPS = 100


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
    return np.sqrt(np.sum(gradient_values(grid, u_values) ** 2, axis=-1))


def _assemble(h: dict[str, np.ndarray], kind: str, grid: Grid) -> np.ndarray:
    """Per-cell contributions of one kind from its parts' integrand values."""
    parts = _PARTS[kind]
    out = np.zeros(h[parts[0]].shape)
    for part in parts:
        out += h[part]
    out *= grid.cell_volume
    return out


def _cell_contributions(
    u_values: np.ndarray,
    grid: Grid,
    phase: PhaseStructure,
    kind: str,
    mask: np.ndarray | None,
    bar: bool = False,
) -> np.ndarray:
    h = {part: phase.h_of(_magnitude(u_values, grid, part), bar=bar) for part in _PARTS[kind]}
    out = _assemble(h, kind, grid)
    if mask is not None:
        out = np.where(np.asarray(mask, dtype=bool), out, 0.0)
    return out


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
    parts = {part for kind in kinds for part in _PARTS[kind]}
    h = {part: phase.h_of(_magnitude(u_values, grid, part)) for part in parts}
    return {kind: np.sum(_assemble(h, kind, grid), axis=-1) for kind in kinds}


def modular_value(
    u_values: np.ndarray,
    grid: Grid,
    phase: PhaseStructure,
    kind: str,
    mask: np.ndarray | None = None,
    bar: bool = False,
) -> float:
    return float(np.sum(_cell_contributions(u_values, grid, phase, kind, mask, bar)))


def rho(
    u: ScalarField,
    phase: PhaseStructure,
    kind: str,
    mask: np.ndarray | None = None,
) -> ModularReport:
    """Modular of u under the phase integrand, optionally restricted to a cell mask."""
    _check_kind(kind)
    cells = _cell_contributions(u.values, u.grid, phase, kind, mask)
    return ModularReport(kind=kind, value=float(np.sum(cells)), cell_values=cells)


def _luxemburg(
    u_values: np.ndarray,
    grid: Grid,
    phase: PhaseStructure,
    kind: str,
    bar: bool = False,
) -> float:
    mags = [_magnitude(u_values, grid, part) for part in _PARTS[kind]]
    top = max(float(np.max(t)) for t in mags)
    if top == 0.0:
        return 0.0
    # rho(u / (top e^s)) = sum w e^(-r s) over the (cell, term) entries with
    # w = vol c (t/top)^r > 0; every t/top <= 1, so no power overflows
    terms = phase.terms(bar=bar)
    w = np.concatenate([grid.cell_volume * c * (t / top) ** r for t in mags for r, c in terms])
    r = np.concatenate([r for r, _ in terms] * len(mags))
    keep = w > 0.0
    w, r = w[keep], r[keep]
    # F(s) = log rho is convex, with slope -(w-weighted mean of r) in [-M, -m]:
    # after its first step Newton climbs monotonically to the root
    s = 0.0
    for _ in range(MAX_NEWTON_STEPS):
        e = w * np.exp(-r * s)
        total = np.sum(e)
        step = np.log(total) * total / np.sum(r * e)
        s += step
        if abs(step) <= NEWTON_STEP_TOLERANCE:
            break
    lam = float(top * np.exp(s))
    residual = modular_value(u_values / lam, grid, phase, kind, bar=bar) - 1.0
    if not abs(residual) <= UNIT_MODULAR_TOLERANCE:
        raise RuntimeError(f"luxemburg Newton did not reach unit modular: residual {residual}")
    return lam


def luxemburg_norm(u: ScalarField, phase: PhaseStructure, kind: str) -> float:
    """The unique lambda > 0 with rho(u/lambda) = 1, or 0 for a null argument."""
    _check_kind(kind)
    return _luxemburg(u.values, u.grid, phase, kind)


def norm_modular_sandwich(
    u: ScalarField, phase: PhaseStructure, kind: str
) -> tuple[float, float, float, float, bool]:
    """Bounds min/max of rho^(1/m), rho^(1/M) around the Luxemburg norm.

    Returns (modular, lower, upper, norm, holds).
    """
    _check_kind(kind)
    s = phase.summary
    value = rho(u, phase, kind).value
    lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
    upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
    norm = luxemburg_norm(u, phase, kind)
    slack = 1e-9
    holds = lower * (1.0 - slack) <= norm <= upper * (1.0 + slack)
    return value, lower, upper, norm, bool(holds)


def overline_equivalence_check(u: ScalarField, phase: PhaseStructure, kind: str) -> bool:
    """Check the norm band against the unnormalized integrand t^p + mu t^q.

    The unit-coefficient variant has a larger integrand, hence a larger norm,
    and the band is norm <= bar-norm <= e^(1/e) * norm.
    """
    _check_kind(kind)
    if phase.k != 1:
        raise ValueError("overline equivalence is stated for double-phase (k = 1) only")
    norm = _luxemburg(u.values, u.grid, phase, kind)
    bar_norm = _luxemburg(u.values, u.grid, phase, kind, bar=True)
    slack = 1e-9 * (1.0 + norm + bar_norm)
    return bool(
        norm <= bar_norm + slack and bar_norm <= np.exp(1.0 / np.e) * norm + slack
    )


def poincare_ratio(u: ScalarField, phase: PhaseStructure) -> float:
    """Zero-order norm over gradient norm for a zero-trace field."""
    mask = boundary_mask(u.grid)
    if np.any(u.values[mask] != 0.0):
        raise ValueError("poincare_ratio requires a zero boundary trace")
    grad_norm = luxemburg_norm(u, phase, "gradient")
    if grad_norm == 0.0:
        raise ValueError("gradient vanishes identically")
    return luxemburg_norm(u, phase, "zero_order") / grad_norm


def l2_pairing(f: ScalarField, u: ScalarField) -> float:
    """Midpoint-quadrature L2 pairing of two nodal fields."""
    grid = f.grid
    fc = cell_average_values(grid, f.values)
    uc = cell_average_values(grid, u.values)
    return float(np.sum(fc * uc) * grid.cell_volume)


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
    to align with f (for instance a computed minimizer) as extra probes.
    """
    grid = f.grid
    interior = ~boundary_mask(grid)
    rng = np.random.default_rng(seed)
    best = 0.0
    for i in range(n_probes + len(extra_fields)):
        vals = np.zeros(grid.n_nodes)
        if i < n_probes:
            vals[interior] = rng.normal(size=int(interior.sum()))
        else:
            vals[interior] = extra_fields[i - n_probes].values[interior]
        u = ScalarField(grid, vals)
        denom = luxemburg_norm(u, phase, "gradient")
        if denom == 0.0:
            continue
        best = max(best, abs(l2_pairing(f, u)) / denom)
    return 1.01 * best
