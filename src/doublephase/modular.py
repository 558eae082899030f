"""Modulars, the Luxemburg norm by bisection, and norm-modular diagnostics.

Three modular kinds are supported:

* ``zero_order``  integrates the integrand of |u| (cell averages of u),
* ``gradient``    integrates the integrand of |grad u| (cell gradients),
* ``sobolev``     is the exact sum of the two.

All integrals use the one-point cell-center quadrature of the mesh module,
so every modular is a finite weighted sum and is convex, symmetric, and
strictly decreasing in the Luxemburg scaling parameter wherever positive.
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
# relative bracket width at which bisection stops; keeps the norm accurate
# enough for 1e-12-level homogeneity checks
BRACKET_TOLERANCE = 1e-14
MAX_BISECTION_ITERATIONS = 200


@dataclass(frozen=True, eq=False)
class ModularReport:
    kind: str
    value: float
    cell_values: np.ndarray  # per-cell contributions, zero outside the mask


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _cell_contributions(
    u_values: np.ndarray,
    grid: Grid,
    phase: PhaseStructure,
    kind: str,
    mask: np.ndarray | None,
    bar: bool = False,
) -> np.ndarray:
    out = np.zeros(grid.n_cells)
    if kind in ("zero_order", "sobolev"):
        t = np.abs(cell_average_values(grid, u_values))
        out += phase.h_of(t, bar=bar)
    if kind in ("gradient", "sobolev"):
        g = gradient_values(grid, u_values)
        t = np.sqrt(np.sum(g**2, axis=1))
        out += phase.h_of(t, bar=bar)
    out *= grid.cell_volume
    if mask is not None:
        out = np.where(np.asarray(mask, dtype=bool), out, 0.0)
    return out


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
    value = modular_value(u_values, grid, phase, kind, bar=bar)
    if value == 0.0:
        return 0.0

    def g(lam: float) -> float:
        return modular_value(u_values / lam, grid, phase, kind, bar=bar)

    s = phase.summary
    lo = 0.5 * value ** (1.0 / s.m)
    hi = 2.0 * max(value ** (1.0 / s.m), value ** (1.0 / s.M), 1.0)
    # expand until the root is bracketed: g is strictly decreasing
    for _ in range(MAX_BISECTION_ITERATIONS):
        if g(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("luxemburg bisection failed to bracket from above")
    for _ in range(MAX_BISECTION_ITERATIONS):
        if g(lo) >= 1.0:
            break
        lo *= 0.5
    else:
        raise RuntimeError("luxemburg bisection failed to bracket from below")

    mid = 0.5 * (lo + hi)
    for _ in range(MAX_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BRACKET_TOLERANCE * mid and abs(gm - 1.0) <= UNIT_MODULAR_TOLERANCE:
            break
    lam = 0.5 * (lo + hi)
    if abs(g(lam) - 1.0) > UNIT_MODULAR_TOLERANCE:
        raise RuntimeError(
            f"luxemburg bisection did not reach unit modular: residual {g(lam) - 1.0}"
        )
    return lam


def luxemburg_norm(u: ScalarField, phase: PhaseStructure, kind: str) -> float:
    """The unique lambda > 0 with rho(u/lambda) = 1, or 0 for a null argument."""
    _check_kind(kind)
    return _luxemburg(u.values, u.grid, phase, kind)


def norm_modular_sandwich(
    u: ScalarField, phase: PhaseStructure, kind: str
) -> tuple[float, float, float, bool]:
    """Bounds min/max of rho^(1/m), rho^(1/M) around the Luxemburg norm.

    Returns (lower, upper, norm, holds).
    """
    _check_kind(kind)
    s = phase.summary
    value = rho(u, phase, kind).value
    lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
    upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
    norm = luxemburg_norm(u, phase, kind)
    slack = 1e-9
    holds = lower * (1.0 - slack) <= norm <= upper * (1.0 + slack)
    return lower, upper, norm, bool(holds)


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
    probes: list[np.ndarray] = []
    for _ in range(n_probes):
        vals = np.zeros(grid.n_nodes)
        vals[interior] = rng.normal(size=int(interior.sum()))
        probes.append(vals)
    for field in extra_fields:
        probes.append(np.where(interior, field.values, 0.0))
    for vals in probes:
        u = ScalarField(grid, vals)
        denom = luxemburg_norm(u, phase, "gradient")
        if denom == 0.0:
            continue
        best = max(best, abs(l2_pairing(f, u)) / denom)
    return 1.01 * best
