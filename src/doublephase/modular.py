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
modular overflows is halved.
"""

from __future__ import annotations

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
    parts = _PARTS[kind]
    out = np.zeros(h[parts[0]].shape)
    for part in parts:
        out += h[part]
    out *= grid.cell_volume
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
    h = _part_values(u_values, grid, phase, kinds)
    return {kind: np.sum(_assemble(h, kind, grid), axis=-1) for kind in kinds}


def modular_value(
    u_values: np.ndarray, grid: Grid, phase: PhaseStructure, kind: str, bar: bool = False
) -> float:
    return float(np.sum(_assemble(_part_values(u_values, grid, phase, (kind,), bar), kind, grid)))


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
) -> float:
    """The Luxemburg norm; ``mags`` are the kind's part magnitudes of u, if known."""
    mags = mags if mags is not None else [_magnitude(u_values, grid, p) for p in _PARTS[kind]]
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
    # Newton climbs monotonically to the root from any iterate left of it
    s = step = 0.0
    with np.errstate(over="ignore"):
        for _ in range(MAX_NEWTON_STEPS):
            e = w * np.exp(-r * s)
            total, slope = np.sum(e), np.sum(r * e)
            if not math.isfinite(slope):
                # a step far past the root (tiny rho(u / top), large r) overflowed
                # the sums (slope >= total, as every r > 1): take back half of it
                step *= 0.5
                s -= step
                continue
            step = np.log(total) * total / slope
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


@dataclass(frozen=True)
class NormReport:
    kind: str
    modular: float
    norm: float
    sandwich_lower: float
    sandwich_upper: float
    sandwich_holds: bool
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
    holds = lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9)
    bar_norm = overline = None
    if phase.k == 1:
        bar_norm = _luxemburg(u.values, u.grid, phase, kind, bar=True, mags=mags)
        slack = 1e-9 * (1.0 + norm + bar_norm)
        band = np.exp(1.0 / np.e) * norm
        overline = bool(norm <= bar_norm + slack and bar_norm <= band + slack)
    return NormReport(kind, value, norm, lower, upper, bool(holds), bar_norm, overline)


def sweep_sandwich(grid: Grid, phase: PhaseStructure, n_samples: int, seed: int) -> dict:
    """Seeded sweep of ``norm_report``'s checks and of ||c u|| = c ||u|| (1e-12 relative).

    Each sample draws a scale, a field u, a kind and c, in this order.
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
        if not (report.sandwich_holds and hom_ok and report.overline_holds is not False):
            fails += 1
    return {"samples": max(n_samples, 0), "fails": fails}


def poincare_ratio(u: ScalarField, phase: PhaseStructure) -> float:
    """Zero-order norm over gradient norm for a zero-trace field."""
    _require_zero_trace(u.grid, u.values, "u")
    grad_norm = luxemburg_norm(u, phase, "gradient")
    if grad_norm == 0.0:
        raise ValueError("gradient vanishes identically")
    return luxemburg_norm(u, phase, "zero_order") / grad_norm


def _pairing(fc: np.ndarray, u: ScalarField) -> float:
    """L2 pairing of u with a field whose cell averages are ``fc``."""
    uc = cell_average_values(u.grid, u.values)
    return float(np.sum(fc * uc) * u.grid.cell_volume)


def l2_pairing(f: ScalarField, u: ScalarField) -> float:
    """Midpoint-quadrature L2 pairing of two nodal fields."""
    return _pairing(cell_average_values(f.grid, f.values), u)


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
    n_interior = int(interior.sum())
    fc = cell_average_values(grid, f.values)
    rng = np.random.default_rng(seed)
    best = 0.0
    for i in range(n_probes + len(extra_fields)):
        vals = np.zeros(grid.n_nodes)
        if i < n_probes:
            vals[interior] = rng.normal(size=n_interior)
        else:
            vals[interior] = extra_fields[i - n_probes].values[interior]
        u = ScalarField(grid, vals)
        denom = luxemburg_norm(u, phase, "gradient")
        if denom == 0.0:
            continue
        best = max(best, abs(_pairing(fc, u)) / denom)
    return 1.01 * best
