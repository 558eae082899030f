"""Modulars, the Luxemburg norm by Newton's method, and norm-modular diagnostics.

Three modular kinds are supported:

* ``zero_order``  integrates the integrand of |u| (cell averages of u),
* ``gradient``    integrates the integrand of |grad u| (cell gradients),
* ``sobolev``     is the exact sum of the two.

``rho`` (a float), ``modular_value``, ``stacked_rho`` and ``norm_report``
all take their modulars from one evaluator, ``_modulars``, which sums the
integrand of each part's magnitudes (taken once per part the kinds need, for
one field or a whole stack), scales by the cell volume and sums each row
under one ``np.errstate``: a modular that overflows reads inf, silently.
One window, ``mesh._in_float_range`` (tiny <= x < inf), says where a value
certifies: outside it the sandwich reads ``None``, a dual-bound probe goes
to its root, and a failed Luxemburg check raises ``FloatingPointError``.
Each entry point that takes a field holds it to ``phase.grid``, on which rho
pairs it with p, q and mu cell by cell (``mesh._require_same_grid``).

All integrals use the one-point cell-center quadrature of the mesh module,
so every modular is a finite weighted sum and is convex, symmetric, and
strictly decreasing in the Luxemburg scaling parameter wherever positive.
``_luxemburg`` roots one field: it solves log rho(u / lambda) = 0 by Newton's
method in log lambda, over the field's per-cell magnitudes divided by their
maximum, halves a step whose modular overflows, and checks the unit modular
with one evaluation of rho(t / lambda), the equation Newton solved.  No
gradient of u / lambda is taken, so a field with a large constant part roots
like its varying part.  A gradient magnitude is ``mesh.magnitude``, exact
where its square leaves the normal floats.  A magnitude or a norm past the
largest float, or a unit-modular check that fails over a non-finite residual
or a subnormal top magnitude, raises ``FloatingPointError``; the root runs
under one ``np.errstate``, and the magnitude pass prints no warning either.
``estimate_dual_bound`` pairs its probes with f and takes their modulars in
stacks of at most ``STACK_CELLS`` = 2^11 cells, or of one row on a larger
grid: 8 rows on 256 cells, one on a 64x64 grid.  It roots, one at a time, only
the probes whose sandwich lower bound min(rho^(1/m), rho^(1/M)) cannot rule
out a ratio above the best so far.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import (
    Grid,
    ScalarField,
    _in_float_range,
    _require_same_grid,
    _require_zero_trace,
    boundary_mask,
    cell_average_values,
    gradient_values,
    magnitude,
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
# cells up.  A stack takes one gradient pass, one pairing and one modular
# evaluation, whose per-call overhead its rows share on a few hundred cells;
# the rows the sandwich cannot rule out are then rooted one at a time
STACK_CELLS = 2**11


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
    """Per-cell integrand argument of one part, for ``u_values[..., n_nodes]``; inf on overflow."""
    with np.errstate(over="ignore"):
        if part == "zero_order":
            return np.abs(cell_average_values(grid, u_values))
        return magnitude(gradient_values(grid, u_values))


def _field_magnitudes(u: ScalarField, phase: PhaseStructure, kind: str) -> list[np.ndarray]:
    """The kind's part magnitudes of one field on the phase's grid, each as ``[n_cells]``."""
    _check_kind(kind)
    _require_same_grid(phase.grid, ("u", u))
    return [_magnitude(u.values, u.grid, part) for part in _PARTS[kind]]


def _modulars(mags: dict[str, np.ndarray], phase: PhaseStructure, kinds, bar=False) -> dict:
    """{kind: per-row modular} from ``mags``, {part: magnitudes ``[..., n_cells]``}.

    The one evaluator of every modular: an overflow in the integrand, the part
    sum, the cell-volume scaling or the row sum reads inf, silently.
    """
    with np.errstate(over="ignore"):
        h = {part: phase.h_of(t, bar=bar) for part, t in mags.items()}
        vol = phase.grid.cell_volume
        return {
            kind: np.sum(functools.reduce(np.add, [h[part] for part in _PARTS[kind]]) * vol, axis=-1)
            for kind in kinds
        }


def stacked_rho(u_values: np.ndarray, phase: PhaseStructure, kinds) -> dict[str, np.ndarray]:
    """Modular of every row of ``u_values[..., n_nodes]``, for each kind in ``kinds``.

    The rows lie on the phase's grid.  Each part the kinds need is evaluated
    once for the whole stack, and a sobolev modular adds its two parts as
    ``rho`` does, so every value equals ``rho`` of that row bit for bit.
    """
    for kind in kinds:
        _check_kind(kind)
    parts = dict.fromkeys(part for kind in kinds for part in _PARTS[kind])
    return _modulars({part: _magnitude(u_values, phase.grid, part) for part in parts}, phase, kinds)


def modular_value(
    u_values: np.ndarray | None, grid: Grid, phase: PhaseStructure, kind: str, bar=False, mags=None
) -> np.ndarray:
    """Modular of ``u_values[..., n_nodes]``, or of the kind's part magnitudes ``mags``.

    One value per row: 0-d for one field.  ``grid`` must be the phase's.
    """
    _require_same_grid(grid, ("phase structure", phase))
    if mags is None:
        mags = [_magnitude(u_values, grid, part) for part in _PARTS[kind]]
    return _modulars(dict(zip(_PARTS[kind], mags)), phase, (kind,), bar)[kind]


def rho(u: ScalarField, phase: PhaseStructure, kind: str, mask: np.ndarray | None = None) -> float:
    """Modular of u under the phase integrand, optionally restricted to a cell mask.

    The mask zeroes the magnitudes outside it, where h(0) = 0 adds nothing.
    """
    mags = _field_magnitudes(u, phase, kind)
    if mask is not None:
        mags = [np.where(np.asarray(mask, dtype=bool), t, 0.0) for t in mags]
    return float(_modulars(dict(zip(_PARTS[kind], mags)), phase, (kind,))[kind])


def _luxemburg(
    mags: list[np.ndarray], phase: PhaseStructure, kind: str, bar: bool = False
) -> float:
    """Luxemburg norm of one field from the kind's part magnitudes ``mags``, each ``[n_cells]``.

    A null field has norm 0.  Newton's method solves log rho(t / (top e^s)) = 0
    in s, which is convex with slope -(w-weighted mean of r) in [-M, -m], so it
    climbs monotonically to the root from any iterate left of it.
    """
    top = functools.reduce(np.maximum, [t.max() for t in mags])
    if top == 0.0:
        return 0.0
    if not math.isfinite(top):
        raise FloatingPointError(f"luxemburg norm out of float range: magnitude {top}")
    # rho(t / (top e^s)) = sum w e^(-r s) over the (cell, term) entries with
    # w = vol c (t/top)^r > 0; every t/top <= 1, so no power overflows
    with np.errstate(all="ignore"):
        terms, vol = phase.terms(bar=bar), phase.grid.cell_volume
        w = np.concatenate([vol * c * (t / top) ** r for t in mags for r, c in terms])
        r = np.concatenate([r for r, _ in terms] * len(mags))
        positive = w > 0.0
        w, r = w[positive], r[positive]
        s = step = 0.0
        for _ in range(MAX_NEWTON_STEPS):
            e = w * np.exp(-r * s)
            total = np.sum(e)
            slope = np.sum(e * r)
            if not np.isfinite(slope):
                # a step far past the root (tiny rho(t / top), large r) overflowed
                # the sums (slope >= total, as every r > 1): take back half of it
                step *= 0.5
                s -= step
                continue
            step = np.log(total) * total / slope
            s += step
            if abs(step) <= NEWTON_STEP_TOLERANCE:
                break
        norm = top * np.exp(s)
        if not math.isfinite(norm):
            raise FloatingPointError(f"luxemburg norm out of float range: norm {norm}")
        unit = modular_value(None, phase.grid, phase, kind, bar, [t / norm for t in mags])
    residual = float(unit) - 1.0
    if not abs(residual) <= UNIT_MODULAR_TOLERANCE:
        if not (math.isfinite(residual) and _in_float_range(top)):
            # a magnitude, a cell weight or the root itself left the float range
            raise FloatingPointError(f"luxemburg norm out of float range: residual {residual}")
        raise RuntimeError(f"luxemburg Newton did not reach unit modular: residual {residual}")
    return float(norm)


def luxemburg_norm(u: ScalarField, phase: PhaseStructure, kind: str) -> float:
    """The unique lambda > 0 with rho(u/lambda) = 1, or 0 for a null argument."""
    return _luxemburg(_field_magnitudes(u, phase, kind), phase, kind)


@dataclass(frozen=True)
class NormReport:
    kind: str
    modular: float
    norm: float
    sandwich_lower: float
    sandwich_upper: float
    sandwich_holds: bool | None  # None where the modular over- or underflowed: it bounds nothing
    bar_norm: float | None  # norm under t^p + mu t^q; double-phase (k = 1) only
    overline_holds: bool | None


def norm_report(u: ScalarField, phase: PhaseStructure, kind: str) -> NormReport:
    """Modular, Luxemburg norm and the two norm-modular checks of one field.

    The sandwich bounds the norm by min/max of rho^(1/m), rho^(1/M).  With
    k = 1, the larger norm under t^p + mu t^q must lie in the band
    norm <= bar-norm <= e^(1/e) * norm.  The magnitudes are taken once: they
    serve the modular, both roots and both roots' unit-modular checks.
    """
    mags = _field_magnitudes(u, phase, kind)
    value = float(modular_value(None, u.grid, phase, kind, mags=mags))
    s = phase.summary
    lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
    upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
    norm = _luxemburg(mags, phase, kind)
    holds = None
    if norm == 0.0 or _in_float_range(value):
        holds = bool(lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9))
    bar_norm = overline = None
    if phase.k == 1:
        bar_norm = _luxemburg(mags, phase, kind, bar=True)
        slack = 1e-9 * (1.0 + norm + bar_norm)
        band = np.exp(1.0 / np.e) * norm
        overline = bool(norm <= bar_norm + slack and bar_norm <= band + slack)
    return NormReport(kind, value, norm, lower, upper, holds, bar_norm, overline)


def sweep_sandwich(phase: PhaseStructure, n_samples: int, seed: int) -> dict:
    """Seeded sweep of ``norm_report``'s checks and of ||c u|| = c ||u|| to 1e-12 max(1, c ||u||).

    Each sample draws a scale, a field u on the phase's grid, a kind and c, in this order.  A sample
    fails only on a check it evaluated: a sandwich over a modular that overflowed
    or underflowed (``None``) counts as neither pass nor failure.
    """
    grid = phase.grid
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


def _pairing(fc: np.ndarray, u_values: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 pairing of each row of ``u_values[..., n_nodes]`` with cell averages ``fc``; inf on overflow."""
    with np.errstate(over="ignore"):
        return np.sum(fc * cell_average_values(grid, u_values), axis=-1) * grid.cell_volume


def l2_pairing(f: ScalarField, u: ScalarField) -> float:
    """Midpoint-quadrature L2 pairing of two nodal fields on one grid."""
    _require_same_grid(f.grid, ("u", u))
    return float(_pairing(cell_average_values(f.grid, f.values), u.values, u.grid))


def estimate_dual_bound(
    f: ScalarField,
    phase: PhaseStructure,
    n_probes: int = 256,
    seed: int = 0,
    extra_fields: tuple[ScalarField, ...] = (),
) -> float:
    """Empirical bound on sup |<f, u>| / ||grad u|| over zero-trace probes.

    Random probes alone sit far below the supremum, so pass any zero-trace fields
    known to align with f (a computed minimizer) as extra probes.  The
    extra fields are paired with f and rooted first; the probes are then drawn
    and paired in stacks of ``STACK_CELLS // n_cells`` rows (at least one),
    each drawn as one block.  A probe is rooted, on its own, only where the
    sandwich ||grad u|| >= min(rho^(1/m), rho^(1/M)) cannot rule out that its
    ratio beats the best so far: a skipped ratio lies below it, so the bound is
    bit-identical to rooting every probe.
    """
    grid = phase.grid
    _require_same_grid(grid, ("f", f), *(("extra field", u) for u in extra_fields))
    for u in extra_fields:
        _require_zero_trace(grid, u.values, "extra field")
    interior = np.flatnonzero(~boundary_mask(grid))
    fc = cell_average_values(grid, f.values)
    s = phase.summary

    def raised(best: float, rows: np.ndarray) -> float:
        """``best`` raised by the ratios of the zero-trace fields with interior ``rows``."""
        stack = np.zeros((len(rows), grid.n_nodes))
        # interior columns by index: a boolean column mask on a 2D array is slower
        stack[:, interior] = rows
        mags = _magnitude(stack, grid, "gradient")
        pairing = np.abs(_pairing(fc, stack, grid))
        value = modular_value(None, grid, phase, "gradient", mags=[mags])
        # the margin absorbs rounding where the sandwich is tight (p = q); a NaN
        # anywhere leaves the row to the root
        with np.errstate(all="ignore"):
            lower = np.minimum(value ** (1.0 / s.m), value ** (1.0 / s.M))
            ruled_out = _in_float_range(value) & (pairing <= best * lower * (1.0 - 1e-6))
        for i in np.flatnonzero(~ruled_out):
            denom = _luxemburg([mags[i]], phase, "gradient")
            if denom != 0.0:
                best = max(best, float(pairing[i]) / denom)
        return best

    best = 0.0
    if extra_fields:
        best = raised(best, np.array([u.values[interior] for u in extra_fields]))
    rng = np.random.default_rng(seed)
    per_stack = max(1, STACK_CELLS // grid.n_cells)
    for first in range(0, n_probes, per_stack):
        drawn = min(per_stack, n_probes - first)
        best = raised(best, rng.normal(size=(drawn, len(interior))))
    return 1.01 * best
