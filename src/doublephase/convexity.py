"""Uniform-convexity certification and the pointwise inequalities behind it.

The certification follows the implication

    rho((u - v)/2) > eps * (rho(u) + rho(v))/2
        ==>  rho((u + v)/2) <= (1 - delta(eps)) * (rho(u) + rho(v))/2

with the modulus delta(eps) = min(eps/2, (m - 1) eps^2 / 32), where m > 1 is
the smallest sampled exponent.  The same modulus applies to the zero-order,
gradient, and Sobolev modulars and to multi-phase structures (with m the
minimum over all exponent fields).

Everything here is evaluated per cell on the discrete quadrature, so the
verdicts are exact set arithmetic plus float rounding slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ScalarField, gradient_values
from .phase import PhaseStructure, power_flux_coefficient
from .modular import rho

REL_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class RegimePartition:
    """Cells classified by exponent regime; ties at 2 go to the >= 2 side."""

    omega11: np.ndarray  # p < 2 and q < 2
    omega12: np.ndarray  # p < 2 and q >= 2
    omega21: np.ndarray  # p >= 2 and q < 2
    omega22: np.ndarray  # p >= 2 and q >= 2


@dataclass(frozen=True, eq=False)
class PairSplit:
    """Cells split by the gradient-gap threshold (alpha/4)(|grad u| + |grad v|)."""

    g_mask: np.ndarray  # |grad(u - v)| <= threshold (ties included)
    e_mask: np.ndarray  # strict excess
    a_mask: np.ndarray  # e_mask and omega21
    b_mask: np.ndarray  # e_mask and omega12
    c_mask: np.ndarray  # e_mask and omega11


@dataclass(frozen=True)
class ConvexityReport:
    kind: str
    epsilon: float
    delta: float
    midpoint_value: float  # rho((u + v)/2)
    average_value: float  # (rho(u) + rho(v))/2
    gap_value: float  # rho((u - v)/2)
    gap_threshold: float  # eps * average_value
    verdict: str  # "pass", "fail", or "vacuous"


def partition(phase: PhaseStructure) -> RegimePartition:
    if phase.k != 1:
        raise ValueError("regime partition is defined for double-phase (k = 1) only")
    p = phase.p_cells
    q = phase.phases[0].q_cells
    p_low = p < 2.0
    q_low = q < 2.0
    return RegimePartition(
        omega11=p_low & q_low,
        omega12=p_low & ~q_low,
        omega21=~p_low & q_low,
        omega22=~p_low & ~q_low,
    )


def pair_split(
    u: ScalarField, v: ScalarField, alpha: float, part: RegimePartition
) -> PairSplit:
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    gu = gradient_values(u.grid, u.values)
    gv = gradient_values(v.grid, v.values)
    nu = np.sqrt(np.sum(gu**2, axis=1))
    nv = np.sqrt(np.sum(gv**2, axis=1))
    ndiff = np.sqrt(np.sum((gu - gv) ** 2, axis=1))
    e_mask = ndiff > (alpha / 4.0) * (nu + nv)
    return PairSplit(
        g_mask=~e_mask,
        e_mask=e_mask,
        a_mask=e_mask & part.omega21,
        b_mask=e_mask & part.omega12,
        c_mask=e_mask & part.omega11,
    )


def _two_point_gaps(h, a, b):
    """Left- and right-hand sides of the two pointwise inequalities.

    Broadcasts over leading axes: ``a`` and ``b`` have one trailing vector
    axis.  Returns (lhs_i, lhs_ii, rhs) with lhs_i valid where h <= 2 and
    |a| + |b| > 0, lhs_ii valid where h >= 2.
    """
    h = np.asarray(h, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na = np.sqrt(np.sum(a**2, axis=-1))
    nb = np.sqrt(np.sum(b**2, axis=-1))
    nmid = np.sqrt(np.sum(((a + b) / 2.0) ** 2, axis=-1))
    nhalf = np.sqrt(np.sum(((a - b) / 2.0) ** 2, axis=-1))
    ndiff = 2.0 * nhalf
    rhs = (na**h + nb**h) / (2.0 * h)
    total = na + nb
    safe = np.where(total > 0, total, 1.0)
    lhs_i = nmid**h / h + (h - 1.0) / 2.0 ** (h + 1.0) * ndiff**2 / safe ** (2.0 - h)
    lhs_ii = nmid**h / h + nhalf**h / h
    return lhs_i, lhs_ii, rhs


def two_point_inequality_check(h: float, a, b) -> bool:
    """Check the midpoint inequality for exponent h at a vector pair.

    For 1 < h <= 2 the inequality carries the quadratic correction term and
    requires |a| + |b| > 0; for h >= 2 it is the power-mean form.  At h = 2
    both coincide with the parallelogram identity and both are checked.
    """
    if h <= 1:
        raise ValueError(f"h must exceed 1, got {h}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if h < 2 and np.all(a == 0) and np.all(b == 0):
        raise ValueError("case h < 2 requires |a| + |b| > 0")
    lhs_i, lhs_ii, rhs = _two_point_gaps(h, a, b)
    slack = REL_SLACK * (1.0 + rhs)
    ok = True
    if h <= 2.0:
        ok = ok and bool(np.all(lhs_i <= rhs + slack))
    if h >= 2.0:
        ok = ok and bool(np.all(lhs_ii <= rhs + slack))
    return ok


def admissible_epsilon_bound(m: float) -> float:
    """Largest admissible eps for the convexity modulus: min(1, sqrt(32/(m-1)))."""
    if m <= 1:
        raise ValueError(f"m must exceed 1, got {m}")
    return min(1.0, float(np.sqrt(32.0 / (m - 1.0))))


def delta_of_epsilon(eps: float, m: float) -> float:
    """The convexity modulus min(eps/2, (m - 1) eps^2 / 32)."""
    bound = admissible_epsilon_bound(m)
    if not (0.0 < eps < bound):
        raise ValueError(
            f"eps must lie in (0, min(1, sqrt(32/(m-1))) = {bound:.6g}), got {eps}"
        )
    return min(eps / 2.0, (m - 1.0) * eps * eps / 32.0)


def verify_uc_pair(
    u: ScalarField, v: ScalarField, eps: float, phase: PhaseStructure, kind: str
) -> ConvexityReport:
    """Certify the uniform-convexity implication for one pair of fields.

    Covers every phase count: with k >= 2 phases m is the minimum over all
    exponent fields.
    """
    delta = delta_of_epsilon(eps, phase.summary.m)
    grid = u.grid
    mid = ScalarField(grid, (u.values + v.values) / 2.0)
    half = ScalarField(grid, (u.values - v.values) / 2.0)
    average = (rho(u, phase, kind).value + rho(v, phase, kind).value) / 2.0
    gap = rho(half, phase, kind).value
    midpoint = rho(mid, phase, kind).value
    threshold = eps * average
    if gap <= threshold:
        verdict = "vacuous"
    elif midpoint <= (1.0 - delta) * average + REL_SLACK * (1.0 + average):
        verdict = "pass"
    else:
        verdict = "fail"
    return ConvexityReport(
        kind=kind,
        epsilon=eps,
        delta=delta,
        midpoint_value=midpoint,
        average_value=average,
        gap_value=gap,
        gap_threshold=threshold,
        verdict=verdict,
    )


def _flux_terms(r, A):
    """|A|^(r-2) A with the continuous zero extension at A = 0."""
    return power_flux_coefficient(np.sqrt(np.sum(A**2, axis=-1)), r)[..., None] * A


def monotonicity_bound(r, ndiff, base):
    """Per-cell lower bound on the r-power flux pairing <F(a) - F(b), a - b>.

    With ndiff = |a - b| and base = 1 + |a|^2 + |b|^2 the bound is
    2^(2-r) ndiff^r for r >= 2 and (r - 1) ndiff^2 base^((r-2)/2) below 2.
    """
    high = 2.0 ** (2.0 - r) * ndiff**r
    low = (r - 1.0) * ndiff**2 * base ** ((r - 2.0) / 2.0)
    return np.where(r >= 2.0, high, low)


def _monotonicity_sides(r, A, B):
    """lhs and rhs arrays of the monotonicity lower bounds, broadcast over rows."""
    r = np.asarray(r, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    diff = A - B
    lhs = np.sum((_flux_terms(r, A) - _flux_terms(r, B)) * diff, axis=-1)
    ndiff = np.sqrt(np.sum(diff**2, axis=-1))
    base = 1.0 + np.sum(A**2, axis=-1) + np.sum(B**2, axis=-1)
    return lhs, monotonicity_bound(r, ndiff, base)


def monotonicity_lower_bound_check(r: float, A, B) -> bool:
    """Check the flux-difference pairing against its power lower bound.

    For r >= 2 the bound is 2^(2-r) |A - B|^r; for 1 < r < 2 it is
    (r - 1) |A - B|^2 (1 + |A|^2 + |B|^2)^((r-2)/2).
    """
    if r <= 1:
        raise ValueError(f"r must exceed 1, got {r}")
    lhs, rhs = _monotonicity_sides(r, A, B)
    na = float(np.sum(np.square(np.asarray(A, dtype=float))))
    nb = float(np.sum(np.square(np.asarray(B, dtype=float))))
    slack = REL_SLACK * (1.0 + na + nb)
    return bool(np.all(lhs >= rhs - slack))


def scalar_lower_bound_check(x: float, a: float, m: float) -> bool:
    """Check x - a x^(1/m) >= -a (a/m)^(1/(m-1)) with absolute slack."""
    if x < 0 or a < 0:
        raise ValueError("x and a must be nonnegative")
    if m <= 1:
        raise ValueError(f"m must exceed 1, got {m}")
    lhs = x - a * x ** (1.0 / m)
    try:
        rhs = -a * (a / m) ** (1.0 / (m - 1.0))
    except OverflowError:
        rhs = -np.inf  # the floor is unboundedly deep; the bound holds trivially
    return bool(lhs >= rhs - 1e-12)


# ---------------------------------------------------------------------------
# seeded sweeps (shared by the CLI verify commands and the acceptance suite)


def sweep_two_point(n_samples: int, seed: int, h_max: float = 8.0, amplitude: float = 10.0):
    """Random sweep of the two-point inequalities; returns a tally dict."""
    rng = np.random.default_rng(seed)
    checked = 0
    fails = 0
    worst = 0.0
    chunk = 200_000
    remaining = n_samples
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        h = rng.uniform(1.0, h_max, size)
        h = np.nextafter(h, np.inf)  # open at 1
        a = rng.uniform(-amplitude, amplitude, (size, 2))
        b = rng.uniform(-amplitude, amplitude, (size, 2))
        lhs_i, lhs_ii, rhs = _two_point_gaps(h, a, b)
        slack = REL_SLACK * (1.0 + rhs)
        low = h <= 2.0
        viol_i = low & (lhs_i > rhs + slack)
        viol_ii = ~low & (lhs_ii > rhs + slack)
        fails += int(np.sum(viol_i) + np.sum(viol_ii))
        gap = np.where(low, lhs_i - rhs, lhs_ii - rhs) / (1.0 + rhs)
        worst = max(worst, float(gap.max()))
        checked += size
    return {"samples": checked, "fails": fails, "worst_relative_excess": worst}


def sweep_monotonicity(
    n_samples: int, seed: int, r_max: float = 8.0, amplitude: float = 10.0
):
    """Random sweep of the monotonicity lower bounds; returns a tally dict."""
    rng = np.random.default_rng(seed)
    checked = 0
    fails = 0
    worst = 0.0
    chunk = 200_000
    remaining = n_samples
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        r = rng.uniform(1.0, r_max, size)
        r = np.nextafter(r, np.inf)
        A = rng.uniform(-amplitude, amplitude, (size, 2))
        B = rng.uniform(-amplitude, amplitude, (size, 2))
        lhs, rhs = _monotonicity_sides(r, A, B)
        slack = REL_SLACK * (1.0 + np.sum(A**2, axis=-1) + np.sum(B**2, axis=-1))
        viol = lhs < rhs - slack
        fails += int(np.sum(viol))
        gap = (rhs - lhs) / (1.0 + np.abs(rhs))
        worst = max(worst, float(gap.max()))
        checked += size
    return {"samples": checked, "fails": fails, "worst_relative_excess": worst}


def sweep_uc_pairs(
    grid,
    phase: PhaseStructure,
    n_samples: int,
    seed: int,
    kinds=("gradient", "sobolev"),
    eps: float | None = None,
):
    """Seeded uniform-convexity sweep on a fixed grid and phase structure."""
    rng = np.random.default_rng(seed)
    bound = admissible_epsilon_bound(phase.summary.m)
    if eps is not None:
        delta_of_epsilon(eps, phase.summary.m)  # rejects an inadmissible eps up front
    tallies = {kind: {"pass": 0, "vacuous": 0, "fail": 0} for kind in kinds}
    for _ in range(n_samples):
        scale_u = 10.0 ** rng.uniform(-1, 1)
        scale_v = 10.0 ** rng.uniform(-1, 1)
        u = ScalarField(grid, scale_u * rng.normal(size=grid.n_nodes))
        v = ScalarField(grid, scale_v * rng.normal(size=grid.n_nodes))
        e = eps if eps is not None else float(rng.uniform(0.02, 0.98) * min(1.0, bound))
        for kind in kinds:
            tallies[kind][verify_uc_pair(u, v, e, phase, kind).verdict] += 1
    return tallies
