"""Uniform-convexity certification and the pointwise inequalities behind it.

The certification follows the implication

    rho((u - v)/2) > eps * (rho(u) + rho(v))/2
        ==>  rho((u + v)/2) <= (1 - delta(eps)) * (rho(u) + rho(v))/2

with the modulus delta(eps) = min(eps/2, (m - 1) eps^2 / 32), where m > 1 is
the smallest sampled exponent.  The same modulus applies to the zero-order,
gradient, and Sobolev modulars and to multi-phase structures (with m the
minimum over all exponent fields).

Everything here is evaluated per cell on the discrete quadrature, so the
verdicts are exact set arithmetic plus float rounding slack.  Pairs carry a
leading batch axis: ``uc_verdicts`` applies the rule to arrays of modulars,
``verify_uc_pair`` is its batch of one, and ``sweep_uc_pairs`` evaluates
its pairs chunk by chunk through ``stacked_rho``.

The pointwise sides of the two-point and flux-monotonicity inequalities run
on vector components (``mesh.squared_norm``, ``mesh.magnitude``), each branch
of a side on its own rows only.  ``_two_point_tally`` and ``_monotonicity_tally``
are the one rule per sweep row; a single pair is a chunk of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ScalarField, _require_same_grid, gradient_values, magnitude, squared_norm
from .phase import PhaseStructure, power_flux_coefficient
from .modular import stacked_rho

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
    p, q, _ = phase.double_phase("regime partition")
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
    _require_same_grid(u.grid, ("v", v))
    gu = gradient_values(u.grid, u.values)
    gv = gradient_values(v.grid, v.values)
    e_mask = magnitude(gu - gv) > (alpha / 4.0) * (magnitude(gu) + magnitude(gv))
    return PairSplit(
        g_mask=~e_mask,
        e_mask=e_mask,
        a_mask=e_mask & part.omega21,
        b_mask=e_mask & part.omega12,
        c_mask=e_mask & part.omega11,
    )


def _correction_term(h, nhalf, total):
    """(h - 1) 2^-(h+1) |a - b|^2 / (|a| + |b|)^(2-h), the second left-hand term
    for 1 < h <= 2, from nhalf = |(a - b)/2| and total = |a| + |b| > 0."""
    safe = np.where(total > 0, total, 1.0)
    return (h - 1.0) / 2.0 ** (h + 1.0) * (2.0 * nhalf) ** 2 / safe ** (2.0 - h)


def _power_mean_term(h, nhalf):
    """|(a - b)/2|^h / h, the second left-hand term for h >= 2."""
    return nhalf**h / h


def _two_point_sides(h, a, b):
    """Left- and right-hand side of each row's two-point inequality.

    Broadcasts over leading axes: ``a`` and ``b`` have one trailing vector
    axis.  The left-hand side is |(a + b)/2|^h / h plus the correction term
    where h <= 2 and the power-mean term elsewhere; each term is evaluated on
    its own rows only.  Returns (lhs, rhs).
    """
    h = np.asarray(h, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na, nb = magnitude(a), magnitude(b)
    nmid, nhalf = magnitude((a + b) / 2.0), magnitude((a - b) / 2.0)
    rhs = (na**h + nb**h) / (2.0 * h)
    h, nhalf, total = np.broadcast_arrays(h, nhalf, na + nb)
    # index arrays, not masks: a boolean index rescans the whole mask per gather
    low = h <= 2.0
    lo, hi = np.nonzero(low), np.nonzero(~low)
    tail = np.empty(rhs.shape)
    tail[lo] = _correction_term(h[lo], nhalf[lo], total[lo])
    tail[hi] = _power_mean_term(h[hi], nhalf[hi])
    return nmid**h / h + tail, rhs


def admissible_epsilon_bound(m: float) -> float:
    """Largest admissible eps for the convexity modulus: min(1, sqrt(32/(m-1)))."""
    if m <= 1:
        raise ValueError(f"m must exceed 1, got {m}")
    return min(1.0, float(np.sqrt(32.0 / (m - 1.0))))


def delta_of_epsilon(eps, m: float):
    """The convexity modulus min(eps/2, (m - 1) eps^2 / 32), elementwise for an array."""
    bound = admissible_epsilon_bound(m)
    e = np.asarray(eps, dtype=float)
    if not np.all((0.0 < e) & (e < bound)):
        raise ValueError(
            f"eps must lie in (0, min(1, sqrt(32/(m-1))) = {bound:.6g}), got {eps}"
        )
    delta = np.minimum(e / 2.0, (m - 1.0) * e * e / 32.0)
    return delta if delta.ndim else float(delta)


VERDICTS = ("vacuous", "pass", "fail")


def uc_verdicts(midpoint, average, gap, eps, delta):
    """The certification rule per pair; returns (VERDICTS indices, gap thresholds).

    Vacuous where gap <= eps * average; otherwise pass where the midpoint is
    at most (1 - delta) * average up to rounding slack, else fail.
    """
    threshold = eps * average
    passed = midpoint <= (1.0 - delta) * average + REL_SLACK * (1.0 + average)
    return np.where(gap <= threshold, 0, np.where(passed, 1, 2)), threshold


def _uc_modulars(u: np.ndarray, v: np.ndarray, phase: PhaseStructure, kinds):
    """Per kind, (midpoint, average, gap) modulars of the row pairs of u and v."""
    # one call per field stack: a single 4x taller stack raised the peak
    # memory of a solve's one-pair certificate and of the sweep
    ru, rv, rmid, rhalf = (
        stacked_rho(w, phase, kinds) for w in (u, v, (u + v) / 2.0, (u - v) / 2.0)
    )
    return {kind: (rmid[kind], (ru[kind] + rv[kind]) / 2.0, rhalf[kind]) for kind in kinds}


def verify_uc_pair(
    u: ScalarField, v: ScalarField, eps: float, phase: PhaseStructure, kind: str
) -> ConvexityReport:
    """Certify the uniform-convexity implication for one pair of fields on the phase's grid.

    Covers every phase count: with k >= 2 phases m is the minimum over all
    exponent fields.
    """
    _require_same_grid(phase.grid, ("u", u), ("v", v))
    delta = delta_of_epsilon(eps, phase.summary.m)
    midpoint, average, gap = _uc_modulars(u.values[None], v.values[None], phase, (kind,))[kind]
    verdict, threshold = uc_verdicts(midpoint, average, gap, eps, delta)
    return ConvexityReport(
        kind=kind,
        epsilon=eps,
        delta=delta,
        midpoint_value=float(midpoint[0]),
        average_value=float(average[0]),
        gap_value=float(gap[0]),
        gap_threshold=float(threshold[0]),
        verdict=VERDICTS[verdict[0]],
    )


def _power_bound(r, ndiff):
    """2^(2-r) ndiff^r, the monotonicity lower bound for r >= 2."""
    return 2.0 ** (2.0 - r) * ndiff**r


def _quadratic_bound(r, ndiff, base):
    """(r - 1) ndiff^2 base^((r-2)/2), the monotonicity lower bound for r < 2."""
    return (r - 1.0) * ndiff**2 * base ** ((r - 2.0) / 2.0)


def monotonicity_sides(r, A, B):
    """Per-row r-power flux pairing <F(A) - F(B), A - B> and its lower bound.

    F(A) = |A|^(r-2) A; broadcasts over rows, one vector component at a
    time.  With ndiff = |A - B| and base = 1 + |A|^2 + |B|^2 the bound is
    2^(2-r) ndiff^r for r >= 2 and (r - 1) ndiff^2 base^((r-2)/2) below 2;
    ``r`` broadcasts against the rows, and each bound is evaluated on its own
    rows only.  Returns (lhs, rhs).
    """
    r = np.asarray(r, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    ca, cb = power_flux_coefficient(magnitude(A), r), power_flux_coefficient(magnitude(B), r)
    lhs = 0.0  # summed from 0.0, as np.sum adds: a -0.0 pairing comes out 0.0
    for k in range(A.shape[-1]):
        lhs += (ca * A[..., k] - cb * B[..., k]) * (A[..., k] - B[..., k])
    del ca, cb  # held through the bounds, they raise a chunk's peak memory
    base = 1.0 + squared_norm(A) + squared_norm(B)
    r, ndiff, base = np.broadcast_arrays(r, magnitude(A - B), base)
    high = r >= 2.0
    hi, lo = np.nonzero(high), np.nonzero(~high)
    rhs = np.empty(r.shape)
    rhs[hi] = _power_bound(r[hi], ndiff[hi])
    rhs[lo] = _quadratic_bound(r[lo], ndiff[lo], base[lo])
    return lhs, rhs


def _energy_floor(a: float, m: float) -> float:
    """a (a/m)^(1/(m-1)), which bounds -(x - a x^(1/m)) over x >= 0; inf on overflow."""
    if m <= 1:
        raise ValueError(f"m must exceed 1, got {m}")
    if a < 0:
        raise ValueError("a must be nonnegative")
    a, m = float(a), float(m)  # a numpy scalar's power warns on overflow, a float's raises
    try:
        return a * (a / m) ** (1.0 / (m - 1.0))
    except OverflowError:
        return np.inf  # the floor is unboundedly deep


# ---------------------------------------------------------------------------
# seeded sweeps (shared by the CLI verify commands and the acceptance suite)


def _sweep(n_samples: int, seed: int, exponent_max: float, amplitude: float, tally):
    """Seeded sweep over random (exponent, a, b) draws, in chunks of 200k samples.

    Each chunk draws exponents in (1, exponent_max] and two uniform vector
    sets in [-amplitude, amplitude]^2; ``tally(h, a, b)`` returns the
    per-sample violation mask and relative excess.  Returns a tally dict whose
    worst relative excess is taken over the finite rows.
    """
    rng = np.random.default_rng(seed)
    chunk = 200_000
    fails = 0
    worst = 0.0
    for start in range(0, n_samples, chunk):
        size = min(chunk, n_samples - start)
        h = np.nextafter(rng.uniform(1.0, exponent_max, size), np.inf)  # open at 1
        a = rng.uniform(-amplitude, amplitude, (size, 2))
        b = rng.uniform(-amplitude, amplitude, (size, 2))
        violated, excess = tally(h, a, b)
        fails += int(np.sum(violated))
        worst = max(worst, float(np.max(excess[np.isfinite(excess)], initial=0.0)))
    return {"samples": max(n_samples, 0), "fails": fails, "worst_relative_excess": worst}


# A row passes only where both sides are finite and its inequality holds, so
# an overflowed row (NaN compares false) fails, silently: overflow is a verdict.
def _two_point_tally(h, a, b):
    with np.errstate(all="ignore"):
        lhs, rhs = _two_point_sides(h, a, b)
        holds = np.isfinite(lhs) & np.isfinite(rhs) & (lhs <= rhs + REL_SLACK * (1.0 + rhs))
        return ~holds, (lhs - rhs) / (1.0 + rhs)


def _monotonicity_tally(r, A, B):
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    with np.errstate(all="ignore"):
        lhs, rhs = monotonicity_sides(r, A, B)
        slack = REL_SLACK * (1.0 + squared_norm(A) + squared_norm(B))
        holds = np.isfinite(lhs) & np.isfinite(rhs) & (lhs >= rhs - slack)
        return ~holds, (rhs - lhs) / (1.0 + np.abs(rhs))


def sweep_two_point(n_samples: int, seed: int, h_max: float = 8.0, amplitude: float = 10.0):
    """Random sweep of the two-point inequalities; returns a tally dict."""
    return _sweep(n_samples, seed, h_max, amplitude, _two_point_tally)


def sweep_monotonicity(
    n_samples: int, seed: int, r_max: float = 8.0, amplitude: float = 10.0
):
    """Random sweep of the monotonicity lower bounds; returns a tally dict."""
    return _sweep(n_samples, seed, r_max, amplitude, _monotonicity_tally)


# nodal values drawn for u per uc sweep chunk, one row per pair: 30 pairs on
# 32x32 cells.  Larger chunks save no time there and raise the peak memory.
UC_CHUNK_NODES = 2**15


def sweep_uc_pairs(
    phase: PhaseStructure,
    n_samples: int,
    seed: int,
    kinds=("gradient", "sobolev"),
    eps: float | None = None,
):
    """Seeded uniform-convexity sweep on a fixed phase structure and its grid.

    Each sample draws the scales of u and v, then u, v and (unless fixed)
    eps.  Pairs are certified in chunks of ``UC_CHUNK_NODES // n_nodes``:
    one ``stacked_rho`` call each for the chunk's u, v, midpoints and
    half-differences evaluates every part of every kind's modular once.
    """
    grid = phase.grid
    rng = np.random.default_rng(seed)
    m = phase.summary.m
    bound = admissible_epsilon_bound(m)
    if eps is not None:
        delta_of_epsilon(eps, m)  # rejects an inadmissible eps up front
    tallies = {kind: {"pass": 0, "vacuous": 0, "fail": 0} for kind in kinds}
    chunk = max(1, UC_CHUNK_NODES // grid.n_nodes)
    for start in range(0, n_samples, chunk):
        size = min(chunk, n_samples - start)
        u = np.empty((size, grid.n_nodes))
        v = np.empty((size, grid.n_nodes))
        e = np.empty(size)
        for i in range(size):
            scale_u = 10.0 ** rng.uniform(-1, 1)
            scale_v = 10.0 ** rng.uniform(-1, 1)
            u[i] = scale_u * rng.normal(size=grid.n_nodes)
            v[i] = scale_v * rng.normal(size=grid.n_nodes)
            e[i] = eps if eps is not None else rng.uniform(0.02, 0.98) * bound
        delta = delta_of_epsilon(e, m)
        modulars = _uc_modulars(u, v, phase, kinds)
        for kind in kinds:
            verdicts, _ = uc_verdicts(*modulars[kind], e, delta)
            counts = np.bincount(verdicts, minlength=len(VERDICTS))
            for name, count in zip(VERDICTS, counts):
                tallies[kind][name] += int(count)
    return tallies
