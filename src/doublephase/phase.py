"""Phase data: sampled exponents and weights, the integrand, growth checks.

A PhaseStructure holds the exponent p and k >= 1 weight-exponent pairs
(mu_j, q_j), all sampled at cell centers.  The integrand evaluated at a
cell with argument t >= 0 is

    (1/p) t^p + sum_j (mu_j / q_j) t^{q_j}

Double-phase is k = 1; a vanishing mu recovers the single-phase case, and
its term adds 0 at every t, t = inf included (see ``PhaseStructure.terms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Grid, _finite_samples, _readonly

# Guard against float dust: the convexity modulus degenerates as the smallest
# exponent approaches 1, so sampled exponents must clear 1 by this margin.
MIN_EXPONENT_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class PhasePair:
    """One weight-exponent pair (mu_j, q_j), sampled per cell."""

    q_cells: np.ndarray
    mu_cells: np.ndarray


@dataclass(frozen=True)
class ExponentSummary:
    p_minus: float
    p_plus: float
    q_minus: tuple[float, ...]
    q_plus: tuple[float, ...]
    q_minus_global: float
    q_plus_global: float
    m: float
    M: float


@dataclass(frozen=True, eq=False)
class PhaseStructure:
    grid: Grid
    p_cells: np.ndarray
    phases: tuple[PhasePair, ...]

    def __post_init__(self):
        n = self.grid.n_cells
        p = _finite_samples(self.p_cells, n, "cell", "p")
        object.__setattr__(self, "p_cells", p)
        if len(self.phases) < 1:
            raise ValueError("at least one (q, mu) phase is required")
        pairs = []
        for j, pair in enumerate(self.phases):
            q = _finite_samples(pair.q_cells, n, "cell", f"q_{j}")
            mu = _finite_samples(pair.mu_cells, n, "cell", f"mu_{j}")
            if np.any(mu < 0):
                raise ValueError(
                    f"weight mu_{j} must be nonnegative, sampled minimum {mu.min()}"
                )
            pairs.append(PhasePair(q, mu))
        object.__setattr__(self, "phases", tuple(pairs))
        m = self.summary.m
        if m < 1.0 + MIN_EXPONENT_MARGIN:
            raise ValueError(
                f"all exponents must exceed 1: sampled minimum {m} <= 1 + {MIN_EXPONENT_MARGIN}"
            )

    @property
    def k(self) -> int:
        return len(self.phases)

    def double_phase(self, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The per-cell (p, q, mu) of a double-phase (k = 1) structure; ``what`` names the use."""
        if self.k != 1:
            raise ValueError(f"{what} is defined for double-phase (k = 1) only")
        return self.p_cells, self.phases[0].q_cells, self.phases[0].mu_cells

    @cached_property
    def summary(self) -> ExponentSummary:
        q_minus = tuple(float(pr.q_cells.min()) for pr in self.phases)
        q_plus = tuple(float(pr.q_cells.max()) for pr in self.phases)
        p_minus = float(self.p_cells.min())
        p_plus = float(self.p_cells.max())
        return ExponentSummary(
            p_minus=p_minus,
            p_plus=p_plus,
            q_minus=q_minus,
            q_plus=q_plus,
            q_minus_global=min(q_minus),
            q_plus_global=max(q_plus),
            m=min(p_minus, *q_minus),
            M=max(p_plus, *q_plus),
        )

    def terms(self, bar: bool = False) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The integrand as (exponent, coefficient) per-cell array pairs.

        With ``bar`` the coefficients are 1 and mu_j instead of 1/p and mu_j/q_j.
        Where mu_j = 0 its term is 0 at any exponent, so the integrand table
        writes exponent 0 (0 * t^0 = 0 even at t = inf) and the flux table
        (``bar``) exponent 2 (t^(r-2) = 1): no sum forms 0 * inf.
        """
        return self._terms[bar]

    @cached_property
    def _terms(self) -> dict[bool, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        # formed once per structure: read-only, like the samples they derive from
        bar = [_readonly(np.ones_like(self.p_cells))]
        plain = [_readonly(1.0 / self.p_cells)]
        r_bar, r_plain = [self.p_cells], [self.p_cells]
        for pr in self.phases:
            r_bar.append(_readonly(np.where(pr.mu_cells > 0.0, pr.q_cells, 2.0)))
            r_plain.append(_readonly(np.where(pr.mu_cells > 0.0, pr.q_cells, 0.0)))
            bar.append(pr.mu_cells)
            plain.append(_readonly(pr.mu_cells / pr.q_cells))
        return {True: tuple(zip(r_bar, bar)), False: tuple(zip(r_plain, plain))}

    def h_of(self, t: np.ndarray, bar: bool = False) -> np.ndarray:
        """Integrand values per cell for nonnegative per-cell arguments t."""
        t = np.asarray(t, dtype=float)
        out = 0.0
        for r, c in self.terms(bar=bar):
            out += c * t**r
        return out

    def flux_coefficient(self, t: np.ndarray) -> np.ndarray:
        """Per-cell scalar c(t) with flux(g) = c(|g|) g; zero extended at t = 0.

        c(t) = t^{p-2} + sum_j mu_j t^{q_j-2}, summed over ``terms(bar=True)``;
        the product c(t) t -> 0 as t -> 0 because every exponent exceeds 1.
        """
        t = np.asarray(t, dtype=float)
        out = 0.0
        for r, c in self.terms(bar=True):
            out += c * power_flux_coefficient(t, r)
        return out


def power_flux_coefficient(t: np.ndarray, r) -> np.ndarray:
    """t^(r-2) for t > 0, continuously extended by 0 at t = 0.

    The scalar factor of the r-power flux |A|^(r-2) A at t = |A|.
    """
    pos = t > 0.0
    return np.where(pos, np.where(pos, t, 1.0) ** (r - 2.0), 0.0)


def growth_envelope_check(phase: PhaseStructure, cell: int, t: float) -> bool:
    """Check alpha * min(t^p, t^q) <= H <= beta * max(t^p, t^q) at one cell.

    alpha = 1/p_+ + mu/q_+ and beta = 1/p_- + mu/q_- use the grid-global
    exponent extremes; stated for the double-phase structure only.  H is read
    from ``terms()``.  Both sides are divided by max(t^p, t^q) = t^e, so no
    power overflows and the slack is a fixed relative 1e-12.
    """
    p, q, mu = (x[cell] for x in phase.double_phase("growth envelope"))
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return True  # H(0) = 0 and both bounds vanish
    s = phase.summary
    alpha = 1.0 / s.p_plus + mu / s.q_plus_global
    beta = 1.0 / s.p_minus + mu / s.q_minus_global
    e = max(p, q) if t >= 1.0 else min(p, q)
    h = sum(c[cell] * t ** (r[cell] - e) for r, c in phase.terms() if c[cell] > 0.0)
    lower = alpha * min(t, 1.0 / t) ** abs(p - q)  # min(t^p, t^q) / t^e
    return bool(lower <= h + 1e-12 and h <= beta + 1e-12)


def matuszewska_index(phase: PhaseStructure, cell: int) -> float:
    """Growth index of the integrand in t at one cell.

    Closed form max(p, q) where the weight is active; where mu vanishes the
    integrand is t^p/p and the index is p.  Double-phase only.
    """
    p, q, mu = (float(x[cell]) for x in phase.double_phase("matuszewska_index"))
    return max(p, q) if mu > 0.0 else p
