import re

import numpy as np
import pytest

from doublephase.convexity import partition
from doublephase.mesh import build_grid
from doublephase.phase import (
    PhasePair,
    PhaseStructure,
    growth_envelope_check,
    matuszewska_index,
)


def make_phase(grid, p, qmu_pairs):
    n = grid.n_cells
    phases = tuple(
        PhasePair(np.full(n, q) if np.isscalar(q) else q,
                  np.full(n, mu) if np.isscalar(mu) else mu)
        for q, mu in qmu_pairs
    )
    return PhaseStructure(grid, np.full(n, p) if np.isscalar(p) else p, phases)


GRID = build_grid(1, [(0, 1)], [8])


def h_at(phase, cell, t):
    """The integrand at one cell, through the per-cell ``h_of``."""
    return float(phase.h_of(np.full(phase.grid.n_cells, t))[cell])


def test_eval_H_examples():
    ph = make_phase(GRID, 2.0, [(2.0, 1.0)])
    assert h_at(ph, 0, 1.0) == pytest.approx(1.0)
    assert h_at(ph, 3, 0.0) == 0.0
    ph2 = make_phase(GRID, 1.5, [(3.0, 2.0)])
    expected = (1 / 1.5) * 2**1.5 + (2 / 3) * 8
    assert h_at(ph2, 0, 2.0) == pytest.approx(expected)
    assert h_at(ph2, 0, 2.0) == pytest.approx(7.21895, abs=1e-5)


def test_eval_H_multiphase():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0), (4.0, 0.5)])
    t = 2.0
    expected = t**2 / 2 + (1 / 3) * t**3 + (0.5 / 4) * t**4
    assert h_at(ph, 0, t) == pytest.approx(expected)


def test_eval_H_increasing_convex_in_t():
    rng = np.random.default_rng(0)
    ph = make_phase(
        GRID,
        rng.uniform(1.1, 4.0, GRID.n_cells),
        [(rng.uniform(1.1, 4.0, GRID.n_cells), rng.uniform(0.0, 5.0, GRID.n_cells))],
    )
    ts = np.linspace(0.0, 4.0, 41)
    for cell in range(GRID.n_cells):
        vals = np.array([h_at(ph, cell, t) for t in ts])
        assert np.all(np.diff(vals) > -1e-15)
        second = np.diff(vals, 2)
        assert np.all(second > -1e-10)


def test_mu_scaling_identity():
    rng = np.random.default_rng(1)
    q = rng.uniform(1.5, 4.0, GRID.n_cells)
    mu = rng.uniform(0.1, 2.0, GRID.n_cells)
    base = make_phase(GRID, 2.0, [(q, mu)])
    c = 3.5
    scaled = make_phase(GRID, 2.0, [(q, c * mu)])
    for cell in (0, 3, 7):
        t = 1.7
        extra = (c - 1.0) * mu[cell] / q[cell] * t ** q[cell]
        assert h_at(scaled, cell, t) == pytest.approx(h_at(base, cell, t) + extra)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_growth_envelope(monkeypatch):
    ph = make_phase(GRID, 1.8, [(3.2, 0.7)])
    assert growth_envelope_check(ph, 0, 1.0)
    assert growth_envelope_check(ph, 0, 0.0)
    # mu = 0 with q = 200: t^q would overflow at t = 100, and the q-term of H
    # must read 0, not 0 * inf = NaN
    ph = make_phase(GRID, 1.5, [(200.0, 0.0)])
    for t in (1.0, 3.0, 100.0):
        assert growth_envelope_check(ph, 0, t)
    # an integrand 1e6 times too large breaks the upper bound at every t > 0,
    # also where t^q = 100^200 leaves the float range
    terms = PhaseStructure.terms

    def inflated(self, bar=False):
        return tuple((r, 1e6 * c) for r, c in terms(self, bar))

    monkeypatch.setattr(PhaseStructure, "terms", inflated)
    ph = make_phase(GRID, 1.5, [(200.0, 1.0)])
    for t in (0.5, 3.0, 30.0, 100.0):
        assert not growth_envelope_check(ph, 0, t)


def test_growth_envelope_brute_force_sweep():
    # 10^5 random (p, q, mu, t) samples spread over random phase structures
    rng = np.random.default_rng(2)
    for _ in range(125):
        p = rng.uniform(1.1, 5.0, GRID.n_cells)
        q = rng.uniform(1.1, 5.0, GRID.n_cells)
        mu = rng.uniform(0.0, 10.0, GRID.n_cells)
        ph = make_phase(GRID, p, [(q, mu)])
        for _ in range(100):
            cell = int(rng.integers(0, GRID.n_cells))
            t = float(rng.uniform(0.0, 20.0))
            assert growth_envelope_check(ph, cell, t)


def test_growth_envelope_rejects_multiphase():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0), (4.0, 1.0)])
    with pytest.raises(ValueError, match="double-phase"):
        growth_envelope_check(ph, 0, 1.0)
    # the other statements on the one double-phase pair keep their own names
    for what, check in (
        ("regime partition", lambda: partition(ph)),
        ("matuszewska_index", lambda: matuszewska_index(ph, 0)),
    ):
        message = f"{what} is defined for double-phase (k = 1) only"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()


def test_exponent_summary():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    s = ph.summary
    assert s.m == 2.0 and s.M == 3.0
    rng = np.random.default_rng(3)
    p = rng.uniform(1.5, 2.5, GRID.n_cells)
    q = rng.uniform(2.0, 4.0, GRID.n_cells)
    s2 = make_phase(GRID, p, [(q, 1.0)]).summary
    assert s2.m == pytest.approx(p.min())
    assert s2.M == pytest.approx(q.max())


def test_validation_rejects_bad_exponents():
    with pytest.raises(ValueError, match="must exceed 1"):
        make_phase(GRID, 1.0, [(3.0, 1.0)])
    p = np.full(GRID.n_cells, 2.0)
    p[3] = 0.75
    with pytest.raises(ValueError, match="must exceed 1"):
        make_phase(GRID, p, [(3.0, 1.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        make_phase(GRID, 2.0, [(3.0, -0.5)])


@pytest.mark.parametrize("which", ["p", "q", "mu"])
@pytest.mark.parametrize(
    "bad,match",
    [(None, "does not match cell count 8"), (np.nan, "non-finite"), (np.inf, "non-finite")],
    ids=["short", "nan", "inf"],
)
def test_validation_rejects_bad_samples(which, bad, match):
    # ``which`` is one cell short (bad None) or holds ``bad`` at cell 3
    a = {"p": np.full(8, 2.0), "q": np.full(8, 3.0), "mu": np.full(8, 0.5)}
    if bad is None:
        a[which] = a[which][:-1]
    else:
        a[which][3] = bad
    with pytest.raises(ValueError, match=match):
        PhaseStructure(GRID, a["p"], (PhasePair(a["q"], a["mu"]),))


def test_phase_keeps_read_only_copies():
    p, q, mu = np.full(8, 2.0), np.full(8, 3.0), np.full(8, 0.5)
    ph = PhaseStructure(GRID, p, (PhasePair(q, mu),))
    for source in (p, q, mu):
        source[:] = 7.0
    stored = (ph.p_cells, ph.phases[0].q_cells, ph.phases[0].mu_cells)
    assert [float(x[0]) for x in stored] == [2.0, 3.0, 0.5]
    assert not any(x.flags.writeable for x in stored)


def numeric_matuszewska(p, q, mu):
    """Brute-force index estimate from the definition, in log space."""
    log_t = np.log(2.0) * np.arange(1, 21)  # t = 2, 4, ..., 2^20
    log_u = np.log(2.0) * np.arange(10, 41)  # u = 2^10 .. 2^40

    def log_H(log_v):
        first = p * log_v - np.log(p)
        if mu > 0:
            second = q * log_v + np.log(mu) - np.log(q)
            return np.logaddexp(first, second)
        return first

    estimates = []
    for lt in log_t:
        log_ratio = log_H(lt + log_u) - log_H(log_u)
        log_M = np.max(log_ratio)  # limsup over the u grid
        estimates.append(log_M / lt)
    return min(estimates)


@pytest.mark.parametrize(
    "p,q,mu,expected",
    [(2.0, 3.0, 1.0, 3.0), (2.0, 3.0, 0.0, 2.0), (4.0, 2.0, 5.0, 4.0)],
)
def test_matuszewska_closed_form(p, q, mu, expected):
    ph = make_phase(GRID, p, [(q, mu)])
    assert matuszewska_index(ph, 0) == expected
    assert abs(numeric_matuszewska(p, q, mu) - expected) <= 1e-3


def test_matuszewska_oracle_sweep():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = float(rng.uniform(1.1, 5.0))
        if rng.random() < 0.25:
            q, mu = p, float(rng.uniform(0.5, 10.0))
        else:
            # keep |p - q| >= 0.5 so the fixed (t, u) oracle grid resolves max(p, q)
            down_ok = p - 0.5 >= 1.1
            up_ok = p + 0.5 <= 5.0
            go_down = down_ok and (not up_ok or rng.random() < 0.5)
            if go_down:
                q = float(rng.uniform(1.1, p - 0.5))
            else:
                q = float(rng.uniform(p + 0.5, 5.0))
            mu = float(rng.uniform(0.5, 10.0))
        ph = make_phase(GRID, p, [(q, mu)])
        closed = matuszewska_index(ph, 0)
        assert abs(closed - numeric_matuszewska(p, q, mu)) <= 1e-3


def test_vanishing_weight_writes_exponent_two():
    # where mu_j = 0 the integrand table's q_j-term has exponent 0 and the flux
    # table's exponent 2; the sampled exponents, and so the summary, keep q_j
    mu = np.where(GRID.cell_centers()[:, 0] < 0.5, 0.0, 1.0)
    ph = make_phase(GRID, 1.5, [(200.0, mu)])
    for bar, vanishing in ((False, 0.0), (True, 2.0)):
        _, (r, c) = ph.terms(bar=bar)
        assert np.all(r == np.where(mu > 0.0, 200.0, vanishing))
        assert np.all(c[mu == 0.0] == 0.0) and not r.flags.writeable
    assert ph.summary.q_minus == (200.0,) and ph.summary.m == 1.5


def test_vanishing_weight_term_reads_zero_where_its_power_overflows():
    # 100^200 overflows: a term 0 * 100^200 would read NaN (and warn)
    ph = make_phase(GRID, 1.5, [(200.0, 0.0)])
    t = np.full(GRID.n_cells, 100.0)
    assert np.all(ph.h_of(t) == pytest.approx(100.0**1.5 / 1.5, rel=1e-15))
    assert np.all(ph.h_of(t, bar=True) == 100.0**1.5)
    assert np.all(ph.flux_coefficient(t) == 100.0**-0.5)
    # an overflowed magnitude: the integrand reads inf, not 0 * inf = NaN
    assert np.all(ph.h_of(np.full(GRID.n_cells, np.inf)) == np.inf)
