import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import convexity
from doublephase.convexity import (
    VERDICTS,
    _uc_modulars,
    admissible_epsilon_bound,
    _energy_floor,
    _monotonicity_tally,
    _two_point_tally,
    delta_of_epsilon,
    pair_split,
    partition,
    sweep_monotonicity,
    sweep_two_point,
    sweep_uc_pairs,
    uc_verdicts,
    verify_uc_pair,
)
from doublephase.mesh import ScalarField, build_grid
from doublephase.modular import KINDS, rho
from doublephase.phase import power_flux_coefficient
from test_phase import make_phase

GRID = build_grid(1, [(0, 1)], [12])


def test_partition_examples():
    part = partition(make_phase(GRID, 1.5, [(1.5, 1.0)]))
    assert np.all(part.omega11)
    part = partition(make_phase(GRID, 3.0, [(1.5, 1.0)]))
    assert np.all(part.omega21)
    part = partition(make_phase(GRID, 2.0, [(2.0, 1.0)]))
    assert np.all(part.omega22)  # ties at 2 go to the >= 2 side
    part = partition(make_phase(GRID, 1.5, [(2.5, 1.0)]))
    assert np.all(part.omega12)


def test_partition_covers_disjointly():
    rng = np.random.default_rng(0)
    ph = make_phase(
        GRID, rng.uniform(1.2, 3.0, GRID.n_cells),
        [(rng.uniform(1.2, 3.0, GRID.n_cells), 1.0)],
    )
    part = partition(ph)
    total = (
        part.omega11.astype(int) + part.omega12.astype(int)
        + part.omega21.astype(int) + part.omega22.astype(int)
    )
    assert np.all(total == 1)


def test_pair_split_examples():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    part = partition(ph)
    rng = np.random.default_rng(1)
    u = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
    same = pair_split(u, u, 0.5, part)
    assert np.all(same.g_mask)
    neg = ScalarField(GRID, -u.values)
    split = pair_split(u, neg, 3.9, part)
    assert np.all(split.e_mask)  # |2 grad u| > (alpha/4)(2 |grad u|) iff alpha < 4
    split4 = pair_split(u, neg, 4.0, part)
    assert np.all(split4.g_mask)  # ties go to the G side
    zero = ScalarField.zeros(GRID)
    both_flat = pair_split(zero, zero, 1.0, part)
    assert np.all(both_flat.g_mask)


def test_two_point_equality_cases():
    rng = np.random.default_rng(2)
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    assert not _two_point_tally(2.0, a, b)[0].any()
    # parallelogram identity: both left-hand forms equal the right at h = 2
    from doublephase.convexity import _correction_term, _power_mean_term, _two_point_sides

    _, rhs = _two_point_sides(2.0, a, b)
    head = np.linalg.norm((a + b) / 2.0) ** 2 / 2.0
    nhalf = np.linalg.norm((a - b) / 2.0)
    total = np.linalg.norm(a) + np.linalg.norm(b)
    assert head + _correction_term(2.0, nhalf, total) == pytest.approx(rhs[0], rel=1e-12)
    assert head + _power_mean_term(2.0, nhalf) == pytest.approx(rhs[0], rel=1e-12)
    assert not _two_point_tally(3.7, a, a)[0].any()  # equality at a == b


def test_two_point_sweep_small():
    out = sweep_two_point(50_000, seed=3)
    assert out["fails"] == 0


def test_delta_of_epsilon():
    assert delta_of_epsilon(0.5, 2.0) == pytest.approx(0.0078125)
    assert delta_of_epsilon(0.5, 17.0) == pytest.approx(0.125)
    with pytest.raises(ValueError, match="eps must lie"):
        delta_of_epsilon(1.2, 2.0)
    # for large m the admissible range shrinks below 1
    assert admissible_epsilon_bound(129.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        delta_of_epsilon(0.5, 129.0)
    # monotone nondecreasing in eps on the admissible range
    for m in (1.5, 3.0, 40.0):
        bound = admissible_epsilon_bound(m)
        eps = np.linspace(0.01, 0.99, 50) * bound
        deltas = [delta_of_epsilon(float(e), m) for e in eps]
        assert np.all(np.diff(deltas) >= 0)
        assert all(0 < d < 1 for d in deltas)


def test_verify_uc_pair_trivial_cases():
    ph = make_phase(GRID, 1.8, [(2.5, 1.0)])
    rng = np.random.default_rng(4)
    u = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
    report = verify_uc_pair(u, u, 0.5, ph, "gradient")
    assert report.verdict == "vacuous"
    neg = ScalarField(GRID, -u.values)
    report = verify_uc_pair(u, neg, 0.5, ph, "gradient")
    assert report.verdict == "pass"
    assert report.midpoint_value == 0.0


def test_uc_sweep_no_fails():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(4, 40))
        grid = build_grid(1, [(0, 1)], [n])
        ph = make_phase(
            grid,
            rng.uniform(1.1, 5.0, grid.n_cells),
            [(rng.uniform(1.1, 5.0, grid.n_cells), rng.uniform(0, 10, grid.n_cells))],
        )
        tallies = sweep_uc_pairs(ph, 10, seed=int(rng.integers(0, 2**31)),
                                 kinds=("gradient", "zero_order", "sobolev"))
        for kind in tallies:
            assert tallies[kind]["fail"] == 0


def test_multiphase_with_vanishing_weight_matches_double_phase():
    rng = np.random.default_rng(6)
    q = rng.uniform(1.3, 4.0, GRID.n_cells)
    mu = rng.uniform(0.0, 5.0, GRID.n_cells)
    p = rng.uniform(1.3, 4.0, GRID.n_cells)
    two = make_phase(GRID, p, [(q, mu)])
    three = make_phase(GRID, p, [(q, mu), (q, np.zeros(GRID.n_cells))])
    u = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
    v = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
    r2 = verify_uc_pair(u, v, 0.4, two, "gradient")
    r3 = verify_uc_pair(u, v, 0.4, three, "gradient")
    assert r3.verdict == r2.verdict
    assert r3.midpoint_value == pytest.approx(r2.midpoint_value, rel=1e-14)
    assert r3.delta == r2.delta
    report_same = verify_uc_pair(u, u, 0.4, three, "gradient")
    assert report_same.verdict == "vacuous"


def test_monotonicity_check():
    rng = np.random.default_rng(7)
    A = rng.normal(size=2)
    assert not _monotonicity_tally(3.0, A, A)[0].any()
    # r = 2: lhs = |A - B|^2 and gamma(2) = 1, equality
    B = rng.normal(size=2)
    from doublephase.convexity import monotonicity_sides

    lhs, rhs = monotonicity_sides(2.0, A, B)
    assert lhs[0] == pytest.approx(rhs[0], rel=1e-12)
    assert not _monotonicity_tally(2.0, A, B)[0].any()
    out = sweep_monotonicity(50_000, seed=8)
    assert out["fails"] == 0


def test_monotonicity_pairing_where_the_squared_norm_overflows():
    # |A|^2 overflows, |A| does not: the flux coefficient |A|^(r-2) read from
    # an overflowed square is 0 below r = 2, and the pairing of the monotone
    # flux came out -1e155
    A, B = np.array([[1e155, 1e155]]), np.array([[1.0, 0.0]])
    norm = math.hypot(1e155, 1e155)
    ref = sum((norm**-0.5 * a - b) * (a - b) for a, b in zip(A[0], B[0]))
    with np.errstate(all="ignore"):
        lhs, _ = convexity.monotonicity_sides(1.5, A, B)
    assert lhs[0] == pytest.approx(ref, rel=1e-12)


def test_monotonicity_check_uses_the_sweep_rule(monkeypatch):
    # a small row next to a large one: a slack from the squared norms of all
    # rows would hide a violation that the sweep's per-row slack flags
    A = np.array([[1e-3, 0.0], [1e4, 0.0]])
    B = np.array([[0.0, 1e-3], [0.0, 1e4]])
    original = convexity.monotonicity_sides

    def violated_row0(r, A, B):
        lhs, rhs = original(r, A, B)
        lhs = lhs.copy()
        lhs[0] = rhs[0] - 1e-9 * (1.0 + abs(rhs[0]))
        return lhs, rhs

    assert _monotonicity_tally(3.0, A, B)[0].tolist() == [False, False]
    monkeypatch.setattr(convexity, "monotonicity_sides", violated_row0)
    flagged, _ = _monotonicity_tally(3.0, A, B)
    assert flagged.tolist() == [True, False]


def scalar_floor_holds(x, a, m):
    """x - a x^(1/m) >= -a (a/m)^(1/(m-1)), the scalar bound under the energy floor."""
    return x - a * x ** (1.0 / m) >= -_energy_floor(a, m) - 1e-12


def test_scalar_lower_bound():
    assert scalar_floor_holds(5.0, 0.0, 2.0)
    assert scalar_floor_holds(0.0, 3.0, 2.0)
    # at the interior minimizer the slack is (1 - 1/m) of the bound
    for m in (1.5, 2.0, 4.0):
        a = 2.0
        x_star = (a / m) ** (m / (m - 1.0))
        assert scalar_floor_holds(x_star, a, m)
        lhs = x_star - a * x_star ** (1.0 / m)
        rhs = -a * (a / m) ** (1.0 / (m - 1.0))
        assert -_energy_floor(a, m) == pytest.approx(rhs, rel=1e-15)
        assert lhs - rhs == pytest.approx(-rhs / m, rel=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(2000):
        x = float(rng.uniform(0, 100))
        a = float(rng.uniform(0, 10))
        m = float(np.nextafter(rng.uniform(1.0, 8.0), np.inf))
        assert scalar_floor_holds(x, a, m)


def test_restricted_modular_set_identity():
    rng = np.random.default_rng(10)
    for _ in range(15):
        ph = make_phase(
            GRID,
            rng.uniform(1.2, 3.5, GRID.n_cells),
            [(rng.uniform(1.2, 3.5, GRID.n_cells), rng.uniform(0, 4, GRID.n_cells))],
        )
        part = partition(ph)
        u = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
        v = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
        eps = float(rng.uniform(0.05, 0.95))
        split = pair_split(u, v, eps, part)
        half = ScalarField(GRID, (u.values - v.values) / 2.0)
        outside = ~(part.omega22 | split.g_mask)
        assert np.all(outside == (split.a_mask | split.b_mask | split.c_mask))
        lhs = rho(half, ph, "gradient", mask=outside)
        parts = [
            rho(half, ph, "gradient", mask=m)
            for m in (split.a_mask, split.b_mask, split.c_mask)
        ]
        assert lhs == pytest.approx(sum(parts), rel=1e-13, abs=1e-15)


def test_component_estimates():
    # the three masked midpoint estimates hold for every pair once the split
    # threshold matches eps; no hypothesis on the pair is needed
    rng = np.random.default_rng(11)
    for _ in range(25):
        ph = make_phase(
            GRID,
            rng.uniform(1.15, 3.5, GRID.n_cells),
            [(rng.uniform(1.15, 3.5, GRID.n_cells), rng.uniform(0, 4, GRID.n_cells))],
        )
        s = ph.summary
        part = partition(ph)
        u = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
        v = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
        eps = float(rng.uniform(0.05, 0.95))
        split = pair_split(u, v, eps, part)
        mid = ScalarField(GRID, (u.values + v.values) / 2.0)
        half = ScalarField(GRID, (u.values - v.values) / 2.0)
        cases = [
            (split.a_mask, (s.q_minus_global - 1.0) * eps / 8.0),
            (split.b_mask, (s.p_minus - 1.0) * eps / 8.0),
            (split.c_mask, (s.m - 1.0) * eps / 8.0),
        ]
        for mask, constant in cases:
            lhs = (
                rho(mid, ph, "gradient", mask=mask)
                + constant * rho(half, ph, "gradient", mask=mask)
            )
            rhs = 0.5 * (
                rho(u, ph, "gradient", mask=mask)
                + rho(v, ph, "gradient", mask=mask)
            )
            assert lhs <= rhs + 1e-12 * (1.0 + rhs)


def test_gap_concentration_estimate():
    # when the gap concentrates outside omega22, the split keeps at least half
    # of the lower bound outside G_eps as well
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(400):
        ph = make_phase(
            GRID,
            rng.uniform(1.15, 3.5, GRID.n_cells),
            [(rng.uniform(1.15, 3.5, GRID.n_cells), rng.uniform(0, 4, GRID.n_cells))],
        )
        part = partition(ph)
        u = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
        v = ScalarField(GRID, rng.normal(size=GRID.n_nodes))
        eps = float(rng.uniform(0.05, 0.95))
        half = ScalarField(GRID, (u.values - v.values) / 2.0)
        avg = 0.5 * (rho(u, ph, "gradient") + rho(v, ph, "gradient"))
        outside22 = ~part.omega22
        if rho(half, ph, "gradient", mask=outside22) <= 0.5 * eps * avg:
            continue
        checked += 1
        split = pair_split(u, v, eps, part)
        target = ~(part.omega22 | split.g_mask)
        lhs = rho(half, ph, "gradient", mask=target)
        assert lhs >= 0.25 * eps * avg - 1e-12 * (1.0 + avg)
    assert checked > 20  # the hypothesis fires often enough to be meaningful


def per_pair_sweep(grid, phase, n_samples, seed, kinds, eps):
    """The sweep as one ``verify_uc_pair`` call per sample and kind, with the
    draws of ``sweep_uc_pairs``; returns the tallies and the drawn u, v rows."""
    rng = np.random.default_rng(seed)
    bound = admissible_epsilon_bound(phase.summary.m)
    tallies = {kind: {"pass": 0, "vacuous": 0, "fail": 0} for kind in kinds}
    us, vs = [], []
    for _ in range(n_samples):
        scale_u = 10.0 ** rng.uniform(-1, 1)
        scale_v = 10.0 ** rng.uniform(-1, 1)
        u = ScalarField(grid, scale_u * rng.normal(size=grid.n_nodes))
        v = ScalarField(grid, scale_v * rng.normal(size=grid.n_nodes))
        e = eps if eps is not None else float(rng.uniform(0.02, 0.98) * min(1.0, bound))
        for kind in kinds:
            tallies[kind][verify_uc_pair(u, v, e, phase, kind).verdict] += 1
        us.append(u.values)
        vs.append(v.values)
    return tallies, np.array(us), np.array(vs)


def assert_uc_modulars_equal_rho(grid, phase, us, vs, kinds):
    """Batched midpoint, average and gap modulars == rho of each pair."""
    modulars = _uc_modulars(us, vs, phase, kinds)
    for i, (u, v) in enumerate(zip(us, vs)):
        for kind in kinds:
            midpoint, average, gap = (values[i] for values in modulars[kind])
            ru, rv, rmid, rhalf = (
                rho(ScalarField(grid, w), phase, kind)
                for w in (u, v, (u + v) / 2.0, (u - v) / 2.0)
            )
            assert midpoint == rmid
            assert average == (ru + rv) / 2.0
            assert gap == rhalf


def random_phase(grid, rng, n_phases):
    n = grid.n_cells
    mus = [rng.uniform(0.0, 3.0, n) * (rng.uniform(size=n) > 0.3) for _ in range(n_phases)]
    return make_phase(
        grid, rng.uniform(1.1, 5.0, n), [(rng.uniform(1.1, 5.0, n), mu) for mu in mus]
    )


@settings(max_examples=40, deadline=None)
@given(
    resolution=st.lists(st.integers(2, 6), min_size=1, max_size=2),
    n_phases=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True),
    eps=st.none() | st.floats(0.05, 0.9),
    chunk=st.integers(2, 5),
    count=st.sampled_from(["one", "chunk-1", "chunk+1", "non-multiple"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_sweep_matches_per_pair_sweep(
    resolution, n_phases, kinds, eps, chunk, count, seed
):
    dim = len(resolution)
    grid = build_grid(dim, [(0.0, 1.0), (-0.5, 1.5)][:dim], resolution)
    rng = np.random.default_rng(seed)
    phase = random_phase(grid, rng, n_phases)
    n_samples = {
        "one": 1,
        "chunk-1": chunk - 1,
        "chunk+1": chunk + 1,
        "non-multiple": 2 * chunk + 1 + int(rng.integers(0, chunk - 1)),
    }[count]
    kinds = tuple(kinds)
    with mock.patch.object(convexity, "UC_CHUNK_NODES", chunk * grid.n_nodes):
        tallies = sweep_uc_pairs(phase, n_samples, seed, kinds=kinds, eps=eps)
    expected, us, vs = per_pair_sweep(grid, phase, n_samples, seed, kinds, eps)
    assert tallies == expected
    assert_uc_modulars_equal_rho(grid, phase, us, vs, kinds)


def test_sweep_at_the_default_chunk_matches_per_pair_sweep():
    grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    phase = random_phase(grid, np.random.default_rng(13), 2)
    chunk = convexity.UC_CHUNK_NODES // grid.n_nodes
    assert chunk > 1
    tallies = sweep_uc_pairs(phase, chunk + 1, 5, kinds=KINDS)
    expected, us, vs = per_pair_sweep(grid, phase, chunk + 1, 5, KINDS, None)
    assert tallies == expected
    assert sum(expected["gradient"].values()) == chunk + 1
    assert_uc_modulars_equal_rho(grid, phase, us[:3], vs[:3], KINDS)


def test_uc_verdicts_rule():
    # vacuous at gap == threshold, pass within the slack, fail beyond it
    average = np.array([2.0, 2.0, 2.0, 2.0])
    eps, delta = 0.5, 0.125
    gap = np.array([1.0, 1.5, 1.5, 1.5])
    midpoint = np.array([9.0, 1.75, 1.75 + 2e-12, 1.75 + 1e-10])
    verdicts, threshold = uc_verdicts(midpoint, average, gap, eps, delta)
    assert [VERDICTS[i] for i in verdicts] == ["vacuous", "pass", "pass", "fail"]
    np.testing.assert_array_equal(threshold, eps * average)


def test_two_point_check_applies_the_sweep_rule():
    # one pair is checked as a sweep chunk of one row: its verdict is the one
    # its row gets in a chunk, at h = 2 exactly, on rows with a zero vector,
    # and on rows whose sides overflow
    rng = np.random.default_rng(12)
    hs = [2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0), 1.5, 3.7, 400.0]
    hs += list(rng.uniform(1.01, 12.0, 20))
    seen = set()
    for h in hs:
        for amplitude in (1e-3, 1.0, 10.0, 1e3):
            a = rng.uniform(-amplitude, amplitude, (8, 2))
            b = rng.uniform(-amplitude, amplitude, (8, 2))
            b[0] = 0.0
            violated, _ = _two_point_tally(h, a, b)
            for i in range(len(a)):
                alone, _ = _two_point_tally(h, a[i], b[i])
                assert alone.tolist() == [violated[i]]
                seen.add(bool(alone[0]))
    assert seen == {True, False}  # overflowed rows fail


def _two_point_tally_both_forms(h, a, b):
    # the former rule: both left-hand forms on every row, one kept per row
    with np.errstate(all="ignore"):
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
        lhs = np.where(h <= 2.0, lhs_i, lhs_ii)
        holds = np.isfinite(lhs) & np.isfinite(rhs) & (lhs <= rhs + convexity.REL_SLACK * (1.0 + rhs))
        return ~holds, (lhs - rhs) / (1.0 + rhs)


@pytest.mark.parametrize("exponent_max", [8.0, 1e3])
def test_two_point_tally_matches_both_forms_rule(exponent_max):
    # one 200k-row sweep chunk, drawn as ``_sweep`` draws it
    rng = np.random.default_rng(21)
    h = np.nextafter(rng.uniform(1.0, exponent_max, 200_000), np.inf)
    a = rng.uniform(-10.0, 10.0, (200_000, 2))
    b = rng.uniform(-10.0, 10.0, (200_000, 2))
    # rows with one or both vectors zero
    a[:100] = 0.0
    b[:50] = 0.0
    violated, excess = convexity._two_point_tally(h, a, b)
    ref_violated, ref_excess = _two_point_tally_both_forms(h, a, b)
    np.testing.assert_array_equal(violated, ref_violated)
    assert excess.tobytes() == ref_excess.tobytes()


def _flux_terms(r, A):
    # the former flux: |A|^(r-2) A through an axis sum
    return power_flux_coefficient(np.sqrt(np.sum(A**2, axis=-1)), r)[..., None] * A


def _monotonicity_sides_both_bounds(r, A, B):
    # the former sides: axis sums, both bounds on every row, one kept per row
    r = np.asarray(r, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    diff = A - B
    lhs = np.sum((_flux_terms(r, A) - _flux_terms(r, B)) * diff, axis=-1)
    ndiff = np.sqrt(np.sum(diff**2, axis=-1))
    base = 1.0 + np.sum(A**2, axis=-1) + np.sum(B**2, axis=-1)
    high = 2.0 ** (2.0 - r) * ndiff**r
    low = (r - 1.0) * ndiff**2 * base ** ((r - 2.0) / 2.0)
    return lhs, np.where(r >= 2.0, high, low)


def _monotonicity_tally_both_bounds(r, A, B):
    with np.errstate(all="ignore"):
        lhs, rhs = _monotonicity_sides_both_bounds(r, A, B)
        slack = convexity.REL_SLACK * (1.0 + np.sum(A**2, axis=-1) + np.sum(B**2, axis=-1))
        holds = np.isfinite(lhs) & np.isfinite(rhs) & (lhs >= rhs - slack)
        return ~holds, (rhs - lhs) / (1.0 + np.abs(rhs))


def _sweep_chunk(seed, exponent_max, size=200_000):
    # one sweep chunk, drawn as ``_sweep`` draws it
    rng = np.random.default_rng(seed)
    h = np.nextafter(rng.uniform(1.0, exponent_max, size), np.inf)
    a = rng.uniform(-10.0, 10.0, (size, 2))
    b = rng.uniform(-10.0, 10.0, (size, 2))
    return h, a, b


@pytest.mark.parametrize("exponent_max", [8.0, 1e3])
def test_monotonicity_tally_matches_both_bounds_rule(exponent_max):
    r, A, B = _sweep_chunk(22, exponent_max)
    A[:100] = 0.0  # rows with one or both vectors zero
    B[:50] = 0.0
    B[100:200] = A[100:200]  # A == B
    r[200:300] = 2.0  # both bounds meet; an elementwise power, not a square
    violated, excess = convexity._monotonicity_tally(r, A, B)
    ref_violated, ref_excess = _monotonicity_tally_both_bounds(r, A, B)
    assert violated.tobytes() == ref_violated.tobytes()
    assert excess.tobytes() == ref_excess.tobytes()


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_monotonicity_sides_match_both_bounds_at_a_scalar_exponent(r, dim):
    # a scalar r broadcasts to every row: the bits of the same r given per
    # row, whose elementwise power at r = 2 need not equal numpy's squaring
    _, A, B = _sweep_chunk(23, 8.0, 20_000)
    A, B = A[:, :dim], B[:, :dim]
    A[:10] = 0.0
    B[10:20] = A[10:20]
    got = convexity.monotonicity_sides(r, A, B)
    ref = _monotonicity_sides_both_bounds(np.full(len(A), r), A, B)
    for x, y in zip(got, ref):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


# tracemalloc peaks of one 200k-row chunk under the former axis-sum forms,
# measured by this test (numpy 2.4): the component-wise forms must not hold
# more temporaries.  The allowance covers Python-object bookkeeping, which
# moves by a few bytes with the caller; one row of temporaries is 1.6 MB.
FORMER_TALLY_PEAK_BYTES = {"_monotonicity_tally": 14_401_192, "_two_point_tally": 17_116_752}
BOOKKEEPING_BYTES = 2**16


@pytest.mark.parametrize("tally", sorted(FORMER_TALLY_PEAK_BYTES))
def test_tally_peak_memory_of_one_chunk(tally):
    h, a, b = _sweep_chunk(21, 8.0)
    getattr(convexity, tally)(h, a, b)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        getattr(convexity, tally)(h, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= FORMER_TALLY_PEAK_BYTES[tally] + BOOKKEEPING_BYTES


@pytest.mark.parametrize("tally", ["_two_point_tally", "_monotonicity_tally"])
def test_tallies_fail_overflowed_rows(tally):
    # finite rows keep their verdicts; an overflowed row fails, without a
    # RuntimeWarning (which the test settings turn into an error)
    h = np.array([3.0, 3.0, 900.0, 900.0])
    a = np.array([[1.0, 0.5], [0.2, -0.3], [9.0, 4.0], [-7.0, 8.0]])
    b = np.array([[-0.5, 2.0], [0.1, 0.1], [3.0, -6.0], [2.0, 2.0]])
    violated, excess = getattr(convexity, tally)(h, a, b)
    assert violated.tolist() == [False, False, True, True]
    assert np.all(np.isfinite(excess[:2]))


@pytest.mark.parametrize("sweep", [sweep_two_point, sweep_monotonicity])
def test_sweeps_count_overflowed_rows_as_fails(sweep):
    # with exponents up to 1e3 most rows overflow; the worst excess is read
    # off the finite rows only
    out = sweep(2000, 4, 1e3)
    assert 0 < out["fails"] < 2000
    assert np.isfinite(out["worst_relative_excess"])


def _phase_q200(mu):
    grid = build_grid(1, [(0, 1)], [16])
    mu = mu(grid.cell_centers()[:, 0])
    return grid, make_phase(grid, 1.5, [(200.0, mu)])


def test_sweep_uc_pairs_has_no_false_fails_where_the_weight_vanishes():
    # mu = 0: the q-term is 0, so the modular is the p-modular, which is
    # uniformly convex; a term 0 * inf read NaN and failed 18 of 20 pairs
    grid, ph = _phase_q200(np.zeros_like)
    tallies = sweep_uc_pairs(ph, 20, 0, kinds=KINDS)
    assert all(t["fail"] == 0 for t in tallies.values())
    assert sum(t["pass"] for t in tallies.values()) > 0


def test_sweep_uc_pairs_counts_overflowed_pairs_vacuous_silently():
    # mu = x, q = 200: every modular of a drawn pair overflows to inf, which
    # bounds nothing; the pair is vacuous and no RuntimeWarning escapes
    grid, ph = _phase_q200(lambda x: x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tallies = sweep_uc_pairs(ph, 20, 0, kinds=KINDS)
    assert tallies == {kind: {"pass": 0, "vacuous": 20, "fail": 0} for kind in KINDS}
