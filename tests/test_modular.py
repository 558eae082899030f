import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import modular
from doublephase.mesh import ScalarField, boundary_mask, build_grid
from doublephase.modular import (
    KINDS,
    _luxemburg,
    dual_pairing_bound_check,
    estimate_dual_bound,
    l2_pairing,
    luxemburg_norm,
    norm_report,
    poincare_ratio,
    rho,
    sweep_sandwich,
)
from test_phase import make_phase

GRID = build_grid(1, [(0, 1)], [16])


def random_phase(rng, grid, k=1, mu_low=0.0):
    n = grid.n_cells
    pairs = [
        (rng.uniform(1.1, 5.0, n), rng.uniform(mu_low, 10.0, n)) for _ in range(k)
    ]
    return make_phase(grid, rng.uniform(1.1, 5.0, n), pairs)


def random_field(rng, grid, scale=1.0, zero_trace=False):
    vals = scale * rng.normal(size=grid.n_nodes)
    if zero_trace:
        vals[boundary_mask(grid)] = 0.0
    return ScalarField(grid, vals)


def test_zero_field_all_kinds():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    u = ScalarField.zeros(GRID)
    for kind in ("zero_order", "gradient", "sobolev"):
        assert rho(u, ph, kind).value == 0.0
        assert luxemburg_norm(u, ph, kind) == 0.0


def test_constant_field_gradient_kind():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    u = ScalarField(GRID, np.full(GRID.n_nodes, 2.5))
    assert rho(u, ph, "gradient").value == 0.0
    assert luxemburg_norm(u, ph, "gradient") == 0.0


def test_quadratic_closed_form():
    # p = q = 2, mu = 0 on the unit interval: rho(c) = c^2/2, norm = c/sqrt(2)
    ph = make_phase(GRID, 2.0, [(2.0, 0.0)])
    c = 1.7
    u = ScalarField(GRID, np.full(GRID.n_nodes, c))
    assert rho(u, ph, "zero_order").value == pytest.approx(c**2 / 2, rel=1e-13)
    assert luxemburg_norm(u, ph, "zero_order") == pytest.approx(c / np.sqrt(2), rel=1e-12)


def test_sobolev_is_exact_sum():
    rng = np.random.default_rng(0)
    ph = random_phase(rng, GRID)
    u = random_field(rng, GRID)
    r0 = rho(u, ph, "zero_order")
    r1 = rho(u, ph, "gradient")
    rs = rho(u, ph, "sobolev")
    assert np.allclose(rs.cell_values, r0.cell_values + r1.cell_values, rtol=1e-15)


def test_modular_symmetry_and_convexity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ph = random_phase(rng, GRID)
        u = random_field(rng, GRID, scale=rng.uniform(0.1, 5.0))
        v = random_field(rng, GRID, scale=rng.uniform(0.1, 5.0))
        for kind in ("zero_order", "gradient", "sobolev"):
            ru = rho(u, ph, kind).value
            rneg = rho(ScalarField(GRID, -u.values), ph, kind).value
            assert rneg == pytest.approx(ru, rel=1e-14)
            rv = rho(v, ph, kind).value
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                mid = ScalarField(GRID, alpha * u.values + (1 - alpha) * v.values)
                rmid = rho(mid, ph, kind).value
                assert rmid <= alpha * ru + (1 - alpha) * rv + 1e-12 * (1 + ru + rv)


def test_unit_ball_characterization_and_homogeneity():
    rng = np.random.default_rng(2)
    for _ in range(40):
        ph = random_phase(rng, GRID)
        u = random_field(rng, GRID, scale=10.0 ** rng.uniform(-2, 2))
        kind = ("zero_order", "gradient", "sobolev")[rng.integers(0, 3)]
        norm = luxemburg_norm(u, ph, kind)
        assert norm > 0
        scaled = ScalarField(GRID, u.values / norm)
        assert abs(rho(scaled, ph, kind).value - 1.0) <= 1e-9
        c = float(rng.uniform(0.1, 10.0)) * (1 if rng.random() < 0.5 else -1)
        cu = ScalarField(GRID, c * u.values)
        assert luxemburg_norm(cu, ph, kind) == pytest.approx(abs(c) * norm, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 2),
    resolution=st.integers(2, 8),
    kind=st.sampled_from(KINDS),
    q=st.floats(1.01, 8.0),
    k=st.integers(-60, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_luxemburg_unit_modular_and_homogeneity_across_scales(
    dim, resolution, kind, q, k, seed
):
    # fields from 1e-60 to 1e60 with exponents up to 8: the modular of the
    # unscaled field ranges far outside float range, the norm must not
    rng = np.random.default_rng(seed)
    grid = build_grid(dim, [(0, 1)] * dim, [resolution] * dim)
    n = grid.n_cells
    ph = make_phase(grid, rng.uniform(1.01, q, n), [(q, rng.uniform(0.0, 10.0, n))])
    u = rng.normal(size=grid.n_nodes)
    c = 10.0**k
    norm = luxemburg_norm(ScalarField(grid, c * u), ph, kind)
    assert np.isfinite(norm) and norm > 0
    assert abs(rho(ScalarField(grid, c * u / norm), ph, kind).value - 1.0) <= 1e-10
    base = luxemburg_norm(ScalarField(grid, u), ph, kind)
    assert norm == pytest.approx(c * base, rel=1e-12)


def test_sandwich_unit_modular_fixed_point():
    # scale a field so that rho(u) = 1; then lower = upper = norm = 1
    rng = np.random.default_rng(3)
    ph = random_phase(rng, GRID)
    u = random_field(rng, GRID)
    norm = luxemburg_norm(u, ph, "zero_order")
    unit = ScalarField(GRID, u.values / norm)
    report = norm_report(unit, ph, "zero_order")
    assert report.sandwich_holds
    assert report.modular == pytest.approx(1.0, abs=1e-10)
    assert report.sandwich_lower == pytest.approx(1.0, abs=1e-9)
    assert report.sandwich_upper == pytest.approx(1.0, abs=1e-9)
    assert report.norm == pytest.approx(1.0, abs=1e-9)


def test_sandwich_hilbert_case():
    ph = make_phase(GRID, 2.0, [(2.0, 0.0)])
    rng = np.random.default_rng(4)
    u = random_field(rng, GRID)
    report = norm_report(u, ph, "zero_order")
    assert report.sandwich_holds
    assert report.sandwich_lower == pytest.approx(report.sandwich_upper, rel=1e-14)
    assert luxemburg_norm(u, ph, "zero_order") == pytest.approx(report.sandwich_lower, rel=1e-10)
    assert report.norm == luxemburg_norm(u, ph, "zero_order")
    assert report.modular == rho(u, ph, "zero_order").value


def test_sandwich_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ph = random_phase(rng, GRID)
        u = random_field(rng, GRID, scale=10.0 ** rng.uniform(-2, 2))
        kind = ("zero_order", "gradient", "sobolev")[rng.integers(0, 3)]
        assert norm_report(u, ph, kind).sandwich_holds


def test_overline_equivalence():
    ph = make_phase(GRID, 2.0, [(2.0, 0.0)])
    assert norm_report(ScalarField.zeros(GRID), ph, "zero_order").overline_holds
    rng = np.random.default_rng(6)
    for _ in range(100):
        ph = random_phase(rng, GRID)
        u = random_field(rng, GRID, scale=10.0 ** rng.uniform(-1, 1))
        kind = ("zero_order", "gradient", "sobolev")[rng.integers(0, 3)]
        assert norm_report(u, ph, kind).overline_holds


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 2),
    k=st.integers(1, 2),
    kind=st.sampled_from(KINDS),
    scale=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_report_equals_separate_evaluations(dim, k, kind, scale, seed):
    # one pass over the magnitudes gives the same floats as rho and the roots
    rng = np.random.default_rng(seed)
    grid = build_grid(dim, [(0, 1)] * dim, [6] * dim)
    ph = random_phase(rng, grid, k=k)
    u = random_field(rng, grid, scale=10.0**scale)
    report = norm_report(u, ph, kind)
    assert report.kind == kind
    assert report.modular == rho(u, ph, kind).value
    assert report.norm == luxemburg_norm(u, ph, kind)
    if k == 1:
        assert report.bar_norm == _luxemburg(u.values, grid, ph, kind, bar=True)
        assert report.overline_holds is True
    else:
        assert report.bar_norm is None and report.overline_holds is None
    assert report.sandwich_holds


def _sandwich_loop_reference(grid, ph, n_samples, seed):
    """The per-sample check-sandwich loop as the CLI ran it, from primitives.

    Draws scale, u, kind and c per sample; a sample fails unless the
    sandwich, rho(u / norm) = 1 to 1e-9, homogeneity to 1e-12 and (k = 1)
    the overline band hold.
    """
    rng = np.random.default_rng(seed)
    fails = checks = 0
    s = ph.summary
    for _ in range(n_samples):
        scale = 10.0 ** rng.uniform(-2, 2)
        u = ScalarField(grid, scale * rng.normal(size=grid.n_nodes))
        kind = ("zero_order", "gradient", "sobolev")[int(rng.integers(0, 3))]
        value = rho(u, ph, kind).value
        lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
        upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
        norm = _luxemburg(u.values, grid, ph, kind)
        holds = lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9)
        unit_ok = True
        if norm > 0:
            unit_ok = abs(rho(ScalarField(grid, u.values / norm), ph, kind).value - 1.0) <= 1e-9
        c = float(rng.uniform(0.1, 10.0))
        scaled = modular.luxemburg_norm(ScalarField(grid, c * u.values), ph, kind)
        hom_ok = abs(scaled - c * norm) <= 1e-12 * max(1.0, c * norm)
        over_ok = True
        if ph.k == 1:
            bar = _luxemburg(u.values, grid, ph, kind, bar=True)
            slack = 1e-9 * (1.0 + norm + bar)
            over_ok = norm <= bar + slack and bar <= np.exp(1.0 / np.e) * norm + slack
        checks += 1
        if not (holds and unit_ok and hom_ok and over_ok):
            fails += 1
    return {"samples": checks, "fails": fails}


@pytest.mark.parametrize("dim,k", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sweep_sandwich_matches_the_per_sample_loop(monkeypatch, dim, k, seed):
    rng = np.random.default_rng(100 + seed)
    grid = build_grid(dim, [(0, 1)] * dim, [12] if dim == 1 else [4, 4])
    ph = random_phase(rng, grid, k=k)
    # record the homogeneity calls (they carry c u and the kind) and break
    # homogeneity for sobolev draws, so both loops see failures
    calls = []
    original = modular.luxemburg_norm

    def skewed(u, phase, kind):
        calls.append((kind, u.values.tobytes()))
        return original(u, phase, kind) * (1.0 + 1e-9 * (kind == "sobolev"))

    monkeypatch.setattr(modular, "luxemburg_norm", skewed)
    expected = _sandwich_loop_reference(grid, ph, 25, seed)
    expected_calls, calls[:] = list(calls), []
    assert sweep_sandwich(grid, ph, 25, seed) == expected
    assert calls == expected_calls
    assert 0 < expected["fails"] < 25


def test_poincare_ratio():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    x = GRID.node_coords()[:, 0]
    hat = ScalarField(GRID, np.minimum(x, 1 - x))
    ratio = poincare_ratio(hat, ph)
    assert np.isfinite(ratio) and ratio > 0
    double = ScalarField(GRID, 2 * hat.values)
    assert poincare_ratio(double, ph) == pytest.approx(ratio, rel=1e-10)
    with pytest.raises(ValueError, match="zero boundary trace"):
        poincare_ratio(ScalarField(GRID, np.ones(GRID.n_nodes)), ph)
    with pytest.raises(ValueError, match="vanishes"):
        poincare_ratio(ScalarField.zeros(GRID), ph)


def test_poincare_constant_stable_across_seeds():
    ph = make_phase(GRID, 1.8, [(2.6, 0.5)])

    def empirical_constant(seed):
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(500):
            u = random_field(rng, GRID, zero_trace=True)
            best = max(best, poincare_ratio(u, ph))
        return best

    c1 = empirical_constant(100)
    c2 = empirical_constant(200)
    assert abs(c1 - c2) <= 0.2 * max(c1, c2)


def test_dual_pairing_bound():
    rng = np.random.default_rng(7)
    ph = random_phase(rng, GRID)
    f = random_field(rng, GRID)
    u = random_field(rng, GRID, zero_trace=True)
    # scale so the gradient norm is exactly one: reduces to |<f,u>| <= a
    unit = ScalarField(GRID, u.values / luxemburg_norm(u, ph, "gradient"))
    assert dual_pairing_bound_check(ScalarField.zeros(GRID), unit, 0.0, ph)
    lhs = abs(l2_pairing(f, unit))
    assert dual_pairing_bound_check(f, unit, lhs * 1.001, ph)
    with pytest.raises(ValueError, match="hypothesis"):
        small = ScalarField(GRID, 1e-3 * unit.values)
        dual_pairing_bound_check(f, small, 1.0, ph)


def test_dual_pairing_sweep_with_estimated_bound():
    rng = np.random.default_rng(8)
    ph = make_phase(GRID, 1.7, [(2.9, 1.3)])
    f = random_field(rng, GRID)
    a = estimate_dual_bound(f, ph, n_probes=1000, seed=9)
    for _ in range(100):
        u = random_field(rng, GRID, zero_trace=True)
        norm = luxemburg_norm(u, ph, "gradient")
        scale = rng.uniform(1.0, 5.0) / norm
        probe = ScalarField(GRID, scale * u.values)
        assert dual_pairing_bound_check(f, probe, a, ph)


def test_restricted_modular_mass():
    rng = np.random.default_rng(10)
    ph = random_phase(rng, GRID)
    u = random_field(rng, GRID)
    mask = rng.random(GRID.n_cells) < 0.5
    full = rho(u, ph, "gradient")
    part = rho(u, ph, "gradient", mask=mask)
    rest = rho(u, ph, "gradient", mask=~mask)
    assert np.all(part.cell_values[~mask] == 0.0)
    assert part.value + rest.value == pytest.approx(full.value, rel=1e-13)
