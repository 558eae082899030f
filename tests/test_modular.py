import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import modular
from doublephase.mesh import ScalarField, boundary_mask, build_grid
from doublephase.modular import (
    KINDS,
    _luxemburg,
    estimate_dual_bound,
    l2_pairing,
    luxemburg_norm,
    norm_report,
    rho,
    sweep_sandwich,
)
from doublephase.solver import Problem, SolverOptions, minimize
from test_phase import make_phase

GRID = build_grid(1, [(0, 1)], [16])


def random_phase(rng, grid, k=1, mu_low=0.0):
    n = grid.n_cells
    pairs = [
        (rng.uniform(1.1, 5.0, n), rng.uniform(mu_low, 10.0, n)) for _ in range(k)
    ]
    return make_phase(grid, rng.uniform(1.1, 5.0, n), pairs)


def _root(u_values, grid, phase, kind, bar=False):
    """``_luxemburg`` of one field's nodal values."""
    mags = [modular._magnitude(u_values, grid, part) for part in modular._PARTS[kind]]
    return _luxemburg(mags, phase, kind, bar=bar)


def random_field(rng, grid, scale=1.0, zero_trace=False):
    vals = scale * rng.normal(size=grid.n_nodes)
    if zero_trace:
        vals[boundary_mask(grid)] = 0.0
    return ScalarField(grid, vals)


def _counting(monkeypatch, name):
    """Replace ``modular.<name>`` by a wrapper; return the list it appends one entry per call to."""
    calls = []
    fn = getattr(modular, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(modular, name, counting)
    return calls


def test_zero_field_all_kinds():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    u = ScalarField.zeros(GRID)
    for kind in ("zero_order", "gradient", "sobolev"):
        assert rho(u, ph, kind) == 0.0
        assert luxemburg_norm(u, ph, kind) == 0.0


def test_constant_field_gradient_kind():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    u = ScalarField(GRID, np.full(GRID.n_nodes, 2.5))
    assert rho(u, ph, "gradient") == 0.0
    assert luxemburg_norm(u, ph, "gradient") == 0.0


def test_quadratic_closed_form():
    # p = q = 2, mu = 0 on the unit interval: rho(c) = c^2/2, norm = c/sqrt(2)
    ph = make_phase(GRID, 2.0, [(2.0, 0.0)])
    c = 1.7
    u = ScalarField(GRID, np.full(GRID.n_nodes, c))
    assert rho(u, ph, "zero_order") == pytest.approx(c**2 / 2, rel=1e-13)
    assert luxemburg_norm(u, ph, "zero_order") == pytest.approx(c / np.sqrt(2), rel=1e-12)


def _cell_modulars(u, ph, kind):
    """Per-cell contributions to rho, each the modular masked to its one cell."""
    cells = np.arange(u.grid.n_cells)
    return np.array([rho(u, ph, kind, mask=cells == c) for c in cells])


def test_sobolev_is_exact_sum():
    rng = np.random.default_rng(0)
    ph = random_phase(rng, GRID)
    u = random_field(rng, GRID)
    r0, r1, rs = (_cell_modulars(u, ph, kind) for kind in ("zero_order", "gradient", "sobolev"))
    assert np.allclose(rs, r0 + r1, rtol=1e-15)


def test_modular_symmetry_and_convexity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ph = random_phase(rng, GRID)
        u = random_field(rng, GRID, scale=rng.uniform(0.1, 5.0))
        v = random_field(rng, GRID, scale=rng.uniform(0.1, 5.0))
        for kind in ("zero_order", "gradient", "sobolev"):
            ru = rho(u, ph, kind)
            rneg = rho(ScalarField(GRID, -u.values), ph, kind)
            assert rneg == pytest.approx(ru, rel=1e-14)
            rv = rho(v, ph, kind)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                mid = ScalarField(GRID, alpha * u.values + (1 - alpha) * v.values)
                rmid = rho(mid, ph, kind)
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
        assert abs(rho(scaled, ph, kind) - 1.0) <= 1e-9
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
    assert abs(rho(ScalarField(grid, c * u / norm), ph, kind) - 1.0) <= 1e-10
    base = luxemburg_norm(ScalarField(grid, u), ph, kind)
    assert norm == pytest.approx(c * base, rel=1e-12)


@pytest.mark.parametrize("c", [1e-160, 1e-170])
@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_magnitudes_below_the_square_root_of_tiny_keep_their_digits(dim, c):
    # |grad u|^2 falls below the normal floats: read as is, it loses digits
    # (1e-160) or all of them (1e-170, a norm of 0 for a field that is not null)
    grid = build_grid(dim, [(0, 1)] * dim, [16] * dim if dim == 1 else [4, 4])
    ph = make_phase(grid, 1.5, [(3.0, 1.0)])
    u = grid.node_coords() @ np.arange(1.0, dim + 1.0)  # x, or x + 2y
    base = luxemburg_norm(ScalarField(grid, u), ph, "gradient")
    norm = luxemburg_norm(ScalarField(grid, c * u), ph, "gradient")
    assert norm == pytest.approx(c * base, rel=1e-12, abs=0)


# a small domain and a large exponent: rho(u / max|part|) is tiny, and the
# first Newton step lands so far past the root that w e^(-r s) overflows
@pytest.mark.parametrize(
    "dim,side,q",
    [(2, 1e-4, 60.0), (2, 1e-8, 30.0), (1, 1e-8, 200.0), (1, 1e-300, 60.0)],
    ids=["2D-1e-4-q60", "2D-1e-8-q30", "1D-1e-8-q200", "1D-1e-300-q60"],
)
def test_luxemburg_survives_a_first_step_that_overflows(dim, side, q):
    grid = build_grid(dim, [(0, side)] * dim, [16] * dim)
    ph = make_phase(grid, 1.5, [(q, 1.0)])
    u = ScalarField(grid, np.prod(grid.node_coords(), axis=1))  # x, or x*y
    for kind in ("gradient", "sobolev"):
        norm = luxemburg_norm(u, ph, kind)
        assert np.isfinite(norm) and norm > 0
        assert abs(rho(ScalarField(grid, u.values / norm), ph, kind) - 1.0) <= 1e-10


def _former_luxemburg(u_values, grid, phase, kind):
    """The undamped Newton iteration of ``_luxemburg`` before overflow handling."""
    mags = [modular._magnitude(u_values, grid, p) for p in modular._PARTS[kind]]
    top = max(float(np.max(t)) for t in mags)
    if top == 0.0:
        return 0.0
    terms = phase.terms()
    w = np.concatenate([grid.cell_volume * c * (t / top) ** r for t in mags for r, c in terms])
    r = np.concatenate([r for r, _ in terms] * len(mags))
    keep = w > 0.0
    w, r = w[keep], r[keep]
    s = 0.0
    for _ in range(modular.MAX_NEWTON_STEPS):
        e = w * np.exp(-r * s)
        total = np.sum(e)
        step = np.log(total) * total / np.sum(r * e)
        s += step
        if abs(step) <= modular.NEWTON_STEP_TOLERANCE:
            break
    return float(top * np.exp(s))


@pytest.mark.parametrize("dim", [1, 2])
def test_luxemburg_keeps_the_undamped_newton_bits(dim):
    # wherever the undamped iteration stays finite, the norm is unchanged
    rng = np.random.default_rng(17 + dim)
    grid = build_grid(dim, [(0, 1)] * dim, [12] * dim)
    for _ in range(20):
        ph = random_phase(rng, grid, k=int(rng.integers(1, 3)))
        u = random_field(rng, grid, scale=10.0 ** rng.uniform(-6, 6))
        for kind in KINDS:
            expected = _former_luxemburg(u.values, grid, ph, kind)
            assert luxemburg_norm(u, ph, kind) == expected


@pytest.mark.parametrize("kind", ["gradient", "sobolev"])
def test_root_of_null_sparse_and_overflowing_fields(kind):
    # on a 2D domain of side 1e-4 with q = 60 the first Newton step of x*y
    # and of a random field overflows and is halved, that of x and x + y does
    # not; a null field has norm 0, and a field flat on half the domain sums
    # over its positive entries only
    grid = build_grid(2, [(0, 1e-4)] * 2, [16, 16])
    ph = make_phase(grid, 1.5, [(60.0, 1.0)])
    x, y = grid.node_coords().T
    rng = np.random.default_rng(4)
    fields = {
        "x": x,
        "xy": x * y,
        "half-flat": np.maximum(x - 5e-5, 0.0),
        "x+y": x + y,
        "random": rng.normal(size=grid.n_nodes),
    }
    with np.errstate(all="ignore"):
        undamped = {name: _former_luxemburg(u, grid, ph, kind) for name, u in fields.items()}
    assert all(not np.isfinite(undamped[name]) for name in ("xy", "random"))
    for name in ("x", "x+y"):
        assert undamped[name] == _root(fields[name], grid, ph, kind)
    for u in fields.values():
        norm = _root(u, grid, ph, kind)
        assert np.isfinite(norm) and norm > 0
        assert abs(rho(ScalarField(grid, u / norm), ph, kind) - 1.0) <= 1e-10
    assert _root(np.zeros(grid.n_nodes), grid, ph, kind) == 0.0


def test_root_raises_for_a_field_out_of_float_range():
    # cells 6.25e-157 wide: the random field's squared gradients overflow
    grid = build_grid(1, [(0, 1e-155)], [16])
    ph = make_phase(grid, 1.5, [(3.0, 1.0)])
    rng = np.random.default_rng(6)
    assert np.isfinite(_root(1e-160 * rng.normal(size=grid.n_nodes), grid, ph, "gradient"))
    with pytest.raises(FloatingPointError, match="out of float range"):
        _root(rng.normal(size=grid.n_nodes), grid, ph, "gradient")


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
    assert report.modular == rho(u, ph, "zero_order")


@pytest.mark.parametrize("kind", KINDS)
def test_sandwich_fails_a_norm_off_by_half(monkeypatch, kind):
    # at p = q the sandwich is the equality norm = rho^(1/p): it holds for the
    # true root and fails for one 1.5x too large, which a sandwich loosened to
    # [lower / 2, 2 upper] would pass.  The dual bound's probe pruning reads
    # its lower side
    rng = np.random.default_rng(17)
    ph = make_phase(GRID, 2.5, [(2.5, rng.uniform(0.5, 2.0, GRID.n_cells))])
    u = random_field(rng, GRID)
    assert norm_report(u, ph, kind).sandwich_holds is True
    root = modular._luxemburg
    monkeypatch.setattr(modular, "_luxemburg", lambda *args, **kw: 1.5 * root(*args, **kw))
    assert norm_report(u, ph, kind).sandwich_holds is False


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


@pytest.mark.parametrize("kind", KINDS)
def test_overline_band_is_sharp(monkeypatch, kind):
    # the band norm <= bar-norm <= e^(1/e) norm holds for a bar-norm on either
    # edge and fails just outside it, which a band loosened to [norm / 2,
    # 2 e^(1/e) norm] would pass
    rng = np.random.default_rng(19)
    ph = random_phase(rng, GRID)
    u = random_field(rng, GRID)
    root = modular._luxemburg
    for factor, holds in [
        (1.0, True),
        (np.exp(1.0 / np.e) * (1.0 - 1e-6), True),
        (1.0 - 1e-6, False),
        (np.exp(1.0 / np.e) * (1.0 + 1e-6), False),
    ]:
        scaled = lambda *args, bar=False, factor=factor: root(*args) * (factor if bar else 1.0)
        monkeypatch.setattr(modular, "_luxemburg", scaled)
        assert norm_report(u, ph, kind).overline_holds is holds, factor


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
    assert report.modular == rho(u, ph, kind)
    assert report.norm == luxemburg_norm(u, ph, kind)
    if k == 1:
        assert report.bar_norm == _root(u.values, grid, ph, kind, bar=True)
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
        value = rho(u, ph, kind)
        lower = min(value ** (1.0 / s.m), value ** (1.0 / s.M))
        upper = max(value ** (1.0 / s.m), value ** (1.0 / s.M))
        norm = _root(u.values, grid, ph, kind)
        holds = lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9)
        unit_ok = True
        if norm > 0:
            unit_ok = abs(rho(ScalarField(grid, u.values / norm), ph, kind) - 1.0) <= 1e-9
        c = float(rng.uniform(0.1, 10.0))
        scaled = modular.luxemburg_norm(ScalarField(grid, c * u.values), ph, kind)
        hom_ok = abs(scaled - c * norm) <= 1e-12 * max(1.0, c * norm)
        over_ok = True
        if ph.k == 1:
            bar = _root(u.values, grid, ph, kind, bar=True)
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
    assert sweep_sandwich(ph, 25, seed) == expected
    assert calls == expected_calls
    assert 0 < expected["fails"] < 25


def test_an_overflowed_modular_checks_no_sandwich():
    # cells 6.25e-102 wide: a field of size 100 has gradients ~1e103, whose
    # cubes overflow the raw modular, while its Luxemburg norms stay finite;
    # norm_report owns that rule, so no RuntimeWarning (an error here) escapes
    grid = build_grid(1, [(0, 1e-100)], [16])
    ph = make_phase(grid, 1.5, [(3.0, 1.0)])
    u = random_field(np.random.default_rng(13), grid, scale=100.0)
    report = norm_report(u, ph, "gradient")
    assert report.modular == np.inf and report.sandwich_holds is None
    assert np.isfinite(report.norm) and report.overline_holds is True
    # such samples are neither passes nor failures of the sweep; the same
    # draws failed 4 of 20 samples when a missing sandwich counted as failed
    assert sweep_sandwich(ph, 20, 0) == {"samples": 20, "fails": 0}


def test_an_underflowed_modular_checks_no_sandwich():
    # p = q = 200 and |grad u| = c in every cell: rho = 0.01 c^200 is 0.0 at
    # c = 0.01 and subnormal at c = 0.0288, where rho^(1/200) bounds nothing,
    # while the Luxemburg norms, rooted on scaled magnitudes, stay right
    grid = build_grid(1, [(0, 1)], [16])
    ph = make_phase(grid, 200.0, [(200.0, 1.0)])
    x = grid.node_coords()[:, 0]
    for c, holds in ((0.0, True), (0.01, None), (0.05, True)):
        report = norm_report(ScalarField(grid, c * x), ph, "gradient")
        assert report.sandwich_holds is holds and report.overline_holds is True
        assert (report.modular == 0.0) is (c < 0.05)
    report = norm_report(ScalarField(grid, 0.0288 * x), ph, "gradient")
    assert 0.0 < report.modular < np.finfo(float).tiny and report.sandwich_holds is None
    assert report.norm == pytest.approx(0.0288 * 0.01 ** (1 / 200), rel=1e-12)


def poincare_ratio(u, ph):
    """Zero-order over gradient Luxemburg norm of a zero-trace field."""
    return luxemburg_norm(u, ph, "zero_order") / luxemburg_norm(u, ph, "gradient")


def dual_pairing_bound_holds(f, u, a, ph):
    """The lemma |<f, u>| <= a rho(u)^(1/m) for a zero-trace u with gradient norm >= 1."""
    assert luxemburg_norm(u, ph, "gradient") >= 1.0 - 1e-12  # the lemma's hypothesis
    lhs = abs(l2_pairing(f, u))
    rhs = a * rho(u, ph, "gradient") ** (1.0 / ph.summary.m)
    return lhs <= rhs + 1e-12 * (1.0 + rhs)


def test_poincare_ratio():
    ph = make_phase(GRID, 2.0, [(3.0, 1.0)])
    x = GRID.node_coords()[:, 0]
    hat = ScalarField(GRID, np.minimum(x, 1 - x))
    ratio = poincare_ratio(hat, ph)
    assert np.isfinite(ratio) and ratio > 0
    double = ScalarField(GRID, 2 * hat.values)
    assert poincare_ratio(double, ph) == pytest.approx(ratio, rel=1e-10)


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
    assert dual_pairing_bound_holds(ScalarField.zeros(GRID), unit, 0.0, ph)
    lhs = abs(l2_pairing(f, unit))
    assert dual_pairing_bound_holds(f, unit, lhs * 1.001, ph)
    assert not dual_pairing_bound_holds(f, unit, lhs * 0.999, ph)


def _affine_fields():
    """f = 1 and a phase on 16 cells of [0, 1], with the affine field a + b x."""
    grid = build_grid(1, [(0, 1)], [16])
    x = grid.node_coords()[:, 0]
    f = ScalarField(grid, np.ones(grid.n_nodes))
    return f, make_phase(grid, 1.5, [(3.0, 1.0)]), lambda a, b: ScalarField(grid, a + b * x)


def test_dual_bound_rejects_an_extra_field_without_zero_trace():
    # the probes kept only the interior of 1 + x (trace 1 and 2) and gave
    # 0.1387, below 1.01 |<f, w>| / ||grad w|| = 1.515 of the field itself
    f, ph, affine = _affine_fields()
    with pytest.raises(ValueError, match="extra field must vanish on boundary nodes"):
        estimate_dual_bound(f, ph, extra_fields=(affine(1.0, 1.0),))


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
        assert dual_pairing_bound_holds(f, probe, a, ph)


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_bound_matches_probe_by_probe_pairing(dim):
    # the former loop: every probe pairs with f through ``l2_pairing``
    grid = build_grid(dim, [(0, 1)] * dim, [32] if dim == 1 else [6, 9])
    rng = np.random.default_rng(11)
    ph = make_phase(grid, 1.5, [(3.0, 1.0)])
    f = random_field(rng, grid)
    extra = random_field(rng, grid, zero_trace=True)
    interior = ~boundary_mask(grid)
    probe_rng = np.random.default_rng(5)
    best = 0.0
    for i in range(41):
        vals = np.zeros(grid.n_nodes)
        vals[interior] = probe_rng.normal(size=int(interior.sum())) if i < 40 else extra.values[interior]
        u = ScalarField(grid, vals)
        best = max(best, abs(l2_pairing(f, u)) / luxemburg_norm(u, ph, "gradient"))
    assert estimate_dual_bound(f, ph, n_probes=40, seed=5, extra_fields=(extra,)) == 1.01 * best


def _double_phase_fixture():
    """The 1D 256-cell double-phase problem of the solve benchmark: p = 1.5, q = 3, mu = x, f = 1."""
    grid = build_grid(1, [(0, 1)], [256])
    ph = make_phase(grid, 1.5, [(3.0, grid.cell_centers()[:, 0])])
    return grid, ph, ScalarField(grid, np.ones(grid.n_nodes))


def test_dual_bound_probe_stacks_bound_calls_and_memory(monkeypatch):
    # the 1D double-phase fixture's 300 probes and one extra field: the extra
    # takes one gradient pass, then each of the 38 stacks of 8 probes one, whose
    # magnitudes serve the pairing's sandwich, the roots and their unit-modular
    # checks; one field at a time took 602 passes.  A random extra sits low
    # enough that 21 probes are rooted, one at a time, besides the extra
    grid, ph, f = _double_phase_fixture()
    extra = random_field(np.random.default_rng(12), grid, zero_trace=True)
    passes = _counting(monkeypatch, "gradient_values")
    roots = _counting(monkeypatch, "_luxemburg")
    tracemalloc.start()
    try:
        estimate_dual_bound(f, ph, n_probes=300, seed=0, extra_fields=(extra,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(passes) == 1 + math.ceil(300 / 8)
    assert len(roots) == 22
    assert peak < 2**20


def test_dual_bound_roots_no_probe_below_the_minimizer(monkeypatch):
    # the computed minimizer pairs with f far above every random probe, so the
    # sandwich rules out all 300 probes and only the extra field is rooted
    grid, ph, f = _double_phase_fixture()
    prob = Problem(grid, ph, ScalarField.zeros(grid), f)
    u = minimize(prob, SolverOptions(gradient_tolerance=1e-6)).u_star
    roots = _counting(monkeypatch, "_luxemburg")
    estimate_dual_bound(f, ph, n_probes=300, seed=0, extra_fields=(u,))
    assert len(roots) == 1


def _every_row_rooted(f, phase, n_probes, seed, extra_fields):
    """The dual bound with every probe and extra field rooted, one at a time: probes first, then extras."""
    grid = f.grid
    interior = np.flatnonzero(~boundary_mask(grid))
    fc = modular.cell_average_values(grid, f.values)
    rng = np.random.default_rng(seed)
    extras = np.array([u.values[interior] for u in extra_fields]).reshape(-1, len(interior))
    n_rows = n_probes + len(extras)
    per_stack = max(1, modular.STACK_CELLS // grid.n_cells)
    best = 0.0
    for first in range(0, n_rows, per_stack):
        last = min(first + per_stack, n_rows)
        drawn = max(min(last, n_probes) - first, 0)
        stack = np.zeros((last - first, grid.n_nodes))
        stack[:, interior] = np.concatenate(
            [
                rng.normal(size=(drawn, len(interior))),
                extras[max(first - n_probes, 0) : max(last - n_probes, 0)],
            ]
        )
        pairing = np.abs(modular._pairing(fc, stack, grid))
        for row, pair in zip(stack, pairing):
            denom = _root(row, grid, phase, "gradient")
            if denom != 0.0:
                best = max(best, float(pair) / denom)
    return 1.01 * best


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_bound_roots_only_probes_that_can_win_bit_identically(dim, monkeypatch):
    # a probe the sandwich rules out has a ratio below the best so far, so
    # skipping its root leaves every bit of the bound.  Every other phase has
    # p = q, where the sandwich is the norm itself and a probe that beats the
    # best by a hair must still be rooted.  The weak extra pairs with f at 1e-3
    # of a random field, so random probes beat it and are rooted
    rng = np.random.default_rng(31 + dim)
    roots = _counting(monkeypatch, "_luxemburg")
    for trial in range(6):
        grid = build_grid(dim, [(0, 1)] * dim, [48 + 37 * trial] if dim == 1 else [5 + trial, 9])
        if trial % 2:
            p = rng.uniform(1.2, 4.0)
            ph = make_phase(grid, p, [(p, rng.uniform(0.0, 3.0, grid.n_cells))])
        else:
            ph = random_phase(rng, grid)
        f = random_field(rng, grid)
        aligned = ScalarField(grid, np.where(boundary_mask(grid), 0.0, f.values))
        r = random_field(rng, grid, zero_trace=True)
        weak = r.values - (1.0 - 1e-3) * l2_pairing(f, r) / l2_pairing(f, aligned) * aligned.values
        extras = {
            "none": (),
            "null": (ScalarField.zeros(grid),),
            "weak": (ScalarField(grid, weak),),
            "aligned": (aligned,),
        }
        n_probes, seed = int(rng.integers(20, 120)), int(rng.integers(0, 1000))
        for name, extra in extras.items():
            expected = _every_row_rooted(f, ph, n_probes, seed, extra)
            roots.clear()
            assert estimate_dual_bound(f, ph, n_probes, seed, extra) == expected, (trial, name)
            if name == "weak":
                assert len(roots) > 1 and expected > estimate_dual_bound(f, ph, 0, seed, extra)


def test_restricted_modular_mass():
    rng = np.random.default_rng(10)
    ph = random_phase(rng, GRID)
    u = random_field(rng, GRID)
    mask = rng.random(GRID.n_cells) < 0.5
    full = rho(u, ph, "gradient")
    part = rho(u, ph, "gradient", mask=mask)
    rest = rho(u, ph, "gradient", mask=~mask)
    # the masked modular sums the cells inside the mask and zeros outside it
    cells = _cell_modulars(u, ph, "gradient")
    assert part == float(np.sum(np.where(mask, cells, 0.0)))
    assert full == float(np.sum(cells))
    assert part + rest == pytest.approx(full, rel=1e-13)


def test_modular_value_returns_one_value_per_row():
    rng = np.random.default_rng(5)
    ph = random_phase(rng, GRID)
    stack = rng.normal(size=(3, GRID.n_nodes))
    rows = modular.modular_value(stack, GRID, ph, "sobolev")
    one = modular.modular_value(stack[1], GRID, ph, "sobolev")
    assert rows.shape == (3,) and one.shape == () and one == rows[1]


def test_an_overflowed_modular_reads_inf_silently():
    # one overflow rule for every modular: inf, and no RuntimeWarning
    ph = make_phase(GRID, 1.5, [(200.0, 1.0)])
    u = 100.0 * GRID.node_coords()[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert modular.modular_value(u, GRID, ph, "gradient") == np.inf
        assert rho(ScalarField(GRID, u), ph, "sobolev") == np.inf
        assert np.all(modular.stacked_rho(u[None], ph, KINDS)["gradient"] == np.inf)
