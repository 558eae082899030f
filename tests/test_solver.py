import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase.mesh import ScalarField, boundary_mask, build_grid, gradient_values, squared_norm
from doublephase.convexity import pair_split, partition, verify_uc_pair
from doublephase.modular import (
    estimate_dual_bound,
    l2_pairing,
    luxemburg_norm,
    modular_value,
    norm_report,
    rho,
)
from doublephase.solver import (
    Problem,
    SolverError,
    SolverOptions,
    energy,
    energy_gradient,
    lower_bound,
    minimize,
    solve_weak,
    uniqueness_certificate,
    weak_residual,
)
from test_phase import make_phase


def make_problem(grid, p, qmu, f_values=None, phi_values=None, **kw):
    ph = make_phase(grid, p, qmu)
    f = ScalarField(grid, np.zeros(grid.n_nodes) if f_values is None else f_values)
    phi = ScalarField(grid, np.zeros(grid.n_nodes) if phi_values is None else phi_values)
    return Problem(grid, ph, phi, f, **kw)


def zero_trace_random(grid, rng, scale=1.0):
    vals = scale * rng.normal(size=grid.n_nodes)
    vals[boundary_mask(grid)] = 0.0
    return vals


def test_problem_rejects_phase_from_other_grid():
    # same cell count (16), different cell lattice
    grid = build_grid(1, [(0, 1)], [16])
    other = build_grid(2, [(0, 1), (0, 1)], [4, 4])
    zero = ScalarField.zeros(grid)
    with pytest.raises(ValueError, match="does not match the grid"):
        Problem(grid, make_phase(other, 2.0, [(3.0, 1.0)]), zero, zero)
    # same cell lattice, on [0, 5]
    wide = build_grid(1, [(0, 5)], [16])
    with pytest.raises(ValueError, match="phase structure does not match the grid"):
        Problem(grid, make_phase(wide, 2.0, [(3.0, 1.0)]), zero, zero)
    # an equal lattice on a separately built grid is accepted
    twin = build_grid(1, [(0, 1)], [16])
    Problem(grid, make_phase(twin, 2.0, [(3.0, 1.0)]), zero, zero)


def test_problem_rejects_phi_with_another_node_count():
    grid = build_grid(1, [(0, 1)], [16])
    zero = ScalarField.zeros(grid)
    phi = ScalarField.zeros(build_grid(1, [(0, 1)], [8]))
    with pytest.raises(ValueError, match="phi does not match the grid"):
        Problem(grid, make_phase(grid, 2.0, [(3.0, 1.0)]), phi, zero)


def test_problem_rejects_fields_with_the_node_count_of_another_grid():
    # a 2D 4x4 grid has the 25 nodes of a 24-cell 1D grid
    grid = build_grid(1, [(0, 1)], [24])
    phase = make_phase(grid, 2.0, [(3.0, 1.0)])
    zero = ScalarField.zeros(grid)
    square = ScalarField.zeros(build_grid(2, [(0, 1), (0, 1)], [4, 4]))
    assert square.values.size == grid.n_nodes
    for name, fields in (("phi", (square, zero)), ("f", (zero, square))):
        with pytest.raises(ValueError, match=f"^{name} does not match the grid$"):
            Problem(grid, phase, *fields)


def _grid_rule_fields():
    """Zero-trace fields x(L - x), or its 2D product, on the rule's three grids."""
    fields = {}
    for name, (dim, side, res) in {
        "phase grid": (1, 1.0, [16]),
        "2D 4x4": (2, 1.0, [4, 4]),
        "[0, 5]": (1, 5.0, [16]),
    }.items():
        grid = build_grid(dim, [(0, side)] * dim, res)
        x = grid.node_coords()
        fields[name] = ScalarField(grid, 10.0 * np.prod(x * (side - x), axis=1))
    return fields


# each entry point of the modular, convexity and solver layers that takes a
# field, called on u beside fields on the phase's grid (g, and f = 1)
_GRID_RULE_CALLS = {
    "luxemburg_norm": lambda u, g, f, prob: luxemburg_norm(u, prob.phase, "gradient"),
    "norm_report": lambda u, g, f, prob: norm_report(u, prob.phase, "sobolev"),
    "rho": lambda u, g, f, prob: rho(u, prob.phase, "sobolev"),
    "l2_pairing": lambda u, g, f, prob: l2_pairing(f, u),
    "estimate_dual_bound f": lambda u, g, f, prob: estimate_dual_bound(u, prob.phase, 4),
    "estimate_dual_bound extra": lambda u, g, f, prob: estimate_dual_bound(
        f, prob.phase, 4, extra_fields=(u,)
    ),
    "verify_uc_pair": lambda u, g, f, prob: verify_uc_pair(g, u, 0.5, prob.phase, "gradient"),
    "pair_split": lambda u, g, f, prob: pair_split(g, u, 0.5, partition(prob.phase)),
    "energy": lambda u, g, f, prob: energy(u, prob),
    "energy_gradient": lambda u, g, f, prob: energy_gradient(u, prob),
    "weak_residual": lambda u, g, f, prob: weak_residual(u, prob),
    "uniqueness_certificate": lambda u, g, f, prob: uniqueness_certificate(g, u, prob),
    "modular_value": lambda u, g, f, prob: modular_value(u.values, u.grid, prob.phase, "gradient"),
}


@pytest.mark.parametrize("field", ["phase grid", "2D 4x4", "[0, 5]"])
@pytest.mark.parametrize("call", _GRID_RULE_CALLS.values(), ids=_GRID_RULE_CALLS.keys())
def test_every_entry_point_holds_a_field_to_the_phase_grid(call, field):
    # a 4x4 field has the 16 cells of the phase, a field on [0, 5] its 17
    # nodes; both were paired with p, q and mu as if they lay on [0, 1]
    fields = _grid_rule_fields()
    g = fields["phase grid"]
    f = ScalarField(g.grid, np.ones(g.grid.n_nodes))
    prob = make_problem(g.grid, 1.5, [(3.0, 1.0)], f_values=f.values)
    if field == "phase grid":
        call(g, g, f, prob)
    else:
        with pytest.raises(ValueError, match="does not match the grid"):
            call(fields[field], g, f, prob)


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_solver_options_reject_bad_seed(seed):
    # numpy's generator would raise from inside solve_weak, or take True as 1
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        SolverOptions(seed=seed, two_start_check=True)


@pytest.mark.parametrize("bound", [-1, float("nan"), float("inf"), True, "1"])
def test_solver_options_reject_bad_dual_bound(bound):
    with pytest.raises(ValueError, match="dual_bound must be null or a finite nonnegative"):
        SolverOptions(dual_bound=bound)


def test_solve_weak_uses_the_dual_bound_option():
    grid = build_grid(1, [(0, 1)], [8])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    sol = solve_weak(prob, SolverOptions(dual_bound=2.5))
    assert sol.dual_bound == 2.5
    assert sol.lower_bound_used == lower_bound(2.5, 2.0, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bound", [1e308, np.float64(1e308)], ids=["float", "numpy"])
def test_an_overflowing_energy_floor_is_silent_for_a_numpy_bound(bound):
    # SolverOptions takes np.float64, a float subclass, whose power warns on
    # overflow where a Python float's raises; both give an unbounded floor
    grid = build_grid(1, [(0, 1)], [8])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    assert solve_weak(prob, SolverOptions(dual_bound=bound)).lower_bound_used == -np.inf


def test_energy_trivial_cases():
    grid = build_grid(1, [(0, 1)], [8])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)])
    assert energy(ScalarField.zeros(grid), prob) == 0.0
    with pytest.raises(ValueError, match="vanish on boundary"):
        energy(ScalarField(grid, np.ones(grid.n_nodes)), prob)
    # with f = 0 the energy at u = 0 is the gradient modular of phi
    x = grid.node_coords()[:, 0]
    prob_phi = make_problem(grid, 2.0, [(3.0, 1.0)], phi_values=x**2)
    expected = rho(ScalarField(grid, x**2), prob_phi.phase, "gradient").value
    assert energy(ScalarField.zeros(grid), prob_phi) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_pairs_u_with_the_problem_load(dim):
    # one pairing: energy adds dot(load, u) to the modular, bit for bit
    from doublephase.modular import l2_pairing, modular_value

    grid = build_grid(dim, [(0, 1)] * dim, [9] * dim)
    rng = np.random.default_rng(40 + dim)
    # small fields and exponents 4: the modular is far below the pairing, so
    # the pairing's last bits show in the sum
    prob = make_problem(
        grid, 4.0, [(4.0, 0.5)], f_values=rng.normal(size=grid.n_nodes),
        phi_values=1e-2 * rng.normal(size=grid.n_nodes),
    )
    for _ in range(10):
        u = ScalarField(grid, zero_trace_random(grid, rng, scale=1e-2))
        value = modular_value(prob.phi.values - u.values, grid, prob.phase, "gradient")
        assert energy(u, prob) == value + float(np.dot(prob.load, u.values))
    # at the zero start both pairings are exactly 0.0: the former form, the
    # cell-average pairing l2_pairing(f, u), gives the same bits there
    zero = ScalarField.zeros(grid)
    value = modular_value(prob.phi.values, grid, prob.phase, "gradient")
    assert energy(zero, prob) == value + l2_pairing(prob.f, zero) == value


ZERO_TRACE_ERROR = r"must vanish on boundary nodes \(a zero boundary trace\)"


@pytest.mark.parametrize(
    "call",
    [
        lambda prob, u: energy(ScalarField(prob.grid, u), prob),
        lambda prob, u: energy_gradient(ScalarField(prob.grid, u), prob),
        lambda prob, u: minimize(prob, SolverOptions(initial_guess=u)),
        lambda prob, u: estimate_dual_bound(
            prob.f, prob.phase, 4, extra_fields=(ScalarField(prob.grid, u),)
        ),
    ],
    ids=["energy", "energy_gradient", "initial_guess", "dual_bound_extra_field"],
)
def test_zero_trace_arguments_share_one_check(call):
    grid = build_grid(2, [(0, 1)] * 2, [4, 4])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)])
    u = np.zeros(grid.n_nodes)
    u[boundary_mask(grid).nonzero()[0][3]] = 1e-300
    with pytest.raises(ValueError, match=ZERO_TRACE_ERROR):
        call(prob, u)


def test_initial_guess_is_validated_as_a_field():
    grid = build_grid(1, [(0, 1)], [8])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    with pytest.raises(ValueError, match="does not match node count"):
        minimize(prob, SolverOptions(initial_guess=np.zeros(grid.n_nodes + 1)))
    nan = np.zeros(grid.n_nodes)
    nan[4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        minimize(prob, SolverOptions(initial_guess=nan))


def test_energy_classical_reduction():
    # p = q = 2, mu = 0, phi = 0: I(u) = 1/2 int |grad u|^2 + int f u
    grid = build_grid(1, [(0, 1)], [16])
    rng = np.random.default_rng(0)
    f_vals = rng.normal(size=grid.n_nodes)
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], f_values=f_vals)
    u_vals = zero_trace_random(grid, rng)
    u = ScalarField(grid, u_vals)
    from doublephase.mesh import cell_average_values, gradient_values, integrate_cells

    gu = gradient_values(grid, u_vals)
    expected = 0.5 * integrate_cells(grid, np.sum(gu**2, axis=1)) + integrate_cells(
        grid, cell_average_values(grid, f_vals) * cell_average_values(grid, u_vals)
    )
    assert energy(u, prob) == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_hand_assembled_stiffness_1d():
    # 4 cells on (0,1): gradient = (1/h) K u + h C^T fc on interior nodes
    grid = build_grid(1, [(0, 1)], [4])
    rng = np.random.default_rng(1)
    f_vals = rng.normal(size=grid.n_nodes)
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], f_values=f_vals)
    u_vals = zero_trace_random(grid, rng)
    g = energy_gradient(ScalarField(grid, u_vals), prob)
    h = grid.cell_size[0]
    fc = 0.5 * (f_vals[1:] + f_vals[:-1])
    for i in (1, 2, 3):
        stiff = (2 * u_vals[i] - u_vals[i - 1] - u_vals[i + 1]) / h
        loaded = h * 0.5 * (fc[i - 1] + fc[i])
        assert g[i] == pytest.approx(stiff + loaded, rel=1e-12, abs=1e-14)
    assert g[0] == 0.0 and g[4] == 0.0


def test_gradient_matches_hand_assembled_stiffness_2d():
    # one interior node on a 2x2-cell unit square
    grid = build_grid(2, [(0, 1), (0, 1)], [2, 2])
    rng = np.random.default_rng(2)
    prob = make_problem(grid, 2.0, [(2.0, 0.0)])
    u_vals = np.zeros(grid.n_nodes)
    center = 4  # node (1,1) in the 3x3 lattice, row-major
    u_vals[center] = 1.3
    g = energy_gradient(ScalarField(grid, u_vals), prob)
    # each of the 4 cells sees gradient (u/(2h), u/(2h)), so the energy is
    # 4 * vol * (u/(2h))^2 and its derivative 8 * vol * u / (2h)^2
    h = 0.5
    expected = 8.0 * grid.cell_volume * u_vals[center] / (2 * h) ** 2
    assert g[center] == pytest.approx(expected, rel=1e-12)


def _fd_gradient(prob, u_vals, indices, step=1e-6):
    out = {}
    grid = prob.grid
    for i in indices:
        up = u_vals.copy()
        up[i] += step
        down = u_vals.copy()
        down[i] -= step
        ep = energy(ScalarField(grid, up), prob)
        em = energy(ScalarField(grid, down), prob)
        out[i] = (ep - em) / (2 * step)
    return out


def _regime_problem(seed):
    """Random problem with gradients bounded away from cell degeneracy."""
    rng = np.random.default_rng(seed)
    dim = 1 if seed % 2 else 2
    grid = build_grid(dim, [(0, 1)] * dim, [7] * dim if dim == 2 else [12])
    combos = [(1.4, 1.6), (1.5, 2.8), (2.6, 1.5), (2.4, 3.1)]
    p0, q0 = combos[seed % 4]
    n = grid.n_cells
    p = np.clip(p0 + 0.2 * rng.normal(size=n), 1.15, 4.5)
    q = np.clip(q0 + 0.2 * rng.normal(size=n), 1.15, 4.5)
    mu = np.abs(rng.normal(size=n))
    mu[rng.random(n) < 0.3] = 0.0
    ph = make_phase(grid, p, [(q, mu)])
    f = ScalarField(grid, rng.normal(size=grid.n_nodes))
    for sub in range(40):
        sub_rng = np.random.default_rng([seed, sub])
        phi = ScalarField(grid, 0.5 * sub_rng.normal(size=grid.n_nodes))
        u_vals = zero_trace_random(grid, sub_rng)
        prob = Problem(grid, ph, phi, f)
        from doublephase.mesh import gradient_values

        w_grad = gradient_values(grid, phi.values - u_vals)
        if np.min(np.sqrt(np.sum(w_grad**2, axis=1))) > 0.05:
            return prob, u_vals
    raise AssertionError("could not build a non-degenerate sample")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_gradient_matches_finite_differences(seed):
    prob, u_vals = _regime_problem(seed)
    g = energy_gradient(ScalarField(prob.grid, u_vals), prob)
    interior = np.flatnonzero(~boundary_mask(prob.grid))
    rng = np.random.default_rng(seed + 1000)
    probe = rng.choice(interior, size=min(8, interior.size), replace=False)
    fd = _fd_gradient(prob, u_vals, probe)
    scale = max(np.max(np.abs(g)), 1e-12)
    for i, val in fd.items():
        assert abs(g[i] - val) / scale <= 1e-6


def test_gradient_stability_under_small_perturbations():
    prob, u_vals = _regime_problem(6)
    grid = prob.grid
    g0 = energy_gradient(ScalarField(grid, u_vals), prob)
    rng = np.random.default_rng(7)
    direction = zero_trace_random(grid, rng)
    direction /= np.max(np.abs(direction))
    norms = []
    for t in (1e-2, 1e-4, 1e-6):
        g = energy_gradient(ScalarField(grid, u_vals + t * direction), prob)
        norms.append(np.max(np.abs(g - g0)))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-4


def test_minimize_zero_data():
    grid = build_grid(1, [(0, 1)], [16])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)])
    sol = minimize(prob)
    assert sol.iterations <= 1
    assert np.all(sol.u_star.values == 0.0)
    assert sol.energy_history[0] == 0.0
    assert sol.converged


def test_minimize_laplace_small():
    grid = build_grid(1, [(0, 1)], [32])
    x = grid.node_coords()[:, 0]
    f_vals = np.pi**2 * np.sin(np.pi * x)
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], f_values=f_vals)
    opts = SolverOptions(gradient_tolerance=1e-10, energy_tolerance=1e-30,
                         max_iterations=20_000)
    sol = minimize(prob, opts)
    assert sol.converged and sol.termination == "gradient_tolerance"
    assert np.max(np.abs(sol.w_star.values - np.sin(np.pi * x))) < 5e-3
    assert np.all(np.diff(sol.energy_history) <= 0)


def test_minimize_descent_is_strict_until_termination():
    grid = build_grid(1, [(0, 1)], [24])
    rng = np.random.default_rng(8)
    prob = make_problem(grid, 1.7, [(2.4, 1.0)], f_values=rng.normal(size=grid.n_nodes))
    opts = SolverOptions(gradient_tolerance=1e-6, energy_tolerance=1e-30,
                         max_iterations=50_000)
    sol = minimize(prob, opts)
    assert sol.converged
    assert np.all(np.diff(sol.energy_history) < 0)


def test_energy_convexity_along_segments():
    grid = build_grid(1, [(0, 1)], [12])
    rng = np.random.default_rng(9)
    prob = make_problem(grid, 1.6, [(3.2, 0.8)], f_values=rng.normal(size=grid.n_nodes))
    for _ in range(10):
        u = zero_trace_random(grid, rng)
        v = zero_trace_random(grid, rng)
        eu = energy(ScalarField(grid, u), prob)
        ev = energy(ScalarField(grid, v), prob)
        for alpha in (0.25, 0.5, 0.75):
            mid = ScalarField(grid, alpha * u + (1 - alpha) * v)
            assert energy(mid, prob) <= alpha * eu + (1 - alpha) * ev + 1e-12 * (
                1 + abs(eu) + abs(ev)
            )


def test_weak_residual_consistency_and_perturbation():
    grid = build_grid(1, [(0, 1)], [32])
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 2.0, [(2.0, 0.0)],
                        f_values=np.pi**2 * np.sin(np.pi * x))
    opts = SolverOptions(gradient_tolerance=1e-9, energy_tolerance=1e-30,
                         max_iterations=20_000)
    sol = minimize(prob, opts)
    res = weak_residual(sol.w_star, prob)
    assert res <= 1e-9
    assert abs(res - sol.gradient_norm) <= 1e-13
    # the identity also holds away from the minimizer, to relative precision
    rng = np.random.default_rng(20)
    u_vals = zero_trace_random(grid, rng)
    w_mid = ScalarField(grid, prob.phi.values - u_vals)
    g_mid = energy_gradient(ScalarField(grid, u_vals), prob)
    res_mid = weak_residual(w_mid, prob)
    assert res_mid == pytest.approx(np.max(np.abs(g_mid)), rel=1e-12)
    bumped = sol.w_star.values.copy()
    bumped[16] += 0.1
    assert weak_residual(ScalarField(grid, bumped), prob) > res


def test_weak_residual_discrete_harmonic():
    # w = phi = x with f = 0 and p = q = 2 on a 4-cell grid is stationary
    grid = build_grid(1, [(0, 1)], [4])
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], phi_values=x)
    assert weak_residual(ScalarField(grid, x), prob) < 1e-14


def test_harmonic_extension_is_exact():
    grid = build_grid(1, [(0, 1)], [16])
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], phi_values=x)
    sol = solve_weak(prob, SolverOptions(gradient_tolerance=1e-12))
    assert np.max(np.abs(sol.w_star.values - x)) < 1e-10
    assert np.all(sol.u_star.values == 0.0)


def test_flux_reduces_to_p_laplacian_without_weight():
    from doublephase.solver import _flux

    grid = build_grid(1, [(0, 1)], [16])
    rng = np.random.default_rng(10)
    p = 3.0
    ph = make_phase(grid, p, [(2.5, 0.0)])
    g = rng.normal(size=(grid.n_cells, 1))
    flux = _flux(ph, g)
    expected = np.abs(g[:, 0]) ** (p - 2.0) * g[:, 0]
    assert np.allclose(flux[:, 0], expected, rtol=1e-14)


def test_lower_bound_values():
    assert lower_bound(0.0, 2.0, 5.0) == 0.0
    assert lower_bound(1.0, 2.0, 0.0) == pytest.approx(-1.5)
    with pytest.raises(ValueError):
        lower_bound(1.0, 1.0, 0.0)


def test_lower_bound_chain_on_random_fields():
    # the floor holds at ANY zero-trace field once the bound covers its
    # pairing ratio, not just along descent iterates
    grid = build_grid(1, [(0, 1)], [24])
    rng = np.random.default_rng(21)
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 1.6, [(2.8, 0.9)],
                        f_values=rng.normal(size=grid.n_nodes),
                        phi_values=0.3 * np.sin(2 * np.pi * x))
    from doublephase.modular import l2_pairing, luxemburg_norm

    fields = [zero_trace_random(grid, rng, scale=10.0 ** rng.uniform(-1, 2))
              for _ in range(50)]
    ratios = []
    for vals in fields:
        u = ScalarField(grid, vals)
        denom = luxemburg_norm(u, prob.phase, "gradient")
        ratios.append(abs(l2_pairing(prob.f, u)) / denom)
    a = 1.01 * max(ratios)
    grad_phi = luxemburg_norm(prob.phi, prob.phase, "gradient")
    floor = lower_bound(a, prob.phase.summary.m, grad_phi)
    for vals in fields:
        assert energy(ScalarField(grid, vals), prob) >= floor


def test_lower_bound_holds_on_solves():
    grid = build_grid(1, [(0, 1)], [32])
    rng = np.random.default_rng(11)
    prob = make_problem(grid, 1.8, [(2.7, 0.6)],
                        f_values=rng.normal(size=grid.n_nodes))
    sol = solve_weak(prob, SolverOptions(gradient_tolerance=1e-8, dual_probes=200))
    assert sol.lower_bound_satisfied
    assert sol.lower_bound_used <= float(np.min(sol.energy_history))


def test_uniqueness_certificate():
    grid = build_grid(1, [(0, 1)], [16])
    rng = np.random.default_rng(12)
    prob = make_problem(grid, 1.7, [(2.9, 1.1)])
    w_vals = prob.phi.values + zero_trace_random(grid, rng)
    w = ScalarField(grid, w_vals)
    cert, equal = uniqueness_certificate(w, w, prob)
    assert cert == 0.0 and equal
    bump = zero_trace_random(grid, rng)
    other = ScalarField(grid, w_vals + bump)
    cert2, equal2 = uniqueness_certificate(w, other, prob)
    assert cert2 > 0.0 and not equal2


@pytest.mark.parametrize("dim", [1, 2])
def test_uniqueness_certificate_is_the_flux_pairing_at_p_equal_q_equal_2(dim):
    # at p = q = 2 the bound 2^0 |A - B|^2 is the flux pairing <A - B, A - B>
    # itself, so the certificate is vol * sum (1 + mu) |grad(v - w)|^2
    grid = build_grid(dim, [(0, 1)] * dim, [24] if dim == 1 else [7, 5])
    rng = np.random.default_rng(40 + dim)
    mu = rng.uniform(0.1, 3.0, grid.n_cells)
    prob = make_problem(grid, 2.0, [(2.0, mu)])
    v = ScalarField(grid, zero_trace_random(grid, rng))
    w = ScalarField(grid, zero_trace_random(grid, rng))
    diff = squared_norm(gradient_values(grid, v.values - w.values))
    pairing = grid.cell_volume * float(np.sum((1.0 + mu) * diff))
    assert uniqueness_certificate(v, w, prob)[0] == pytest.approx(pairing, rel=1e-12)


def test_two_starts_agree():
    grid = build_grid(1, [(0, 1)], [32])
    prob = make_problem(grid, 1.8, [(2.5, 1.0)],
                        f_values=np.ones(grid.n_nodes))
    opts = SolverOptions(gradient_tolerance=1e-11, energy_tolerance=1e-30,
                         max_iterations=200_000, two_start_check=True,
                         dual_probes=50)
    sol = solve_weak(prob, opts)
    assert sol.converged
    assert sol.gradients_equal
    assert sol.modular_distance <= 1e-8
    assert sol.uc_certificate.verdict in ("vacuous", "pass")


def test_gradients_equal_is_held_to_1e_10_of_the_gradient_scale():
    # a gap of 1e-6 of the gradient scale is a second solution, one of 1e-12 is rounding
    grid = build_grid(1, [(0, 1)], [16])
    rng = np.random.default_rng(13)
    prob = make_problem(grid, 1.7, [(2.9, 1.1)])
    v = ScalarField(grid, zero_trace_random(grid, rng))
    bump = zero_trace_random(grid, rng)
    scale = 2.0 * float(np.max(np.sqrt(squared_norm(gradient_values(grid, v.values)))))
    bump *= scale / float(np.max(np.sqrt(squared_norm(gradient_values(grid, bump)))))
    for rel, equal in ((1e-6, False), (1e-12, True)):
        w = ScalarField(grid, v.values + rel * bump)
        assert uniqueness_certificate(v, w, prob)[1] is equal


def test_lower_bound_satisfied_is_held_to_1e_9_of_the_floor():
    # a dual bound of 0 puts the floor at 0; the Laplace energy with f = 1
    # falls to about -1/24, 4 % of 1 + |floor| below it
    grid = build_grid(1, [(0, 1)], [16])
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], f_values=np.ones(grid.n_nodes))
    sol = solve_weak(prob, SolverOptions(dual_bound=0.0))
    assert sol.lower_bound_used == 0.0
    assert -0.05 < float(np.min(sol.energy_history)) < -0.04
    assert sol.lower_bound_satisfied is False


def test_uniqueness_certificate_rejects_a_pairing_below_it(monkeypatch):
    import doublephase.solver as solver

    sides = solver.monotonicity_sides

    def broken_flux(r, A, B):
        lhs, rhs = sides(r, A, B)
        return 0.5 * rhs, rhs  # a flux pairing at half its monotonicity bound

    grid = build_grid(1, [(0, 1)], [16])
    rng = np.random.default_rng(14)
    prob = make_problem(grid, 1.7, [(2.9, 1.1)])
    v = ScalarField(grid, zero_trace_random(grid, rng))
    w = ScalarField(grid, zero_trace_random(grid, rng))
    assert uniqueness_certificate(v, w, prob)[0] > 0.0
    monkeypatch.setattr(solver, "monotonicity_sides", broken_flux)
    with pytest.raises(SolverError, match="flux pairing fell below its monotonicity certificate"):
        uniqueness_certificate(v, w, prob)


def test_modular_distance_is_the_gap_modular_of_the_two_starts(monkeypatch):
    # three steps leave the two starts apart; the distance is rho((u1 - u2)/2)
    import doublephase.solver as solver

    runs = []

    def recording_minimize(prob, opts):
        runs.append(minimize(prob, opts))
        return runs[-1]

    monkeypatch.setattr(solver, "minimize", recording_minimize)
    grid = build_grid(1, [(0, 1)], [16])
    prob = make_problem(grid, 1.5, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    sol = solve_weak(prob, SolverOptions(max_iterations=3, two_start_check=True, dual_probes=8))
    first, second = runs
    half = ScalarField(grid, (first.u_star.values - second.u_star.values) / 2.0)
    gap = rho(half, prob.phase, "gradient").value
    assert gap > 1e-6
    assert sol.modular_distance == pytest.approx(gap, rel=1e-12)


def test_minimize_respects_max_iterations():
    # non-quadratic: one curvature step solves a quadratic energy exactly
    grid = build_grid(1, [(0, 1)], [32])
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 1.5, [(3.0, 1.0)],
                        f_values=np.pi**2 * np.sin(np.pi * x))
    sol = minimize(prob, SolverOptions(max_iterations=1, gradient_tolerance=1e-14,
                                       energy_tolerance=1e-30))
    assert not sol.converged
    assert sol.termination == "max_iterations"
    assert sol.iterations == 1


def test_minimize_returns_a_line_search_stop():
    # a step floor above every trial step ends the first search: the run
    # stops at the start with a solution, not an exception
    grid = build_grid(1, [(0, 1)], [32])
    prob = make_problem(grid, 1.5, [(3.0, grid.cell_centers()[:, 0])],
                        f_values=np.ones(grid.n_nodes))
    sol = minimize(prob, SolverOptions(step_floor=10.0))
    assert sol.termination == "line_search"
    assert sol.converged is False
    assert sol.iterations == 0
    assert len(sol.energy_history) == 1
    assert np.all(sol.u_star.values == 0.0)
    assert sol.gradient_norm > 0


def test_laplace_2d_manufactured_solution():
    # -div grad w = 2 pi^2 sin(pi x) sin(pi y) has w = sin(pi x) sin(pi y)
    grid = build_grid(2, [(0, 1), (0, 1)], [24, 24])
    xy = grid.node_coords()
    exact = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
    f_vals = 2 * np.pi**2 * exact
    prob = make_problem(grid, 2.0, [(2.0, 0.0)], f_values=f_vals)
    opts = SolverOptions(gradient_tolerance=1e-10, energy_tolerance=1e-30,
                         max_iterations=100_000)
    sol = minimize(prob, opts)
    assert sol.converged
    assert np.max(np.abs(sol.w_star.values - exact)) < 5e-3


def test_p_laplacian_analytic_small():
    # p = 3, f = 1, phi = 0: w = ((p-1)/p) [ (1/2)^(p/(p-1)) - |x-1/2|^(p/(p-1)) ]
    grid = build_grid(1, [(0, 1)], [64])
    x = grid.node_coords()[:, 0]
    p = 3.0
    prob = make_problem(grid, p, [(p, 0.0)], f_values=np.ones(grid.n_nodes))
    opts = SolverOptions(gradient_tolerance=1e-9, energy_tolerance=1e-30,
                         max_iterations=200_000)
    sol = solve_weak(prob, opts)
    r = p / (p - 1.0)
    exact = (p - 1.0) / p * (0.5**r - np.abs(x - 0.5) ** r)
    assert np.max(np.abs(sol.w_star.values - exact)) < 5e-3


@pytest.mark.parametrize("r", [1.3, 1.8, 2.0, 2.7, 4.5])
def test_curvature_model_is_hessian_or_secant(r):
    from doublephase.solver import _curvature, _flux

    grid = build_grid(2, [(0, 1), (0, 1)], [3, 3])
    rng = np.random.default_rng(int(10 * r))
    ph = make_phase(grid, r, [(r + 0.5, 0.7)])
    gvec = rng.normal(size=(grid.n_cells, 2))
    cells, log_scale = _curvature(ph, gvec)
    for exponent in (r, r + 0.5):
        term = make_phase(grid, exponent, [(exponent, 0.0)])
        if exponent >= 2:
            # the exact Hessian: central differences of the flux
            v = rng.normal(size=gvec.shape)
            h = 1e-6
            fd = (_flux(term, gvec + h * v) - _flux(term, gvec - h * v)) / (2 * h)
            got = np.einsum("ckl,cl->ck", model(term, gvec), v)
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-9)
        else:
            # the secant weight: B g is the flux itself
            got = np.einsum("ckl,cl->ck", model(term, gvec), gvec)
            assert np.allclose(got, _flux(term, gvec), rtol=1e-13)
    assert np.all(np.linalg.eigvalsh(cells) > 0)


def model(phase, gvec):
    from doublephase.solver import _curvature

    cells, log_scale = _curvature(phase, gvec)
    return np.exp(log_scale) * cells


def test_curvature_model_is_scaled_and_nonsingular_at_zero_gradient():
    from doublephase.solver import CURVATURE_CONTRAST, _curvature

    grid = build_grid(1, [(0, 1)], [4])
    ph = make_phase(grid, 30.0, [(60.0, 1.0)])
    # te^(r-2) = 1e-12^58 underflows; the returned scale carries it
    cells, log_scale = _curvature(ph, np.zeros((grid.n_cells, 1)))
    assert np.all(cells == 1.0) and log_scale == pytest.approx(28 * np.log(1e-12))
    # at |g| = 2 the q-term dominates: iso 1 + 2^-30, outer 58 + 28 2^-30;
    # a cell far below that keeps the contrast floor
    cells, log_scale = _curvature(ph, np.array([[1.0], [0.0], [1e-3], [2.0]]))
    assert log_scale == pytest.approx(58 * np.log(2.0))
    assert cells[3, 0, 0] == pytest.approx(59 + 29 * 2.0**-30, rel=1e-14)
    assert cells[1, 0, 0] == pytest.approx(CURVATURE_CONTRAST * (1 + 2.0**-30), rel=1e-14)


@st.composite
def small_problems(draw):
    dim = draw(st.integers(1, 2))
    resolution = draw(st.integers(3, 20)) if dim == 1 else draw(st.integers(2, 7))
    grid = build_grid(dim, [(0, 1)] * dim, [resolution] * dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = grid.n_cells
    # exponents in [1.4, 5]: closer to 1, cells where the minimizer's gradient
    # vanishes make the energy nearly non-smooth, and a 1e-8 residual can be
    # out of reach (README, numerical notes)
    p0, q0 = draw(st.floats(1.4, 4.0)), draw(st.floats(1.4, 4.5))
    p = np.clip(p0 + 0.2 * rng.normal(size=n), 1.4, 5.0)
    q = np.clip(q0 + 0.2 * rng.normal(size=n), 1.4, 5.0)
    mu = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.7)
    f_scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    prob = make_problem(
        grid, p, [(q, mu)],
        f_values=f_scale * rng.normal(size=grid.n_nodes),
        phi_values=0.5 * rng.normal(size=grid.n_nodes),
    )
    start = zero_trace_random(grid, rng, scale=0.5 * (1.0 + np.max(np.abs(prob.phi.values))))
    return prob, start


@settings(max_examples=40, deadline=None)
@given(case=small_problems())
def test_minimize_converges_from_two_starts(case):
    prob, start = case
    sols = []
    for guess in (None, start):
        opts = SolverOptions(gradient_tolerance=1e-8, energy_tolerance=1e-300,
                             max_iterations=100, initial_guess=guess)
        sol = minimize(prob, opts)
        assert sol.termination == "gradient_tolerance"
        assert np.all(np.diff(sol.energy_history) < 0)
        sols.append(sol)
    half = ScalarField(prob.grid, (sols[0].u_star.values - sols[1].u_star.values) / 2)
    assert rho(half, prob.phase, "gradient").value <= 1e-8


def test_solve_imports_no_scipy():
    # the solver is numpy only: scipy would add to the import time and memory
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        from doublephase import (PhasePair, PhaseStructure, Problem, ScalarField,
                                 SolverOptions, build_grid, solve_weak)
        grid = build_grid(2, [(0, 1), (0, 1)], [6, 6])
        n = grid.n_cells
        phase = PhaseStructure(grid, np.full(n, 1.5), (PhasePair(np.full(n, 3.0), np.ones(n)),))
        prob = Problem(grid, phase, ScalarField.zeros(grid), ScalarField(grid, np.ones(grid.n_nodes)))
        sol = solve_weak(prob, SolverOptions(two_start_check=True, dual_probes=4))
        assert sol.converged
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    import doublephase

    src = str(Path(doublephase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("r", [30.0, 60.0])
def test_high_exponents_converge_from_zero_gradient(dim, r):
    # phi = 0 and a zero start: every cell gradient vanishes, where the
    # model's weights te^(r-2) are below the smallest float
    grid = build_grid(dim, [(0, 1)] * dim, [16] * dim if dim == 1 else [6, 6])
    prob = make_problem(grid, r, [(r, 1.0)], f_values=np.ones(grid.n_nodes))
    opts = SolverOptions(gradient_tolerance=1e-8, energy_tolerance=1e-300, max_iterations=100)
    sol = minimize(prob, opts)
    assert sol.termination == "gradient_tolerance"
    assert np.all(np.diff(sol.energy_history) < 0)


def test_minimize_reports_unfactorable_model(monkeypatch):
    import doublephase.mesh as mesh

    grid = build_grid(2, [(0, 1), (0, 1)], [6, 6])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    monkeypatch.setattr(mesh, "FORM_SOLVE_MAX_BYTES", 1000)
    with pytest.raises(SolverError, match="curvature solve failed at iteration 1: .*MiB"):
        minimize(prob)


def test_minimize_reports_singular_1d_model(monkeypatch):
    import doublephase.solver as solver

    def zero_model(phase, w_grad):
        return np.zeros((w_grad.shape[0], 1, 1)), 0.0

    # a zero curvature model gives a zero pivot in the first row of the sweep
    monkeypatch.setattr(solver, "_curvature", zero_model)
    grid = build_grid(1, [(0, 1)], [16])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    with pytest.raises(SolverError, match="curvature solve failed at iteration 1: ") as info:
        minimize(prob)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_two_start_solve_assembles_the_load_once(monkeypatch):
    import doublephase.solver as solver

    calls = []
    adjoint = solver.cell_average_adjoint

    def counting_adjoint(*args):
        calls.append(1)
        return adjoint(*args)

    monkeypatch.setattr(solver, "cell_average_adjoint", counting_adjoint)
    grid = build_grid(1, [(0, 1)], [16])
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 1.5, [(3.0, 1.0)], f_values=np.sin(np.pi * x), phi_values=x)
    sol = solve_weak(prob, SolverOptions(two_start_check=True, dual_probes=8))
    assert sol.uc_certificate is not None
    assert len(calls) == 1


def test_problem_load_is_read_only_and_cached():
    grid = build_grid(2, [(0, 1), (0, 1)], [4, 3])
    prob = make_problem(grid, 2.0, [(3.0, 1.0)], f_values=np.ones(grid.n_nodes))
    assert prob.load is prob.load
    assert not prob.load.flags.writeable
    with pytest.raises(ValueError):
        prob.load[0] = 1.0
    assert np.all(prob.load[boundary_mask(grid)] == 0.0)
    assert np.all(prob.load[~boundary_mask(grid)] > 0.0)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 2),
    resolution=st.integers(2, 7),
    p=st.floats(1.2, 4.0),
    q=st.floats(1.2, 4.0),
    seed=st.integers(0, 2**16),
)
def test_weak_residual_is_the_energy_gradient_norm(dim, resolution, p, q, seed):
    # with phi = 0 the field w is the correction -u, and the weak-form defect
    # at w is minus the energy gradient at u, bit for bit
    grid = build_grid(dim, [(0, 1)] * dim, [resolution] * dim)
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 2.0, grid.n_cells)
    prob = make_problem(grid, p, [(q, mu)], f_values=rng.normal(size=grid.n_nodes))
    w = zero_trace_random(grid, rng)
    g = energy_gradient(ScalarField(grid, -w), prob)
    assert weak_residual(ScalarField(grid, w), prob) == float(np.max(np.abs(g)))


def test_energy_floor_is_shared_and_infinite_on_overflow():
    from doublephase.convexity import _energy_floor

    a, m, grad_phi = 3.0, 1.7, 0.4
    assert lower_bound(a, m, grad_phi) == -_energy_floor(a, m) - a * (1.0 + grad_phi)
    # (a/m)^(1/(m-1)) overflows: the floor is unboundedly deep
    assert _energy_floor(1e10, 1.0 + 1e-9) == np.inf
    assert lower_bound(1e10, 1.0 + 1e-9, 0.0) == -np.inf
    for a, m in ((-1.0, 2.0), (1.0, 1.0)):
        with pytest.raises(ValueError):
            _energy_floor(a, m)


def test_minimize_rejects_a_non_finite_starting_energy():
    # phi = 1e150 x: the starting modular overflows.  The descent stops with the
    # error it raises on a non-finite energy at any later iterate, instead of
    # reading gradient_tolerance 1e-8 (1 + inf) as "converged" at iteration 0
    grid = build_grid(1, [(0, 1)], [16])
    x = grid.node_coords()[:, 0]
    prob = make_problem(grid, 1.5, [(3.0, grid.cell_centers()[:, 0])],
                        f_values=np.ones(grid.n_nodes), phi_values=1e150 * x)
    with pytest.raises(SolverError, match="^non-finite energy at iteration 0$"):
        minimize(prob)


@pytest.mark.parametrize("dim", [1, 2])
def test_solution_checks_reject_fields_off_phi_on_the_boundary(dim):
    grid = build_grid(dim, [(0, 1)] * dim, [6] * dim)
    rng = np.random.default_rng(21)
    prob = make_problem(grid, 1.7, [(2.9, 1.1)], phi_values=rng.normal(size=grid.n_nodes))
    w = ScalarField(grid, prob.phi.values + zero_trace_random(grid, rng))
    off = w.values.copy()
    off[np.flatnonzero(boundary_mask(grid))[-1]] += 1e-6
    off = ScalarField(grid, off)
    weak_residual(w, prob)
    uniqueness_certificate(w, w, prob)
    with pytest.raises(ValueError, match="^w must equal phi on boundary nodes$"):
        weak_residual(off, prob)
    with pytest.raises(ValueError, match="^v must equal phi on boundary nodes$"):
        uniqueness_certificate(off, w, prob)
    with pytest.raises(ValueError, match="^w must equal phi on boundary nodes$"):
        uniqueness_certificate(w, off, prob)
