"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from doublephase.convexity import (
    sweep_monotonicity,
    sweep_two_point,
    verify_uc_pair,
    _energy_floor,
)
from doublephase import solver
from doublephase.mesh import ScalarField, boundary_mask, build_grid, gradient_values
from doublephase.modular import luxemburg_norm, norm_report, rho
from doublephase.phase import matuszewska_index
from doublephase.solver import Problem, SolverOptions, energy_gradient, energy, solve_weak
from test_phase import make_phase, numeric_matuszewska


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def laplace_solution():
    grid = build_grid(1, [(0, 1)], [128])
    x = grid.node_coords()[:, 0]
    prob = Problem(
        grid,
        make_phase(grid, 2.0, [(2.0, 0.0)]),
        ScalarField.zeros(grid),
        ScalarField(grid, np.pi**2 * np.sin(np.pi * x)),
    )
    opts = SolverOptions(
        gradient_tolerance=1e-9,
        energy_tolerance=1e-300,
        max_iterations=1_000_000,
        dual_probes=300,
        seed=0,
    )
    started = time.perf_counter()
    sol = solve_weak(prob, opts)
    elapsed = time.perf_counter() - started
    return grid, x, prob, sol, elapsed


@pytest.fixture(scope="module")
def p_laplacian_solution():
    grid = build_grid(1, [(0, 1)], [256])
    x = grid.node_coords()[:, 0]
    prob = Problem(
        grid,
        make_phase(grid, 3.0, [(3.0, 0.0)]),
        ScalarField.zeros(grid),
        ScalarField(grid, np.ones(grid.n_nodes)),
    )
    opts = SolverOptions(
        gradient_tolerance=1e-9,
        energy_tolerance=1e-300,
        max_iterations=1_000_000,
        dual_probes=300,
        seed=0,
    )
    started = time.perf_counter()
    sol = solve_weak(prob, opts)
    elapsed = time.perf_counter() - started
    return grid, x, prob, sol, elapsed


def _double_phase_case():
    grid = build_grid(1, [(0, 1)], [256])
    xc = grid.cell_centers()[:, 0]
    prob = Problem(
        grid,
        make_phase(grid, 1.5, [(3.0, xc)]),
        ScalarField.zeros(grid),
        ScalarField(grid, np.ones(grid.n_nodes)),
    )
    opts = SolverOptions(
        gradient_tolerance=1e-6,
        energy_tolerance=1e-300,
        max_iterations=1_000_000,
        two_start_check=True,
        dual_probes=300,
        seed=0,
    )
    return grid, prob, opts


@pytest.fixture(scope="module")
def double_phase_solution():
    grid, prob, opts = _double_phase_case()
    started = time.perf_counter()
    sol = solve_weak(prob, opts)
    elapsed = time.perf_counter() - started
    return grid, prob, sol, elapsed


def test_criterion_01_laplace_reduction(laplace_solution):
    grid, x, prob, sol, elapsed = laplace_solution
    err = float(np.max(np.abs(sol.w_star.values - np.sin(np.pi * x))))
    ok = err <= 1e-3 and sol.weak_residual <= 1e-8 and elapsed < 10.0
    report_line(
        1, ok, f"error {err:.2e} <= 1e-3, residual {sol.weak_residual:.2e} <= 1e-8, "
        f"{elapsed:.2f}s < 10s"
    )


def test_criterion_02_p_laplacian(p_laplacian_solution):
    grid, x, prob, sol, elapsed = p_laplacian_solution
    p = 3.0
    r = p / (p - 1.0)
    exact = (p - 1.0) / p * (0.5**r - np.abs(x - 0.5) ** r)
    err = float(np.max(np.abs(sol.w_star.values - exact)))
    ok = err <= 5e-3 and elapsed < 30.0
    report_line(2, ok, f"error {err:.2e} <= 5e-3, {elapsed:.1f}s < 30s")


def test_criterion_03_double_phase(double_phase_solution):
    grid, prob, sol, elapsed = double_phase_solution
    strict = bool(np.all(np.diff(sol.energy_history) < 0))
    ok = (
        sol.weak_residual <= 1e-6
        and strict
        and sol.modular_distance is not None
        and sol.modular_distance <= 1e-8
    )
    report_line(
        3, ok, f"residual {sol.weak_residual:.2e} <= 1e-6, strictly decreasing "
        f"history: {strict}, two-start modular distance {sol.modular_distance:.2e} <= 1e-8"
    )


def test_line_search_grows_only_a_first_step_that_passes(monkeypatch):
    # the secant weight of p = 1.5 over-estimates the curvature, so full
    # steps are short: each start grows them along initial_step / shrink^k
    grid, prob, opts = _double_phase_case()
    step_delta, minimize = solver._modular_step_delta, solver.minimize
    searches, starts = [], []

    def trial(phase, a, b, s):
        if s == opts.initial_step:  # every search starts there; no other trial is
            searches.append({"a": a.copy(), "b": b.copy(), "trials": []})
        searches[-1]["trials"].append(s)
        return step_delta(phase, a, b, s)

    def start(prob, options):
        searches.clear()
        sol = minimize(prob, options)
        starts.append((sol, list(searches)))
        return sol

    monkeypatch.setattr(solver, "_modular_step_delta", trial)
    monkeypatch.setattr(solver, "minimize", start)
    solve_weak(prob, opts)

    assert [sol.iterations for sol, _ in starts] == [11, 13]
    grown = 0
    for sol, steps in starts:
        assert sol.termination == "gradient_tolerance" and len(steps) == sol.iterations
        assert np.all(np.diff(sol.energy_history) < 0)
        # the accepted s moved w's cell gradients from a to the next search's a;
        # u's rounding blurs it far less than the lattice spacing 1 / shrink
        after = [step["a"] for step in steps[1:]] + [gradient_values(grid, sol.w_star.values)]
        for step, a_next in zip(steps, after):
            trials, b = step["trials"], step["b"]
            s = float(np.sum((step["a"] - a_next) * b) / np.sum(b * b))
            if trials[-1] > opts.initial_step:
                # the first trial passed; the last, longer one did not
                assert trials == [opts.initial_step / opts.shrink_factor**k for k in range(len(trials))]
                assert s == pytest.approx(trials[-2], rel=1e-4)
                grown += s > opts.initial_step
            else:
                # backtracked, and never grown
                assert trials == [opts.initial_step * opts.shrink_factor**k for k in range(len(trials))]
                assert s == pytest.approx(trials[-1], rel=1e-4)
    assert grown > 0


def _random_uc_tuple(rng):
    dim = 1 if rng.random() < 0.5 else 2
    if dim == 1:
        res = [int(rng.integers(4, 1025))]
    else:
        res = [int(rng.integers(2, 33)), int(rng.integers(2, 33))]
    grid = build_grid(dim, [(0, 1)] * dim, res)
    n = grid.n_cells
    p = rng.uniform(1.1, 5.0, n)
    q = rng.uniform(1.1, 5.0, n)
    mu = rng.uniform(0.0, 10.0, n)
    phase = make_phase(grid, p, [(q, mu)])
    scale_u = 10.0 ** rng.uniform(-1, 1)
    scale_v = 10.0 ** rng.uniform(-1, 1)
    u = ScalarField(grid, scale_u * rng.normal(size=grid.n_nodes))
    v = ScalarField(grid, scale_v * rng.normal(size=grid.n_nodes))
    eps = float(rng.uniform(0.02, 0.98))
    return grid, phase, u, v, eps


def test_criterion_04_uniform_convexity_sweeps():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    tallies = {"gradient": {"pass": 0, "vacuous": 0, "fail": 0},
               "sobolev": {"pass": 0, "vacuous": 0, "fail": 0},
               "multiphase": {"pass": 0, "vacuous": 0, "fail": 0}}
    for _ in range(500):
        _, phase, u, v, eps = _random_uc_tuple(rng)
        tallies["gradient"][verify_uc_pair(u, v, eps, phase, "gradient").verdict] += 1
    for _ in range(200):
        _, phase, u, v, eps = _random_uc_tuple(rng)
        tallies["sobolev"][verify_uc_pair(u, v, eps, phase, "sobolev").verdict] += 1
    grid3 = build_grid(2, [(0, 1), (0, 1)], [16, 16])
    n3 = grid3.n_cells
    phase3 = make_phase(
        grid3,
        rng.uniform(1.2, 4.0, n3),
        [
            (rng.uniform(1.2, 4.0, n3), rng.uniform(0, 8, n3)),
            (rng.uniform(1.2, 4.0, n3), rng.uniform(0, 8, n3)),
            (rng.uniform(1.2, 4.0, n3), rng.uniform(0, 8, n3)),
        ],
    )
    for _ in range(200):
        u = ScalarField(grid3, rng.normal(size=grid3.n_nodes))
        v = ScalarField(grid3, rng.normal(size=grid3.n_nodes))
        eps = float(rng.uniform(0.02, 0.98))
        tallies["multiphase"][verify_uc_pair(u, v, eps, phase3, "gradient").verdict] += 1
    elapsed = time.perf_counter() - started
    fails = sum(t["fail"] for t in tallies.values())
    nonvacuous = sum(t["pass"] for t in tallies.values())
    ok = fails == 0 and elapsed < 60.0 and nonvacuous > 0
    report_line(4, ok, f"fails {fails} of 900 verdicts ({nonvacuous} non-vacuous), "
                f"{elapsed:.1f}s < 60s")


def test_criterion_05_two_point_sweep():
    out = sweep_two_point(1_000_000, seed=555)
    rng = np.random.default_rng(556)
    a = rng.uniform(-10, 10, (1000, 2))
    b = rng.uniform(-10, 10, (1000, 2))
    lhs = np.sum(((a + b) / 2) ** 2, axis=1) + np.sum(((a - b) / 2) ** 2, axis=1)
    rhs = (np.sum(a**2, axis=1) + np.sum(b**2, axis=1)) / 2
    equality = bool(np.max(np.abs(lhs - rhs) / (1 + rhs)) <= 1e-12)
    ok = out["fails"] == 0 and equality
    report_line(
        5, ok, f"{out['fails']} violations in {out['samples']} samples, "
        f"parallelogram equality at h=2: {equality}"
    )


def test_criterion_06_monotonicity_sweep():
    out = sweep_monotonicity(1_000_000, seed=777)
    ok = out["fails"] == 0
    report_line(6, ok, f"{out['fails']} violations in {out['samples']} samples")


def test_criterion_07_luxemburg_norms():
    rng = np.random.default_rng(888)
    worst_unit = 0.0
    worst_hom = 0.0
    all_sandwich = True
    all_overline = True
    for _ in range(200):
        dim = 1 if rng.random() < 0.5 else 2
        res = [int(rng.integers(4, 65))] if dim == 1 else [int(rng.integers(2, 17))] * 2
        grid = build_grid(dim, [(0, 1)] * dim, res)
        n = grid.n_cells
        phase = make_phase(
            grid, rng.uniform(1.1, 5.0, n),
            [(rng.uniform(1.1, 5.0, n), rng.uniform(0.0, 10.0, n))],
        )
        kind = ("zero_order", "gradient", "sobolev")[int(rng.integers(0, 3))]
        u = ScalarField(grid, 10.0 ** rng.uniform(-2, 2) * rng.normal(size=grid.n_nodes))
        norm = luxemburg_norm(u, phase, kind)
        if norm == 0.0:
            continue
        unit = ScalarField(grid, u.values / norm)
        worst_unit = max(worst_unit, abs(rho(unit, phase, kind) - 1.0))
        c = float(rng.uniform(0.05, 20.0))
        hom = abs(luxemburg_norm(ScalarField(grid, c * u.values), phase, kind) - c * norm)
        worst_hom = max(worst_hom, hom / (c * norm))
        report = norm_report(u, phase, kind)
        all_sandwich = all_sandwich and report.sandwich_holds
        all_overline = all_overline and report.overline_holds
    ok = worst_unit <= 1e-9 and worst_hom <= 1e-12 and all_sandwich and all_overline
    report_line(
        7, ok, f"worst |rho(u/norm)-1| {worst_unit:.1e} <= 1e-9, worst homogeneity "
        f"defect {worst_hom:.1e} <= 1e-12, sandwich {all_sandwich}, "
        f"equivalence band {all_overline}"
    )


def _regime_problem_and_iterate(seed):
    """Problem sample with every cell's w-gradient bounded away from zero."""
    rng = np.random.default_rng(seed)
    dim = 1 if seed % 2 else 2
    grid = build_grid(dim, [(0, 1)] * dim, [7] * dim if dim == 2 else [12])
    combos = [(1.4, 1.6), (1.5, 2.8), (2.6, 1.5), (2.4, 3.1)]
    p0, q0 = combos[seed % 4]
    n = grid.n_cells
    p = np.clip(p0 + 0.25 * rng.normal(size=n), 1.15, 4.8)
    q = np.clip(q0 + 0.25 * rng.normal(size=n), 1.15, 4.8)
    mu = np.abs(rng.normal(size=n))
    mu[rng.random(n) < 0.3] = 0.0
    phase = make_phase(grid, p, [(q, mu)])
    f = ScalarField(grid, rng.normal(size=grid.n_nodes))
    from doublephase.mesh import gradient_values

    for sub in range(60):
        sub_rng = np.random.default_rng([seed, sub])
        phi = ScalarField(grid, 0.5 * sub_rng.normal(size=grid.n_nodes))
        u_vals = sub_rng.normal(size=grid.n_nodes)
        u_vals[boundary_mask(grid)] = 0.0
        w_grad = gradient_values(grid, phi.values - u_vals)
        if np.min(np.sqrt(np.sum(w_grad**2, axis=1))) > 0.05:
            return Problem(grid, phase, phi, f), u_vals
    raise AssertionError(f"no non-degenerate iterate found for seed {seed}")


def test_criterion_08_gradient_against_finite_differences():
    worst = 0.0
    regimes_seen = set()
    for seed in range(50):
        prob, u_vals = _regime_problem_and_iterate(seed)
        pmin = prob.phase.p_cells.min()
        qmin = prob.phase.phases[0].q_cells.min()
        regimes_seen.add((pmin < 2, qmin < 2))
        g = energy_gradient(ScalarField(prob.grid, u_vals), prob)
        interior = np.flatnonzero(~boundary_mask(prob.grid))
        rng = np.random.default_rng(seed + 5000)
        probes = rng.choice(interior, size=min(10, interior.size), replace=False)
        scale = max(float(np.max(np.abs(g))), 1e-12)
        step = 1e-6
        for i in probes:
            up = u_vals.copy()
            up[i] += step
            down = u_vals.copy()
            down[i] -= step
            fd = (
                energy(ScalarField(prob.grid, up), prob)
                - energy(ScalarField(prob.grid, down), prob)
            ) / (2 * step)
            worst = max(worst, abs(g[i] - fd) / scale)
    ok = worst <= 1e-6 and len(regimes_seen) >= 3
    report_line(
        8, ok, f"max relative discrepancy {worst:.2e} <= 1e-6 over 50 problems, "
        f"{len(regimes_seen)} regime families"
    )


def test_criterion_09_lower_bound_diagnostic(
    laplace_solution, p_laplacian_solution, double_phase_solution
):
    sols = [laplace_solution[3], p_laplacian_solution[3], double_phase_solution[2]]
    bound_ok = all(s.lower_bound_satisfied for s in sols)
    margins = [float(np.min(s.energy_history) - s.lower_bound_used) for s in sols]
    rng = np.random.default_rng(999)
    scalar_ok = True
    for _ in range(100_000):
        x = float(rng.uniform(0, 100))
        a = float(rng.uniform(0, 10))
        m = float(np.nextafter(rng.uniform(1.0, 8.0), np.inf))
        if not x - a * x ** (1.0 / m) >= -_energy_floor(a, m) - 1e-12:
            scalar_ok = False
            break
    ok = bound_ok and scalar_ok
    report_line(
        9, ok, f"energy histories respect the bound on all 3 solves "
        f"(margins {', '.join(f'{v:.2f}' for v in margins)}), scalar sweep "
        f"100000 samples clean: {scalar_ok}"
    )


def test_criterion_10_matuszewska_index():
    grid = build_grid(1, [(0, 1)], [100])
    rng = np.random.default_rng(1234)
    n = grid.n_cells
    p = rng.uniform(1.1, 5.0, n)
    q = np.empty(n)
    for i in range(n):
        if rng.random() < 0.25:
            q[i] = p[i]
        else:
            down_ok = p[i] - 0.5 >= 1.1
            up_ok = p[i] + 0.5 <= 5.0
            if down_ok and (not up_ok or rng.random() < 0.5):
                q[i] = rng.uniform(1.1, p[i] - 0.5)
            else:
                q[i] = rng.uniform(p[i] + 0.5, 5.0)
    mu = rng.uniform(0.5, 10.0, n)
    phase = make_phase(grid, p, [(q, mu)])
    worst = 0.0
    for cell in range(n):
        closed = matuszewska_index(phase, cell)
        numeric = numeric_matuszewska(p[cell], q[cell], mu[cell])
        worst = max(worst, abs(closed - numeric))
    ok = worst <= 1e-3
    report_line(10, ok, f"max |closed - numeric| {worst:.2e} <= 1e-3 over 100 cells")


def _strip_timing(path):
    payload = json.loads(path.read_text())
    payload.pop("timing_seconds", None)
    return json.dumps(payload, sort_keys=True)


def test_criterion_11_reproducibility(tmp_path):
    solve_cfg = {
        "domain": {"dim": 1, "extents": [[0, 1]], "resolution": [64]},
        "phase": {"p": "1.6 + 0.2*x", "phases": [{"q": "2.5", "mu": "x"}]},
        "source": "1",
        "solver": {"gradient_tolerance": 1e-7, "max_iterations": 200000,
                   "two_start_check": True, "dual_probes": 60},
        "seed": 31,
    }
    verify_cfg = {
        "domain": {"dim": 1, "extents": [[0, 1]], "resolution": [16]},
        "phase": {"p": "2 + sin(3*x)^2", "phases": [{"q": "1.5 + x", "mu": "x"}]},
        "verify": {"samples": 50},
        "seed": 13,
    }
    results = []
    for name, cfg, command in (
        ("solve", solve_cfg, "solve"),
        ("verify", verify_cfg, "verify-uc"),
    ):
        pair = []
        for run in ("a", "b"):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}-{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "doublephase", command, str(cfg_path),
                 "--out-dir", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            pair.append(_strip_timing(out / "report.json"))
        results.append(pair[0] == pair[1])
    csv_a = (tmp_path / "solve-a" / "solution.csv").read_bytes()
    csv_b = (tmp_path / "solve-b" / "solution.csv").read_bytes()
    ok = all(results) and csv_a == csv_b
    report_line(
        11, ok, f"solve report match: {results[0]}, verify report match: {results[1]}, "
        f"csv bytes match: {csv_a == csv_b}"
    )
