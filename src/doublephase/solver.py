"""Variational solver: discrete Dirichlet energy, its exact gradient, descent.

The unknown is the zero-trace correction u; the returned solution is
w = phi - u.  The energy minimized over zero-trace nodal fields is

    I(u) = rho(grad(phi - u)) + <f, u>

whose stationarity condition is exactly the discrete weak form of the
boundary-value problem for w with source f.  The gradient of I with respect
to interior nodal values is assembled by the chain rule through the discrete
gradient and cell-average operators, so the weak-form residual equals the
gradient max-norm identically.

Line searches compare energy *differences* computed per cell with
expm1/log1p, never as a subtraction of two totals; this keeps the Armijo
predicate meaningful down to decreases far below float cancellation level
and lets the solver reach residuals near 1e-9 on desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .convexity import (
    ConvexityReport,
    admissible_epsilon_bound,
    monotonicity_sides,
    verify_uc_pair,
)
from .mesh import (
    Grid,
    ScalarField,
    boundary_mask,
    cell_average_adjoint,
    cell_average_values,
    gradient_adjoint,
    gradient_values,
)
from .modular import estimate_dual_bound, l2_pairing, luxemburg_norm, modular_value
from .phase import PhaseStructure


class SolverError(RuntimeError):
    pass


class LineSearchError(SolverError):
    """Raised when backtracking underflows; carries the iterate state."""

    def __init__(self, message: str, iteration: int, energy: float, u_values: np.ndarray):
        super().__init__(message)
        self.iteration = iteration
        self.energy = energy
        self.u_values = u_values


@dataclass(frozen=True, eq=False)
class Problem:
    grid: Grid
    phase: PhaseStructure
    phi: ScalarField
    f: ScalarField
    dual_bound: float | None = None

    def __post_init__(self):
        if self.phase.grid is not self.grid and self.phase.grid.cell_shape != self.grid.cell_shape:
            raise ValueError("phase structure does not match the grid")
        for name, fld in (("phi", self.phi), ("f", self.f)):
            if fld.values.size != self.grid.n_nodes:
                raise ValueError(f"{name} does not match the grid node count")
        if self.dual_bound is not None and self.dual_bound < 0:
            raise ValueError("dual_bound must be nonnegative")


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 50_000
    gradient_tolerance: float | None = None  # default 1e-8 (1 + |I(u0)|) / |domain|
    energy_tolerance: float = 1e-14
    armijo_constant: float = 1e-4
    shrink_factor: float = 0.5
    initial_step: float = 1.0
    step_floor: float = 1e-16
    initial_guess: np.ndarray | None = None
    seed: int = 0
    method: str = "cg"  # "cg" (conjugate directions) or "gd" (steepest descent)
    two_start_check: bool = False
    dual_probes: int = 256
    uc_epsilon: float = 0.5

    def __post_init__(self):
        if not (_is_number(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer of at least 1")
        if self.gradient_tolerance is not None and self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")
        if self.energy_tolerance <= 0:
            raise ValueError("energy_tolerance must be positive")
        if not 0 < self.armijo_constant < 1:
            raise ValueError("armijo_constant must lie in (0, 1)")
        if not 0 < self.shrink_factor < 1:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.initial_step <= 0 or self.step_floor <= 0:
            raise ValueError("steps must be positive")
        if self.method not in ("cg", "gd"):
            raise ValueError("method must be 'cg' or 'gd'")
        if not isinstance(self.two_start_check, bool):
            raise ValueError("two_start_check must be true or false")
        if not (_is_number(self.dual_probes, int) and self.dual_probes >= 0):
            raise ValueError("dual_probes must be a nonnegative integer")
        if not (_is_number(self.uc_epsilon) and self.uc_epsilon > 0):
            raise ValueError("uc_epsilon must be a positive number")


@dataclass(eq=False)
class Solution:
    u_star: ScalarField
    w_star: ScalarField
    energy_history: np.ndarray
    gradient_norm: float
    weak_residual: float
    iterations: int
    converged: bool
    termination: str
    dual_bound: float | None = None
    lower_bound_used: float | None = None
    lower_bound_satisfied: bool | None = None
    uc_certificate: ConvexityReport | None = None
    modular_distance: float | None = None
    uniqueness_gap: float | None = None
    gradients_equal: bool | None = None


def _require_zero_trace(grid: Grid, values: np.ndarray, what: str):
    mask = boundary_mask(grid)
    if np.any(values[mask] != 0.0):
        raise ValueError(f"{what} must vanish on boundary nodes")


def energy(u: ScalarField, prob: Problem) -> float:
    """I(u) = rho(grad(phi - u)) + <f, u> for a zero-trace u."""
    _require_zero_trace(prob.grid, u.values, "u")
    w_vals = prob.phi.values - u.values
    value = modular_value(w_vals, prob.grid, prob.phase, "gradient")
    return value + l2_pairing(prob.f, u)


def _load_vector(prob: Problem) -> np.ndarray:
    fc = cell_average_values(prob.grid, prob.f.values)
    return prob.grid.cell_volume * cell_average_adjoint(prob.grid, fc)


def _flux(phase: PhaseStructure, w_grad: np.ndarray) -> np.ndarray:
    t = np.sqrt(np.sum(w_grad**2, axis=1))
    return phase.flux_coefficient(t)[:, None] * w_grad


def _gradient_from_wgrad(
    prob: Problem, w_grad: np.ndarray, load: np.ndarray, interior: np.ndarray
) -> np.ndarray:
    g = -prob.grid.cell_volume * gradient_adjoint(prob.grid, _flux(prob.phase, w_grad)) + load
    g[~interior] = 0.0
    return g


def energy_gradient(u: ScalarField, prob: Problem) -> np.ndarray:
    """Exact gradient of the discrete energy; zero on boundary nodes."""
    _require_zero_trace(prob.grid, u.values, "u")
    interior = ~boundary_mask(prob.grid)
    w_grad = gradient_values(prob.grid, prob.phi.values - u.values)
    return _gradient_from_wgrad(prob, w_grad, _load_vector(prob), interior)


def _modular_step_delta(
    phase: PhaseStructure, vol: float, a: np.ndarray, b: np.ndarray, s: float
) -> float:
    """rho(|a - s b|) - rho(|a|) summed over cells, without cancellation.

    a is the current per-cell w-gradient, b the per-cell gradient of the
    search direction.  The norm difference is computed from the exact
    identity t1^2 - t0^2 = s^2 |b|^2 - 2 s a.b, and each power difference
    through expm1/log1p when the arguments are close.
    """
    t0 = np.sqrt(np.sum(a**2, axis=1))
    shifted = a - s * b
    t1 = np.sqrt(np.sum(shifted**2, axis=1))
    num = s * (s * np.sum(b**2, axis=1) - 2.0 * np.sum(a * b, axis=1))
    denom = t1 + t0
    safe_denom = np.where(denom > 0, denom, 1.0)
    diff = np.where(denom > 0, num / safe_denom, 0.0)
    near = (t0 > 0) & (np.abs(diff) < 0.5 * t0)
    safe_t0 = np.where(near, t0, 1.0)
    log_ratio = np.log1p(np.where(near, diff / safe_t0, 0.0))
    acc = np.zeros_like(t0)
    for r, c in phase.terms():
        near_val = safe_t0**r * np.expm1(r * log_ratio)
        far_val = t1**r - t0**r
        acc += c * np.where(near, near_val, far_val)
    return vol * float(np.sum(acc))


def minimize(prob: Problem, opts: SolverOptions = SolverOptions()) -> Solution:
    """Descend the discrete energy from the initial guess to a stationary point.

    Directions are steepest-descent or Polak-Ribiere conjugate (the default;
    it behaves like gradient descent with restarts but handles the severe
    ill-conditioning that appears near degenerate-gradient cells when an
    exponent is below 2).  Every accepted step satisfies the Armijo
    condition, so the recorded energies decrease monotonically.
    """
    grid, phase = prob.grid, prob.phase
    vol = grid.cell_volume
    interior = ~boundary_mask(grid)
    n_interior = int(interior.sum())

    if opts.initial_guess is None:
        u = np.zeros(grid.n_nodes)
    else:
        u = np.asarray(opts.initial_guess, dtype=float).reshape(-1).copy()
        if u.size != grid.n_nodes:
            raise ValueError("initial guess does not match the grid")
        _require_zero_trace(grid, u, "initial guess")

    load = _load_vector(prob)
    load[~interior] = 0.0
    phi_grad = gradient_values(grid, prob.phi.values)
    w_grad = phi_grad - gradient_values(grid, u)

    t = np.sqrt(np.sum(w_grad**2, axis=1))
    E = vol * float(np.sum(phase.h_of(t))) + float(np.dot(load, u))
    history = [E]

    gtol = opts.gradient_tolerance
    if gtol is None:
        gtol = 1e-8 * (1.0 + abs(E)) / grid.volume

    g = _gradient_from_wgrad(prob, w_grad, load, interior)
    d = -g
    is_steepest = True
    gTd = float(np.dot(g, d))
    Gd = gradient_values(grid, d)
    pair_rate = float(np.dot(load, d))
    step = opts.initial_step

    converged = False
    termination = "max_iterations"
    it = 0
    while it < opts.max_iterations:
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= gtol:
            converged = True
            termination = "gradient_tolerance"
            break
        it += 1

        # Armijo backtracking on the cancellation-free energy difference
        s = step
        dE = 0.0
        accepted = False
        for _ in range(200):
            dE = _modular_step_delta(phase, vol, w_grad, Gd, s) + s * pair_rate
            if dE <= opts.armijo_constant * s * gTd:
                accepted = True
                break
            s *= opts.shrink_factor
            if s < opts.step_floor:
                break
        if not accepted:
            if not is_steepest:
                # conjugate direction failed; retry once from steepest descent
                d = -g
                is_steepest = True
                gTd = float(np.dot(g, d))
                Gd = gradient_values(grid, d)
                pair_rate = float(np.dot(load, d))
                step = opts.initial_step
                it -= 1
                continue
            raise LineSearchError(
                f"line search underflow at iteration {it}", it, E, u.copy()
            )

        # one quadratic interpolation refinement: the parabola through the
        # origin with slope gTd and the accepted point
        denom = dE - s * gTd
        if denom > 0.0:
            s_q = -gTd * s * s / (2.0 * denom)
            if s_q > 0.0 and abs(s_q - s) > 1e-2 * s:
                dE_q = _modular_step_delta(phase, vol, w_grad, Gd, s_q) + s_q * pair_rate
                if dE_q < dE and dE_q <= opts.armijo_constant * s_q * gTd:
                    s, dE = s_q, dE_q

        u += s * d
        w_grad -= s * Gd
        if it % 512 == 0:
            w_grad = phi_grad - gradient_values(grid, u)
        E += dE
        history.append(E)
        if not np.isfinite(E):
            raise SolverError(f"non-finite energy at iteration {it}")

        g_new = _gradient_from_wgrad(prob, w_grad, load, interior)
        if abs(dE) <= opts.energy_tolerance * (1.0 + abs(E)):
            g = g_new
            converged = True
            termination = "energy_tolerance"
            break

        if opts.method == "cg" and it % max(n_interior, 1) != 0:
            beta = max(0.0, float(np.dot(g_new, g_new - g) / np.dot(g, g)))
        else:
            beta = 0.0
        d = -g_new + beta * d
        is_steepest = beta == 0.0
        g = g_new
        gTd = float(np.dot(g, d))
        if gTd >= -1e-14 * float(np.linalg.norm(g) * np.linalg.norm(d)):
            d = -g
            is_steepest = True
            gTd = float(np.dot(g, d))
        Gd = gradient_values(grid, d)
        pair_rate = float(np.dot(load, d))
        step = 2.0 * s

    gnorm = float(np.max(np.abs(g)))
    u_star = ScalarField(grid, u)
    w_star = ScalarField(grid, prob.phi.values - u)
    return Solution(
        u_star=u_star,
        w_star=w_star,
        energy_history=np.array(history),
        gradient_norm=gnorm,
        weak_residual=gnorm,
        iterations=it,
        converged=converged,
        termination=termination,
    )


def weak_residual(w: ScalarField, prob: Problem) -> float:
    """Max weak-form defect over interior nodal test functions.

    Assembles flux(grad w) against every interior basis gradient minus the
    load, with the same quadrature as the energy; asserts agreement with the
    energy gradient at u = phi - w.
    """
    grid = prob.grid
    bmask = boundary_mask(grid)
    scale = 1.0 + float(np.max(np.abs(prob.phi.values)))
    if np.max(np.abs((w.values - prob.phi.values)[bmask])) > 1e-12 * scale:
        raise ValueError("w must equal phi on boundary nodes")
    interior = ~bmask
    load = _load_vector(prob)
    r = grid.cell_volume * gradient_adjoint(
        grid, _flux(prob.phase, gradient_values(grid, w.values))
    ) - load
    r[bmask] = 0.0
    residual = float(np.max(np.abs(r[interior])))
    # consistency with the energy gradient at u = phi - w
    u_vals = prob.phi.values - w.values
    u_vals[bmask] = 0.0
    g = energy_gradient(ScalarField(grid, u_vals), prob)
    if np.max(np.abs(r + g)) > 1e-10 * (1.0 + residual):
        raise SolverError("weak residual disagrees with the energy gradient")
    return residual


def lower_bound(a: float, m: float, grad_phi_norm: float) -> float:
    """Energy floor -a (a/m)^(1/(m-1)) - a (1 + ||grad phi||)."""
    if m <= 1:
        raise ValueError(f"m must exceed 1, got {m}")
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a == 0.0:
        return 0.0
    try:
        head = a * (a / m) ** (1.0 / (m - 1.0))
    except OverflowError:
        head = np.inf
    return float(-head - a * (1.0 + grad_phi_norm))


def uniqueness_certificate(
    v: ScalarField, w: ScalarField, prob: Problem
) -> tuple[float, bool]:
    """Monotonicity mass of the flux difference between two candidate solutions.

    Sums the per-cell lower bounds (power form where the exponent is >= 2,
    quadratic-weighted form below 2) for the p-term and every weighted
    q-term against grad(v - w); also asserts that the flux pairing, summed
    over the same terms, dominates the certificate.  Returns (certificate,
    gradients_equal).
    """
    grid = prob.grid
    bmask = boundary_mask(grid)
    scale = 1.0 + float(np.max(np.abs(prob.phi.values)))
    for name, fld in (("v", v), ("w", w)):
        if np.max(np.abs((fld.values - prob.phi.values)[bmask])) > 1e-12 * scale:
            raise ValueError(f"{name} must equal phi on boundary nodes")
    gv = gradient_values(grid, v.values)
    gw = gradient_values(grid, w.values)
    pairing_cells = np.zeros(grid.n_cells)
    cert_cells = np.zeros(grid.n_cells)
    for r, weight in prob.phase.terms(bar=True):
        lhs, rhs = monotonicity_sides(r, gv, gw)
        pairing_cells += weight * lhs
        cert_cells += weight * rhs
    certificate = grid.cell_volume * float(np.sum(cert_cells))
    pairing = grid.cell_volume * float(np.sum(pairing_cells))
    if pairing < certificate - 1e-12 * (1.0 + abs(pairing) + certificate):
        raise SolverError("flux pairing fell below its monotonicity certificate")
    grad_scale = 1.0 + float(np.max(np.sqrt(np.sum(gv**2, axis=1))) + np.max(np.sqrt(np.sum(gw**2, axis=1))))
    ndiff = np.sqrt(np.sum((gv - gw) ** 2, axis=1))
    gradients_equal = bool(np.max(ndiff) <= 1e-10 * grad_scale)
    return certificate, gradients_equal


def solve_weak(prob: Problem, opts: SolverOptions = SolverOptions()) -> Solution:
    """Minimize the energy and certify the resulting weak solution.

    Attaches the weak residual, the empirical dual-norm bound and energy
    floor, and (when ``opts.two_start_check``) a second run from a seeded
    random start with the modular distance and uniqueness certificate
    between the two solutions.
    """
    sol = minimize(prob, opts)
    sol.weak_residual = weak_residual(sol.w_star, prob)

    if prob.dual_bound is not None:
        a = prob.dual_bound
    else:
        a = estimate_dual_bound(
            prob.f,
            prob.phase,
            n_probes=opts.dual_probes,
            seed=opts.seed,
            extra_fields=(sol.u_star,),
        )
    m = prob.phase.summary.m
    grad_phi_norm = luxemburg_norm(prob.phi, prob.phase, "gradient")
    lb = lower_bound(a, m, grad_phi_norm)
    sol.dual_bound = a
    sol.lower_bound_used = lb
    sol.lower_bound_satisfied = bool(
        np.all(sol.energy_history >= lb - 1e-9 * (1.0 + abs(lb)))
    )

    if opts.two_start_check:
        rng = np.random.default_rng([opts.seed, 1])
        interior = ~boundary_mask(prob.grid)
        start = np.zeros(prob.grid.n_nodes)
        amp = 0.5 * (1.0 + float(np.max(np.abs(prob.phi.values))))
        start[interior] = amp * rng.normal(size=int(interior.sum()))
        second = minimize(prob, replace(opts, initial_guess=start, two_start_check=False))
        eps = min(opts.uc_epsilon, 0.9 * admissible_epsilon_bound(m))
        report = verify_uc_pair(sol.u_star, second.u_star, eps, prob.phase, "gradient")
        cert, equal = uniqueness_certificate(sol.w_star, second.w_star, prob)
        sol.uc_certificate = report
        sol.modular_distance = report.gap_value
        sol.uniqueness_gap = cert
        sol.gradients_equal = equal
    return sol
