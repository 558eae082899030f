"""Variational solver: discrete Dirichlet energy, its exact gradient, descent.

The unknown is the zero-trace correction u; the returned solution is
w = phi - u.  The energy minimized over zero-trace nodal fields is

    I(u) = rho(grad(phi - u)) + <f, u>

whose stationarity condition is exactly the discrete weak form of the
boundary-value problem for w with source f.  The gradient of I with respect
to interior nodal values is assembled by the chain rule through the discrete
gradient and cell-average operators, so the weak-form residual equals the
gradient max-norm identically.

Descent directions are preconditioned by a per-cell curvature model of the
integrand: the exact Hessian of every term with exponent >= 2 and the
relaxed Kacanov (secant) weight of every term below 2 (Diening, Fornasier,
Tomasi & Wank, Numer. Math. 2020).  The model is assembled from the mesh's
corner stencil and solved exactly, numpy only: by a scalar tridiagonal sweep
in 1D and block-tridiagonal elimination in 2D.  The secant weight
over-estimates the curvature, so a full step below exponent 2 is often too
short: a line search whose full step passes grows it while the energy falls
further.  So a solve takes tens of steps, one model solve each.

Line searches compare energy *differences* computed per cell with
expm1/log1p, never as a subtraction of two totals; this keeps the Armijo
predicate meaningful down to decreases far below float cancellation level
and lets the solver reach residuals near 1e-9 on desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .convexity import (
    ConvexityReport,
    _energy_floor,
    admissible_epsilon_bound,
    monotonicity_sides,
    verify_uc_pair,
)
from .mesh import (
    Grid,
    ScalarField,
    _is_finite,
    _is_number,
    _readonly,
    _require_same_grid,
    _require_zero_trace,
    boundary_mask,
    cell_average_adjoint,
    cell_average_values,
    form_solve,
    gradient_adjoint,
    gradient_form,
    gradient_values,
    magnitude,
    squared_norm,
)
from .modular import estimate_dual_bound, luxemburg_norm, modular_value
from .phase import PhaseStructure


# lower clamp of |grad w| in the curvature model, so that the weights
# te^(r-2) of exponents below 2 stay finite at cells with a vanishing gradient
CURVATURE_FLOOR = 1e-12
# least isotropic curvature weight of a cell relative to the largest
CURVATURE_CONTRAST = 1e-12
# a search direction moves u by at most this factor times 1 + max|u|
MAX_DIRECTION_RATIO = 2.0**64


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Problem:
    grid: Grid
    phase: PhaseStructure
    phi: ScalarField
    f: ScalarField

    def __post_init__(self):
        _require_same_grid(
            self.grid, ("phase structure", self.phase), ("phi", self.phi), ("f", self.f)
        )

    @cached_property
    def load(self) -> np.ndarray:
        """vol A^T A f with A the cell average, zero on boundary nodes; read-only.

        An entry past the largest float reads inf, silently: the energy is then non-finite.
        """
        fc = cell_average_values(self.grid, self.f.values)
        with np.errstate(over="ignore"):
            load = self.grid.cell_volume * cell_average_adjoint(self.grid, fc)
        load[boundary_mask(self.grid)] = 0.0
        return _readonly(load)


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
    method: str = "cg"  # "cg" or "gd"; both take the curvature step -B^-1 g
    two_start_check: bool = False
    dual_bound: float | None = None  # None: estimate from dual_probes random probes
    dual_probes: int = 256
    uc_epsilon: float = 0.5

    def __post_init__(self):
        if not (_is_number(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer of at least 1")
        gtol = self.gradient_tolerance
        if gtol is not None and not (_is_finite(gtol) and gtol > 0):
            raise ValueError("gradient_tolerance must be null or a finite positive number")
        if not (_is_finite(self.energy_tolerance) and self.energy_tolerance > 0):
            raise ValueError("energy_tolerance must be a finite positive number")
        if not 0 < self.armijo_constant < 1:
            raise ValueError("armijo_constant must lie in (0, 1)")
        if not 0 < self.shrink_factor < 1:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if not all(_is_finite(x) and x > 0 for x in (self.initial_step, self.step_floor)):
            raise ValueError("initial_step and step_floor must be finite positive numbers")
        if not (_is_number(self.seed, int) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        if self.method not in ("cg", "gd"):
            raise ValueError("method must be 'cg' or 'gd'")
        if not isinstance(self.two_start_check, bool):
            raise ValueError("two_start_check must be true or false")
        a = self.dual_bound
        if a is not None and not (_is_finite(a) and a >= 0):
            raise ValueError("dual_bound must be null or a finite nonnegative number")
        if not (_is_number(self.dual_probes, int) and self.dual_probes >= 0):
            raise ValueError("dual_probes must be a nonnegative integer")
        if not (_is_finite(self.uc_epsilon) and self.uc_epsilon > 0):
            raise ValueError("uc_epsilon must be a finite positive number")


@dataclass(eq=False)
class Solution:
    u_star: ScalarField
    w_star: ScalarField
    energy_history: np.ndarray
    gradient_norm: float
    weak_residual: float
    iterations: int
    termination: str
    second_termination: str | None = None  # the second start's, under ``two_start_check``
    dual_bound: float | None = None
    lower_bound_used: float | None = None
    lower_bound_satisfied: bool | None = None
    uc_certificate: ConvexityReport | None = None
    modular_distance: float | None = None
    uniqueness_gap: float | None = None
    gradients_equal: bool | None = None

    @property
    def converged(self) -> bool:  # every start that ran stopped at a tolerance
        stops = {self.termination, self.second_termination} - {None}
        return stops <= {"gradient_tolerance", "energy_tolerance"}


def energy(u: ScalarField, prob: Problem) -> float:
    """I(u) = rho(grad(phi - u)) + <f, u> for a zero-trace u, <f, u> = load . u."""
    _require_same_grid(prob.grid, ("u", u))
    _require_zero_trace(prob.grid, u.values, "u")
    value = modular_value(prob.phi.values - u.values, prob.grid, prob.phase, "gradient")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed pairing reads inf or NaN
        return float(value) + float(np.dot(prob.load, u.values))


def _flux(phase: PhaseStructure, w_grad: np.ndarray) -> np.ndarray:
    t = magnitude(w_grad)
    return phase.flux_coefficient(t)[:, None] * w_grad


def _defect(prob: Problem, w_grad: np.ndarray) -> np.ndarray:
    """Weak-form defect vol G^T flux(grad w) - load, zero on boundary nodes."""
    r = prob.grid.cell_volume * gradient_adjoint(prob.grid, _flux(prob.phase, w_grad)) - prob.load
    r[boundary_mask(prob.grid)] = 0.0
    return r


def energy_gradient(u: ScalarField, prob: Problem) -> np.ndarray:
    """Exact gradient of the discrete energy; zero on boundary nodes."""
    _require_same_grid(prob.grid, ("u", u))
    _require_zero_trace(prob.grid, u.values, "u")
    return -_defect(prob, gradient_values(prob.grid, prob.phi.values - u.values))


def _modular_step_delta(phase: PhaseStructure, a: np.ndarray, b: np.ndarray, s: float) -> float:
    """rho(|a - s b|) - rho(|a|) summed over cells, without cancellation.

    a is the per-cell w-gradient, b that of the search direction.  The norm
    difference comes from the exact identity t1^2 - t0^2 = s^2 |b|^2 - 2 s a.b,
    and each power difference through expm1/log1p where the arguments are
    close; under ``minimize``'s ``np.errstate``, masked-out rows divide freely.
    """
    t0, t1 = magnitude(a), magnitude(a - s * b)
    ab = sum(a[:, k] * b[:, k] for k in range(a.shape[1]))  # from 0, as np.sum adds
    num = s * (s * squared_norm(b) - 2.0 * ab)
    denom = t1 + t0
    diff = np.where(denom > 0, num / denom, 0.0)
    near = (t0 > 0) & (np.abs(diff) < 0.5 * t0)
    log_ratio = np.log1p(np.where(near, diff / t0, 0.0))
    acc = np.zeros_like(t0)
    for r, c in phase.terms():
        near_val = t0**r * np.expm1(r * log_ratio)
        far_val = t1**r - t0**r
        acc += c * np.where(near, near_val, far_val)
    return phase.grid.cell_volume * float(np.sum(acc))


def _curvature(phase: PhaseStructure, w_grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-cell curvature model B of the integrand at the cell gradients g.

    Each term t^r / r (coefficient 1 or mu) adds its exact Hessian
    te^(r-2) I + (r-2) te^(r-4) g g^T where r >= 2, and only the secant
    weight te^(r-2) I where r < 2, with te = max(|g|, CURVATURE_FLOOR).  The
    secant weight majorizes the curvature of a term with r < 2, so full
    steps along -B^-1 grad I pass the Armijo test near the minimizer.

    Returns (C, L) with B = e^L C.  The weights are formed as logarithms and
    scaled so that the largest is 1, because te^(r-2) leaves the float range
    at a vanishing gradient for r beyond ~30; the isotropic weight of every
    cell is kept at least CURVATURE_CONTRAST times the largest, so the
    assembled form stays positive definite.
    """
    te = np.maximum(magnitude(w_grad), CURVATURE_FLOOR)
    log_te = np.log(te)
    terms = phase.terms(bar=True)
    with np.errstate(divide="ignore"):
        logs = [np.log(weight) + (r - 2.0) * log_te for r, weight in terms]
    log_scale = max(float(np.max(x)) for x in logs)
    iso = np.zeros_like(te)
    outer = np.zeros_like(te)
    for (r, _), x in zip(terms, logs):
        a = np.exp(x - log_scale)
        iso += a
        outer += np.maximum(r - 2.0, 0.0) * a
    iso = np.maximum(iso, CURVATURE_CONTRAST * np.max(iso))
    n = w_grad / te[:, None]
    eye = np.eye(w_grad.shape[1])
    cells = iso[:, None, None] * eye + outer[:, None, None] * n[:, :, None] * n[:, None, :]
    return cells, log_scale


def _finite(value: float, what: str, it: int) -> float:
    if not np.isfinite(value):
        raise SolverError(f"non-finite {what} at iteration {it}")
    return value


@np.errstate(all="ignore")
def minimize(prob: Problem, opts: SolverOptions = SolverOptions()) -> Solution:
    """Descend the discrete energy from the initial guess to its minimizer.

    Each gradient g is preconditioned by the curvature model of
    ``_curvature``, assembled over the mesh as vol sum_c G_c^T B_c G_c and
    solved exactly on the interior nodes: the step is along d = -B^-1 g, a
    damped Newton step where every exponent is >= 2 and a relaxed Kacanov
    step below 2 (``method`` "cg" and "gd" both name this step).  Where the
    model is nearly singular, d is shortened to move u by at most
    MAX_DIRECTION_RATIO (1 + max|u|).  Every search starts at
    ``initial_step`` and multiplies the step by ``shrink_factor`` until the
    Armijo condition holds or the change of u falls below ``step_floor``
    relative to 1 + max|u|.  Where the first step passes, the search instead
    divides it by ``shrink_factor`` as long as the longer step passes too,
    gives a strictly lower energy and moves u by at most MAX_DIRECTION_RATIO
    (1 + max|u|); where every exponent is >= 2 the model is the Hessian, and
    a full step is rarely grown.  So the recorded energies decrease
    strictly; a decrease below the float resolution of the energy is
    recorded once the accumulated decreases change it.

    Every stop returns a ``Solution`` at the last accepted iterate, with
    ``iterations`` counting accepted steps and ``termination`` one of
    "gradient_tolerance" or "energy_tolerance" (converged), "max_iterations"
    or "line_search" (a search reached the step floor).  It runs under one
    ``np.errstate``: a non-finite energy or gradient, or a model that cannot be
    factored or gives a non-finite direction, raises ``SolverError``.
    """
    grid, phase = prob.grid, prob.phase

    if opts.initial_guess is None:
        u = np.zeros(grid.n_nodes)
    else:
        u = ScalarField(grid, opts.initial_guess).values.copy()
        _require_zero_trace(grid, u, "initial guess")

    E = _finite(energy(ScalarField(grid, u), prob), "energy", 0)
    history = [E]
    gtol = opts.gradient_tolerance
    if gtol is None:
        gtol = 1e-8 * (1.0 + abs(E)) / grid.volume

    phi_grad = gradient_values(grid, prob.phi.values)
    w_grad = phi_grad - gradient_values(grid, u)
    pending = 0.0

    def search(d, reach):
        """Armijo search on the cancellation-free energy difference: (s, dE) or None."""
        # a slope that overflows stops the search or makes dE, and so E, non-finite
        gTd = float(np.dot(g, d))
        pair_rate = float(np.dot(prob.load, d))
        Gd = gradient_values(grid, d)
        # the floor bounds the change of u, not s: where every exponent
        # exceeds 2 and the gradient vanishes (a zero start), B is nearly
        # singular and the accepted step is many orders shorter than -B^-1 g
        floor = opts.step_floor * (1.0 + float(np.max(np.abs(u))))
        size = float(np.max(np.abs(d)))

        def passes(s):
            # an overflowing trial step gives a non-finite dE and is rejected
            dE = _modular_step_delta(phase, w_grad, Gd, s) + s * pair_rate
            return dE <= opts.armijo_constant * s * gTd, dE

        s = opts.initial_step
        while gTd < 0.0 and s * size >= floor:
            ok, dE = passes(s)
            if ok:
                break
            s *= opts.shrink_factor
        else:
            return None
        # the secant weight of an exponent below 2 over-estimates its
        # curvature, so a full step that passes is often too short
        if s == opts.initial_step:
            while np.log(s) + np.log(size) - np.log(opts.shrink_factor) <= reach:
                longer = s / opts.shrink_factor
                ok, dE_longer = passes(longer)
                if not (ok and dE_longer < dE):
                    break
                s, dE = longer, dE_longer
        return s, dE

    it = 0
    while True:
        g = -_defect(prob, w_grad)
        gnorm = _finite(float(np.max(np.abs(g))), "gradient", it)
        if it > 0 and abs(dE) <= opts.energy_tolerance * (1.0 + abs(E)):
            termination = "energy_tolerance"
            break
        if it == opts.max_iterations:
            termination = "max_iterations"
            break
        if gnorm <= gtol:
            termination = "gradient_tolerance"
            break
        cells, log_scale = _curvature(phase, w_grad)
        try:
            z = form_solve(grid, gradient_form(grid, cells), g)
        except (np.linalg.LinAlgError, MemoryError) as err:
            raise SolverError(f"curvature solve failed at iteration {it + 1}: {err}") from err
        # d = -B^-1 g = -e^(-L) z, shortened where that would move u too far
        reach = np.log(MAX_DIRECTION_RATIO * (1.0 + float(np.max(np.abs(u)))))
        d = -np.exp(min(-log_scale, reach - np.log(float(np.max(np.abs(z)))))) * z
        if not np.all(np.isfinite(d)):
            raise SolverError(f"curvature solve failed at iteration {it + 1}: non-finite direction")
        step = search(d, reach)
        if step is None:
            termination = "line_search"
            break
        s, dE = step
        it += 1

        u += s * d
        w_grad = phi_grad - gradient_values(grid, u)
        # near the minimizer a decrease can fall below the float resolution
        # of E: it is held back until the accumulated decreases show in E
        pending = _finite(pending + dE, "energy", it)
        E_next = E + pending
        if E_next < E:
            pending -= E_next - E
            E = E_next
            history.append(E)

    return Solution(
        u_star=ScalarField(grid, u),
        w_star=ScalarField(grid, prob.phi.values - u),
        energy_history=np.array(history),
        gradient_norm=gnorm,
        weak_residual=gnorm,
        iterations=it,
        termination=termination,
    )


def _require_phi_trace(prob: Problem, fld: ScalarField, name: str):
    _require_same_grid(prob.grid, (name, fld))
    bmask = boundary_mask(prob.grid)
    scale = 1.0 + float(np.max(np.abs(prob.phi.values)))
    if np.max(np.abs((fld.values - prob.phi.values)[bmask])) > 1e-12 * scale:
        raise ValueError(f"{name} must equal phi on boundary nodes")


def weak_residual(w: ScalarField, prob: Problem) -> float:
    """Max weak-form defect over interior nodal test functions.

    Assembles flux(grad w) against every interior basis gradient minus the
    load, with the same quadrature as the energy; asserts agreement with the
    energy gradient at u = phi - w.
    """
    _require_phi_trace(prob, w, "w")
    r = _defect(prob, gradient_values(prob.grid, w.values))
    residual = float(np.max(np.abs(r)))
    # consistency with the energy gradient at u = phi - w
    u_vals = prob.phi.values - w.values
    u_vals[boundary_mask(prob.grid)] = 0.0
    g = energy_gradient(ScalarField(prob.grid, u_vals), prob)
    if np.max(np.abs(r + g)) > 1e-10 * (1.0 + residual):
        raise SolverError("weak residual disagrees with the energy gradient")
    return residual


def lower_bound(a: float, m: float, grad_phi_norm: float) -> float:
    """Energy floor -a (a/m)^(1/(m-1)) - a (1 + ||grad phi||)."""
    head = _energy_floor(a, m)
    return 0.0 if a == 0.0 else float(-head - a * (1.0 + grad_phi_norm))


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
    for name, fld in (("v", v), ("w", w)):
        _require_phi_trace(prob, fld, name)
    gv = gradient_values(grid, v.values)
    gw = gradient_values(grid, w.values)
    # one row per (exponent, weight) term; each cell sums its terms before the cells are summed
    r, weight = map(np.array, zip(*prob.phase.terms(bar=True)))
    # sides that overflow read inf or NaN, silently, as in the sweeps
    with np.errstate(all="ignore"):
        lhs, rhs = monotonicity_sides(r, gv, gw)
        certificate = grid.cell_volume * float(np.sum(np.sum(weight * rhs, axis=0)))
        pairing = grid.cell_volume * float(np.sum(np.sum(weight * lhs, axis=0)))
    if pairing < certificate - 1e-12 * (1.0 + abs(pairing) + certificate):
        raise SolverError("flux pairing fell below its monotonicity certificate")
    grad_scale = 1.0 + float(np.max(magnitude(gv)) + np.max(magnitude(gw)))
    ndiff = magnitude(gv - gw)
    gradients_equal = bool(np.max(ndiff) <= 1e-10 * grad_scale)
    return certificate, gradients_equal


@np.errstate(all="ignore")
def solve_weak(prob: Problem, opts: SolverOptions = SolverOptions()) -> Solution:
    """Minimize the energy and certify the resulting weak solution.

    Attaches the weak residual, the empirical dual-norm bound and energy
    floor, and (when ``opts.two_start_check``) a second run from a seeded
    random start with the modular distance and uniqueness certificate
    between the two solutions.  A ``SolverError`` of the second start says so.
    """
    sol = minimize(prob, opts)
    sol.weak_residual = weak_residual(sol.w_star, prob)

    if opts.dual_bound is not None:
        a = opts.dual_bound
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
    # a floor that overflowed to -inf bounds nothing: lower_bound_satisfied stays None
    if np.isfinite(lb):
        sol.lower_bound_satisfied = bool(
            np.all(sol.energy_history >= lb - 1e-9 * (1.0 + abs(lb)))
        )

    if opts.two_start_check:
        rng = np.random.default_rng([opts.seed, 1])
        interior = ~boundary_mask(prob.grid)
        start = np.zeros(prob.grid.n_nodes)
        amp = 0.5 * (1.0 + float(np.max(np.abs(prob.phi.values))))
        start[interior] = amp * rng.normal(size=int(interior.sum()))
        try:
            second = minimize(prob, replace(opts, initial_guess=start))
        except SolverError as err:
            raise SolverError(f"second start: {err}") from err
        eps = min(opts.uc_epsilon, 0.9 * admissible_epsilon_bound(m))
        report = verify_uc_pair(sol.u_star, second.u_star, eps, prob.phase, "gradient")
        cert, equal = uniqueness_certificate(sol.w_star, second.w_star, prob)
        sol.second_termination = second.termination
        sol.uc_certificate = report
        sol.modular_distance = report.gap_value
        sol.uniqueness_gap = cert
        sol.gradients_equal = equal
    return sol
