"""Apply named one-line weakenings of the certificate code and check that tests kill them.

Each row of ``MUTANTS`` names a weakening: the file, the text it replaces
(which must occur exactly once), the replacement, and the tests expected to
fail on it.  Every row is applied to a fresh temporary copy of ``src``,
``tests``, ``bench`` and ``README.md``, and only its tests run there.  A row
is killed where pytest reports a failing test (exit 1) and survived where its
tests pass; the script prints one line per row and exits 1 if any survived.
Any other pytest exit (a collection error, a test id that names no test)
proves nothing about the row, so the script stops there with exit 2.

    python3 tools/mutants.py            # every row
    python3 tools/mutants.py certificate-halved

Not part of the tier-1 suite: ``testpaths`` stays ``tests``, and the killing
tests are tier-1 tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant(
        "sandwich-loosened-x2",
        "src/doublephase/modular.py",
        "holds = bool(lower * (1.0 - 1e-9) <= norm <= upper * (1.0 + 1e-9))",
        "holds = bool(0.5 * lower * (1.0 - 1e-9) <= norm <= 2.0 * upper * (1.0 + 1e-9))",
        ("tests/test_modular.py::test_sandwich_fails_a_norm_off_by_half",),
    ),
    Mutant(
        "certificate-halved",
        "src/doublephase/solver.py",
        "certificate = grid.cell_volume * float(",
        "certificate = 0.5 * grid.cell_volume * float(",
        ("tests/test_solver.py::test_uniqueness_certificate_is_the_flux_pairing_at_p_equal_q_equal_2",),
    ),
    Mutant(
        "dual-bound-prune-margin-2",
        "src/doublephase/modular.py",
        "pairing <= best * lower * (1.0 - 1e-6)",
        "pairing <= best * lower * 2.0",
        ("tests/test_modular.py::test_dual_bound_roots_only_probes_that_can_win_bit_identically",),
    ),
    Mutant(
        "overline-band-x2",
        "src/doublephase/modular.py",
        "band = np.exp(1.0 / np.e) * norm",
        "band = 2.0 * np.exp(1.0 / np.e) * norm",
        ("tests/test_modular.py::test_overline_band_is_sharp",),
    ),
    Mutant(
        "overline-lower-side-halved",
        "src/doublephase/modular.py",
        "overline = bool(norm <= bar_norm + slack and",
        "overline = bool(0.5 * norm <= bar_norm + slack and",
        ("tests/test_modular.py::test_overline_band_is_sharp",),
    ),
    Mutant(
        "energy-floor-halved",
        "src/doublephase/solver.py",
        "head = _energy_floor(a, m)",
        "head = 0.5 * _energy_floor(a, m)",
        ("tests/test_solver.py::test_lower_bound_values",),
    ),
    Mutant(
        "weak-residual-x0.1",
        "src/doublephase/solver.py",
        "residual = float(np.max(np.abs(r)))",
        "residual = 0.1 * float(np.max(np.abs(r)))",
        ("tests/test_solver.py::test_weak_residual_is_the_energy_gradient_norm",),
    ),
    Mutant(
        "monotonicity-power-bound-halved",
        "src/doublephase/convexity.py",
        "return 2.0 ** (2.0 - r) * ndiff**r",
        "return 0.5 * 2.0 ** (2.0 - r) * ndiff**r",
        ("tests/test_convexity.py::test_monotonicity_tally_matches_both_bounds_rule",),
    ),
    Mutant(
        "dual-bound-factor-0.5",
        "src/doublephase/modular.py",
        "return 1.01 * best",
        "return 0.5 * best",
        ("tests/test_modular.py::test_dual_bound_matches_probe_by_probe_pairing",),
    ),
    Mutant(
        "uc-delta-x2",
        "src/doublephase/convexity.py",
        "delta = np.minimum(e / 2.0, (m - 1.0) * e * e / 32.0)",
        "delta = 2.0 * np.minimum(e / 2.0, (m - 1.0) * e * e / 32.0)",
        ("tests/test_convexity.py::test_delta_of_epsilon",),
    ),
    Mutant(
        "uc-rule-delta-halved",
        "src/doublephase/convexity.py",
        "passed = midpoint <= (1.0 - delta) * average",
        "passed = midpoint <= (1.0 - 0.5 * delta) * average",
        ("tests/test_convexity.py::test_uc_verdicts_rule",),
    ),
    Mutant(
        "two-point-correction-halved",
        "src/doublephase/convexity.py",
        "return (h - 1.0) / 2.0 ** (h + 1.0) * (2.0 * nhalf) ** 2",
        "return 0.5 * (h - 1.0) / 2.0 ** (h + 1.0) * (2.0 * nhalf) ** 2",
        ("tests/test_convexity.py::test_two_point_tally_matches_both_forms_rule",),
    ),
    Mutant(
        "two-point-rhs-x2",
        "src/doublephase/convexity.py",
        "rhs = (na**h + nb**h) / (2.0 * h)",
        "rhs = (na**h + nb**h) / h",
        ("tests/test_convexity.py::test_two_point_tally_matches_both_forms_rule",),
    ),
    Mutant(
        "grid-rule-dropped",
        "src/doublephase/mesh.py",
        "if part.grid != grid:",
        "if False:",
        ("tests/test_solver.py::test_every_entry_point_holds_a_field_to_the_phase_grid",),
    ),
    Mutant(
        "gradients-equal-tolerance-1e-2",
        "src/doublephase/solver.py",
        "gradients_equal = bool(np.max(ndiff) <= 1e-10 * grad_scale)",
        "gradients_equal = bool(np.max(ndiff) <= 1e-2 * grad_scale)",
        ("tests/test_solver.py::test_gradients_equal_is_held_to_1e_10_of_the_gradient_scale",),
    ),
    Mutant(
        "lower-bound-slack-1e-1",
        "src/doublephase/solver.py",
        "np.all(sol.energy_history >= lb - 1e-9 * (1.0 + abs(lb)))",
        "np.all(sol.energy_history >= lb - 1e-1 * (1.0 + abs(lb)))",
        ("tests/test_solver.py::test_lower_bound_satisfied_is_held_to_1e_9_of_the_floor",),
    ),
    Mutant(
        "flux-pairing-check-disabled",
        "src/doublephase/solver.py",
        "if pairing < certificate - 1e-12 * (1.0 + abs(pairing) + certificate):",
        "if False:",
        ("tests/test_solver.py::test_uniqueness_certificate_rejects_a_pairing_below_it",),
    ),
    Mutant(
        "modular-distance-halved",
        "src/doublephase/solver.py",
        "sol.modular_distance = report.gap_value",
        "sol.modular_distance = 0.5 * report.gap_value",
        ("tests/test_solver.py::test_modular_distance_is_the_gap_modular_of_the_two_starts",),
    ),
    Mutant(
        "line-search-growth-disabled",
        "src/doublephase/solver.py",
        "if s == opts.initial_step:",
        "if False:",
        ("tests/test_acceptance.py::test_line_search_grows_only_a_first_step_that_passes",),
    ),
    Mutant(
        "magnitude-rescale-dropped",
        "src/doublephase/mesh.py",
        "if t.size and not (_in_float_range(square.min()) & _in_float_range(square.max())):",
        "if False:",
        (
            "tests/test_modular.py::test_gradient_magnitudes_below_the_square_root_of_tiny_keep_their_digits",
            "tests/test_modular.py::test_gradient_magnitudes_above_the_square_root_of_max_keep_their_digits",
        ),
    ),
    Mutant(
        "non-finite-gradient-check-dropped",
        "src/doublephase/solver.py",
        'gnorm = _finite(float(np.max(np.abs(g))), "gradient", it)',
        "gnorm = float(np.max(np.abs(g)))",
        ("tests/test_cli.py::test_a_non_finite_descent_value_is_one_solver_error",),
    ),
    Mutant(
        "second-start-termination-ignored",
        "src/doublephase/solver.py",
        "sol.second_termination = second.termination",
        "sol.second_termination = None",
        ("tests/test_cli.py::test_a_two_start_solve_exits_2_unless_both_starts_converged",),
    ),
    Mutant(
        "pcg-residual-unchecked",
        "src/doublephase/solver.py",
        "if np.linalg.norm(r) <= target:",
        "if True:",
        ("tests/test_solver.py::test_pcg_direction_meets_the_forcing_term",),
    ),
    Mutant(
        "stale-factor-never-refreshed",
        "src/doublephase/solver.py",
        "            if met:",
        "            if True:",
        ("tests/test_solver.py::test_a_stale_factor_is_refactored_within_the_cap",),
    ),
    Mutant(
        "coarse-guess-dropped",
        "src/doublephase/solver.py",
        "return (guess, E_guess) if E_guess <= E else (u, E)",
        "return u, E",
        ("tests/test_solver.py::test_2d_zero_start_begins_from_the_coarse_answer",),
    ),
    Mutant(
        "coarse-tolerance-unscaled",
        "src/doublephase/solver.py",
        "coarse_gtol = gtol * coarse.grid.cell_volume / prob.grid.cell_volume",
        "coarse_gtol = gtol",
        ("tests/test_solver.py::test_coarse_levels_stop_at_the_tolerance_scaled_by_cell_volume",),
    ),
)


class Inconclusive(Exception):
    """A run that neither passed nor failed its tests, or a row that does not apply."""


def tests_fail(root: Path, tests: tuple[str, ...]) -> bool:
    """Run ``tests`` in the checkout or copy at ``root``, on its own ``src``.

    True where a test fails (pytest exit 1), False where all pass; any other
    exit raises ``Inconclusive``.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if run.returncode not in (0, 1):
        raise Inconclusive(f"pytest exited {run.returncode} on {' '.join(tests)}")
    return run.returncode == 1


def killed(mutant: Mutant) -> bool:
    """Apply ``mutant`` to a temporary copy and report whether its tests fail there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise Inconclusive(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return tests_fail(copy, mutant.killers)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    try:
        # a killer that fails on the unmutated code would count every mutant as killed
        if tests_fail(ROOT, tuple(dict.fromkeys(t for m in chosen for t in m.killers))):
            print("the killing tests fail on the unmutated code", file=sys.stderr)
            return 2
        survivors = 0
        for mutant in chosen:
            dead = killed(mutant)
            survivors += not dead
            print(f"{'killed  ' if dead else 'SURVIVED'} {mutant.name}")
    except Inconclusive as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
