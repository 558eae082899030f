"""Configuration ingestion, subcommand dispatch, and artifact emission.

One JSON config drives every subcommand; expressions for the exponents,
weights, source, and boundary datum are strings in the expression language
of :mod:`doublephase.exprparse`.  ``parse_config`` checks the whole config
and builds the problem and solver options once; every command reads them.
Reports are emitted as pretty-printed JSON with sorted keys so identical
configs and seeds reproduce byte-identical files apart from the
``timing_seconds`` entry.

Every check a command reports is computed by the library.

Exit codes: 0 success, 1 usage or config error, 2 non-convergence or failed
verification, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import delta_of_epsilon, sweep_monotonicity, sweep_two_point, sweep_uc_pairs
from .exprparse import EvalError, ParseError, parse, sample
from .mesh import Grid, ScalarField, _is_finite, _is_number, build_grid
from .modular import KINDS, norm_report, sweep_sandwich
from .phase import PhasePair, PhaseStructure
from .solver import Problem, SolverError, SolverOptions, solve_weak


class ConfigError(Exception):
    """Configuration rejected; the message includes the offending path."""


# Every SolverOptions field except the initial guess and the seed (set at the
# config's top level).
_SOLVER_DEFAULTS = {
    f.name: f.default for f in fields(SolverOptions) if f.name not in ("initial_guess", "seed")
}

_VERIFY_DEFAULTS = {
    "samples": 500,
    "epsilon": None,
    "amplitude": 10.0,
    "exponent_max": 8.0,
}


def _require_keys(obj: dict, path: str, required, optional):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key '{key}'")


def _sample(text, path: str, grid: Grid, where: str) -> np.ndarray:
    """Sample the expression ``text`` at the grid's ``where`` points; errors name ``path``."""
    if not isinstance(text, str):
        raise ConfigError(f"{path}: expected an expression string")
    try:
        return sample(parse(text), grid, where)
    except (ParseError, EvalError) as err:
        raise ConfigError(f"{path}: {err}") from err


@dataclass(frozen=True, eq=False)
class Config:
    problem: Problem
    solver: SolverOptions
    verify: dict
    out_dir: str | None
    raw: dict

    @property
    def grid(self) -> Grid:
        return self.problem.grid


def _check_seed(seed, path: str) -> int:
    """A seed of the numpy generator: an integer >= 0."""
    if not (_is_number(seed, int) and seed >= 0):
        raise ConfigError(f"{path}: expected a non-negative integer, got {seed!r}")
    return seed


def parse_config(source: str | Path, seed: int | None = None) -> Config:
    """Check a config, from a path or a JSON string, and build everything it describes.

    Every command reads the built config, so every command rejects the same
    configs.  ``seed``, when given, overrides the config seed (``--seed``).
    """
    try:
        is_file = Path(source).exists()
    except OSError:
        is_file = False
    text = Path(source).read_text(encoding="utf-8") if is_file else str(source)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err

    _require_keys(
        raw,
        "config",
        required=("domain", "phase"),
        optional=("source", "boundary", "solver", "verify", "seed", "output"),
    )

    dom = raw["domain"]
    _require_keys(dom, "domain", required=("dim", "extents", "resolution"), optional=())
    try:
        grid = build_grid(dom["dim"], dom["extents"], dom["resolution"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"domain: {err}") from err

    ph = raw["phase"]
    _require_keys(ph, "phase", required=("p", "phases"), optional=())
    p = _sample(ph["p"], "phase.p", grid, "cells")
    if not isinstance(ph["phases"], list) or not ph["phases"]:
        raise ConfigError("phase.phases: expected a non-empty list")
    pairs = []
    for j, pair in enumerate(ph["phases"]):
        path = f"phase.phases[{j}]"
        _require_keys(pair, path, required=("q", "mu"), optional=())
        pairs.append(
            PhasePair(
                _sample(pair["q"], f"{path}.q", grid, "cells"),
                _sample(pair["mu"], f"{path}.mu", grid, "cells"),
            )
        )
    f = ScalarField(grid, _sample(raw.get("source", "0"), "source", grid, "nodes"))
    phi = ScalarField(grid, _sample(raw.get("boundary", "0"), "boundary", grid, "nodes"))
    try:
        phase = PhaseStructure(grid, p, tuple(pairs))
    except ValueError as err:
        raise ConfigError(f"phase: {err}") from err

    solver = dict(_SOLVER_DEFAULTS)
    if "solver" in raw:
        _require_keys(raw["solver"], "solver", required=(), optional=tuple(_SOLVER_DEFAULTS))
        solver.update(raw["solver"])

    verify = dict(_VERIFY_DEFAULTS)
    if "verify" in raw:
        _require_keys(raw["verify"], "verify", required=(), optional=tuple(_VERIFY_DEFAULTS))
        verify.update(raw["verify"])
    samples, eps = verify["samples"], verify["epsilon"]
    amplitude, exponent_max = verify["amplitude"], verify["exponent_max"]
    if not (_is_number(samples, int) and samples >= 1):
        raise ConfigError(f"verify.samples: expected a positive integer, got {samples!r}")
    if eps is not None:
        if not _is_number(eps):
            raise ConfigError(f"verify.epsilon: expected a number, got {eps!r}")
        try:
            delta_of_epsilon(eps, phase.summary.m)
        except ValueError as err:
            raise ConfigError(f"verify.epsilon: {err}") from err
    # the sweeps draw from [-amplitude, amplitude], whose width must be finite
    if not (_is_number(amplitude) and amplitude > 0 and math.isfinite(2 * amplitude)):
        raise ConfigError(
            f"verify.amplitude: expected a positive number with a finite double, got {amplitude!r}"
        )
    if not (_is_finite(exponent_max) and exponent_max > 1):
        raise ConfigError(
            f"verify.exponent_max: expected a finite number above 1, got {exponent_max!r}"
        )

    _check_seed(raw.get("seed", 0), "seed")
    if seed is not None:
        raw = dict(raw, seed=_check_seed(seed, "--seed"))
    seed = raw.get("seed", 0)

    out_dir = None
    if "output" in raw:
        _require_keys(raw["output"], "output", required=(), optional=("dir",))
        out_dir = raw["output"].get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"output.dir: expected a string, got {out_dir!r}")

    try:
        options = SolverOptions(**solver, seed=seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"solver: {err}") from err
    return Config(Problem(grid, phase, phi, f), options, verify, out_dir, raw)


# Kept by name: bench/workloads.py, the tracer's cli.build_problem stage and
# tests/test_bench_contract.py call them.
def build_phase(config: Config) -> PhaseStructure:
    return config.problem.phase


def build_problem(config: Config) -> Problem:
    return config.problem


def solver_options(config: Config) -> SolverOptions:
    return config.solver


def _versions() -> dict:
    return {
        "doublephase": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _json_numbers(value):
    """``value`` with every non-finite float, which JSON cannot hold, set to None (null)."""
    if isinstance(value, dict):
        return {k: _json_numbers(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_numbers(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _report(command: str, config: Config, results: dict, started: float) -> dict:
    return {
        "command": command,
        "config": config.raw,
        "results": _json_numbers(results),
        "seed": config.solver.seed,
        "timing_seconds": time.perf_counter() - started,
        "versions": _versions(),
    }


def _write_report(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_solution_csv(path: Path, grid: Grid, u: np.ndarray, w: np.ndarray):
    header = ("x", "y")[: grid.dim] + ("u", "w")
    rows = np.column_stack([grid.node_coords(), u, w]).tolist()
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def cmd_solve(config: Config, out_dir: Path) -> int:
    started = time.perf_counter()
    sol = solve_weak(config.problem, config.solver)
    results = {
        "converged": sol.converged,
        "termination": sol.termination,
        "iterations": sol.iterations,
        "energy": float(sol.energy_history[-1]),
        "energy_history": [float(v) for v in sol.energy_history],
        "residual": sol.weak_residual,
        "gradient_norm": sol.gradient_norm,
        "dual_bound": sol.dual_bound,
        "lower_bound": sol.lower_bound_used,
        "lower_bound_satisfied": sol.lower_bound_satisfied,
    }
    if sol.uc_certificate is not None:
        results["uniqueness"] = {
            "modular_distance": sol.modular_distance,
            "certificate": sol.uniqueness_gap,
            "gradients_equal": sol.gradients_equal,
            "termination": sol.second_termination,
            "uc_verdict": sol.uc_certificate.verdict,
            "uc_epsilon": sol.uc_certificate.epsilon,
            "uc_delta": sol.uc_certificate.delta,
        }
    report = _report("solve", config, results, started)
    _write_report(report, out_dir)
    _write_solution_csv(
        out_dir / "solution.csv", config.grid, sol.u_star.values, sol.w_star.values
    )
    return 0 if sol.converged else 2


def cmd_norm(config: Config, field_expr: str, kind: str | None, out_dir: Path | None) -> int:
    started = time.perf_counter()
    phase = config.problem.phase
    u = ScalarField(config.grid, _sample(field_expr, "--field", config.grid, "nodes"))
    kinds = (kind,) if kind else KINDS
    reports = [norm_report(u, phase, k) for k in kinds]
    results: dict = {"field": field_expr, "kinds": {}}
    for r in reports:
        results["kinds"][r.kind] = {
            "modular": r.modular,
            "luxemburg_norm": r.norm,
            "sandwich_lower": r.sandwich_lower,
            "sandwich_upper": r.sandwich_upper,
            "sandwich_holds": r.sandwich_holds,
        }
    if phase.k == 1:
        results["overline_equivalent"] = all(r.overline_holds for r in reports)
    _emit(_report("norm", config, results, started), out_dir)
    return 0


def _emit(report: dict, out_dir: Path | None):
    """Print the results, and write the report when an output directory is set."""
    print(json.dumps(report["results"], indent=2, sort_keys=True))
    if out_dir is not None:
        _write_report(report, out_dir)


def _sweep_uc(config: Config) -> dict:
    phase = config.problem.phase
    tallies = sweep_uc_pairs(
        phase,
        config.verify["samples"],
        config.solver.seed,
        kinds=KINDS,
        eps=config.verify["epsilon"],
    )
    fails = sum(t["fail"] for t in tallies.values())
    return {"tallies": tallies, "fails": fails, "multiphase": phase.k > 1}


def _scalar_sweep_args(config: Config) -> tuple:
    v = config.verify
    return v["samples"], config.solver.seed, float(v["exponent_max"]), float(v["amplitude"])


# verify command -> (suite name in the report, help text, sweep returning the
# results with their "fails" count).  The lambdas look the sweeps up when
# called, so a wrapper set on the module attribute takes effect.
_SUITES = {
    "verify-uc": ("uc", "uniform-convexity sweep", _sweep_uc),
    "check-monotone": (
        "monotone",
        "flux monotonicity sweep",
        lambda config: sweep_monotonicity(*_scalar_sweep_args(config)),
    ),
    "check-inequalities": (
        "inequalities",
        "two-point inequality sweep",
        lambda config: sweep_two_point(*_scalar_sweep_args(config)),
    ),
    "check-sandwich": (
        "sandwich",
        "norm-modular sandwich sweep",
        lambda config: sweep_sandwich(
            config.problem.phase, config.verify["samples"], config.solver.seed
        ),
    ),
}


def cmd_verify(config: Config, command: str, out_dir: Path | None) -> int:
    started = time.perf_counter()
    suite, _, sweep = _SUITES[command]
    results = {"suite": suite, **sweep(config)}
    _emit(_report(f"verify-{suite}", config, results, started), out_dir)
    return 0 if results["fails"] == 0 else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublephase",
        description="Double-phase Poisson solver and modular geometry verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a JSON config (or inline JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=None, help="override the output directory")

    add_common(sub.add_parser("solve", help="minimize the energy and emit the solution"))
    norm_p = sub.add_parser("norm", help="modulars and Luxemburg norms of a field")
    add_common(norm_p)
    norm_p.add_argument("--field", required=True, help="expression for the field")
    norm_p.add_argument("--kind", choices=KINDS, default=None)
    for command, (_, help_text, _) in _SUITES.items():
        add_common(sub.add_parser(command, help=help_text))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 0 after --help and 2 after printing a usage error
        return 1 if stop.code else 0
    try:
        config = parse_config(args.config, seed=args.seed)
        out_dir = args.out_dir if args.out_dir is not None else config.out_dir
        out_path = Path(out_dir) if out_dir is not None else None

        if args.command == "solve":
            return cmd_solve(config, out_path if out_path is not None else Path("."))
        if args.command == "norm":
            return cmd_norm(config, args.field, args.kind, out_path)
        return cmd_verify(config, args.command, out_path)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (SolverError, FloatingPointError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
