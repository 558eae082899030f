import json
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from doublephase import cli
from doublephase.cli import ConfigError, build_problem, main, parse_config
from doublephase.solver import SolverOptions


def laplace_config(n=32, **overrides):
    cfg = {
        "domain": {"dim": 1, "extents": [[0, 1]], "resolution": [n]},
        "phase": {"p": "2", "phases": [{"q": "2", "mu": "0"}]},
        "source": "pi^2 * sin(pi*x)",
        "boundary": "0",
        "solver": {
            "gradient_tolerance": 1e-9,
            "energy_tolerance": 1e-30,
            "max_iterations": 100000,
            "dual_probes": 40,
        },
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_cli(args):
    return main([str(a) for a in args])


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_json(text: str):
    """Parse a CLI payload as strict JSON: NaN and +-Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def test_parse_config_minimal():
    cfg = parse_config(json.dumps(laplace_config()))
    assert cfg.grid.n_cells == 32
    assert cfg.problem.phase.k == 1
    prob = build_problem(cfg)
    assert prob.phase.k == 1
    assert np.all(prob.phase.phases[0].mu_cells == 0.0)


def test_parse_config_rejects_unknown_key():
    bad = laplace_config()
    bad["extra"] = 1
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse_config(json.dumps(bad))
    bad2 = laplace_config()
    bad2["solver"]["typo"] = 2
    with pytest.raises(ConfigError, match="unknown key 'typo'"):
        parse_config(json.dumps(bad2))


def test_parse_config_rejects_bad_exponent():
    bad = laplace_config()
    bad["phase"]["p"] = "0.5 + x"
    with pytest.raises(ConfigError, match="must exceed 1"):
        parse_config(json.dumps(bad))


def test_parse_config_rejects_bad_expression():
    bad = laplace_config()
    bad["source"] = "foo(x)"
    with pytest.raises(ConfigError, match="unknown function"):
        parse_config(json.dumps(bad))


def test_solve_writes_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, laplace_config())
    out = tmp_path / "out"
    code = run_cli(["solve", cfg_path, "--out-dir", out])
    assert code == 0
    csv_lines = (out / "solution.csv").read_text().splitlines()
    assert csv_lines[0] == "x,u,w"
    assert len(csv_lines) == 33 + 1
    first = csv_lines[1].split(",")
    last = csv_lines[-1].split(",")
    assert float(first[1]) == 0.0 and float(last[1]) == 0.0  # zero trace
    assert float(first[2]) == 0.0 and float(last[2]) == 0.0  # w = phi at ends
    report = read_json((out / "report.json").read_text())
    assert report["results"]["converged"] is True
    assert report["results"]["residual"] <= 1e-9
    x = np.array([float(line.split(",")[0]) for line in csv_lines[1:]])
    w = np.array([float(line.split(",")[2]) for line in csv_lines[1:]])
    assert np.max(np.abs(w - np.sin(np.pi * x))) < 2e-3


def test_solve_2d_artifacts(tmp_path):
    cfg = {
        "domain": {"dim": 2, "extents": [[0, 1], [0, 1]], "resolution": [8, 8]},
        "phase": {"p": "2", "phases": [{"q": "2.5", "mu": "x*y"}]},
        "source": "1",
        "solver": {"gradient_tolerance": 1e-7, "max_iterations": 100000},
    }
    out = tmp_path / "out2d"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,u,w"
    assert len(lines) == 9 * 9 + 1
    u = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert u.reshape(9, 9)[0, 0] == 0.0 and np.any(u != 0.0)


def test_solve_nonconvergence_exit_code(tmp_path):
    # a quadratic energy is minimized by one curvature step, so the phase
    # must be non-quadratic for one step to leave the run unconverged
    cfg = laplace_config()
    cfg["phase"] = {"p": "1.5", "phases": [{"q": "3", "mu": "1"}]}
    cfg["solver"]["max_iterations"] = 1
    cfg["solver"]["gradient_tolerance"] = 1e-14
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = run_cli(["solve", cfg_path, "--out-dir", out])
    assert code == 2
    report = read_json((out / "report.json").read_text())
    assert report["results"]["converged"] is False
    assert report["results"]["iterations"] == 1


def test_solve_line_search_stop_is_certified(tmp_path):
    # a step floor above every trial step stops both starts in their first
    # search; the report still carries the termination and the certificates
    cfg = laplace_config()
    cfg["phase"] = {"p": "1.5", "phases": [{"q": "3", "mu": "x"}]}
    cfg["solver"].update(step_floor=10, two_start_check=True)
    out = tmp_path / "out"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) == 2
    results = read_json((out / "report.json").read_text())["results"]
    assert results["termination"] == "line_search"
    assert results["converged"] is False and results["iterations"] == 0
    assert results["residual"] > 0
    assert set(results["uniqueness"]) >= {"modular_distance", "certificate", "uc_verdict"}
    # the first start's iterate (zero), not the random second start's
    csv_lines = (out / "solution.csv").read_text().splitlines()
    assert csv_lines[0] == "x,u,w" and len(csv_lines) == 33 + 1
    assert all(float(line.split(",")[1]) == 0.0 for line in csv_lines[1:])


def test_solve_high_exponents_from_zero_gradient(tmp_path):
    # p = q = 30 with phi = 0: the first curvature model underflows unless scaled
    cfg = laplace_config(source="1")
    cfg["phase"] = {"p": "30", "phases": [{"q": "30", "mu": "1"}]}
    cfg["solver"] = {"gradient_tolerance": 1e-8, "dual_probes": 4}
    out = tmp_path / "out"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) == 0
    report = read_json((out / "report.json").read_text())
    assert report["results"]["termination"] == "gradient_tolerance"


def test_solve_over_memory_limit_is_a_solver_error(tmp_path, capsys, monkeypatch):
    import doublephase.mesh as mesh

    cfg = laplace_config()
    cfg["domain"] = {"dim": 2, "extents": [[0, 1], [0, 1]], "resolution": [8, 8]}
    monkeypatch.setattr(mesh, "FORM_SOLVE_MAX_BYTES", 1000)
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: curvature solve failed") and "MiB" in err


def test_solve_unwritable_path(tmp_path):
    cfg_path = write_config(tmp_path, laplace_config())
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = run_cli(["solve", cfg_path, "--out-dir", blocker / "sub"])
    assert code == 3


def test_bad_config_exit_code(tmp_path):
    cfg = laplace_config()
    cfg["phase"]["p"] = "1"
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli(["solve", cfg_path]) == 1


INF, NAN = float("inf"), float("nan")
# each side is positive, but the cell volume 2.5e-301 ** 2 underflows to 0
TINY_2D = {"dim": 2, "extents": [[0, 1e-300]] * 2, "resolution": [4, 4]}


def _with(section, key, value):
    cfg = laplace_config()
    cfg.setdefault(section, {})[key] = value
    return cfg


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("check-sandwich", _with("verify", "samples", "abc")),
        ("check-sandwich", _with("verify", "samples", -5)),
        ("check-monotone", _with("verify", "amplitude", "ten")),
        ("solve", _with("solver", "dual_bound", -1)),
        ("solve", _with("solver", "two_start_check", "no")),
        ("solve", _with("domain", "resolution", [8.7])),
        ("solve", laplace_config(source="log(x - 2)")),
        ("solve", _with("solver", "dual_probes", "abc")),
        ("solve", _with("solver", "dual_probes", 2.5)),
        ("solve", _with("solver", "dual_probes", -5)),
        ("solve", _with("solver", "uc_epsilon", "x")),
        ("solve", _with("solver", "uc_epsilon", -1)),
        ("solve", _with("solver", "max_iterations", 2.5)),
        ("solve", laplace_config(seed=True)),
        ("solve", _with("phase", "phases", [{"q": "2", "mu": "sin(1e200*1e200)"}])),
        ("solve", laplace_config(source="cos(1e200*1e200)")),
        ("solve", _with("solver", "gradient_tolerance", INF)),
        ("solve", _with("solver", "gradient_tolerance", NAN)),
        ("solve", _with("solver", "energy_tolerance", INF)),
        ("solve", _with("solver", "energy_tolerance", True)),
        ("solve", _with("solver", "initial_step", NAN)),
        ("solve", _with("solver", "step_floor", INF)),
        ("solve", _with("solver", "dual_bound", NAN)),
        ("solve", _with("solver", "dual_bound", INF)),
        ("solve", _with("solver", "uc_epsilon", INF)),
        ("check-monotone", _with("verify", "exponent_max", 0.5)),
        ("check-inequalities", _with("verify", "exponent_max", INF)),
        ("check-monotone", _with("verify", "amplitude", -3)),
        ("check-monotone", _with("verify", "amplitude", NAN)),
        ("check-inequalities", _with("verify", "amplitude", 1e308)),
        ("solve", _with("output", "dir", 5)),
        ("solve", laplace_config(seed=-1)),
        ("check-monotone", laplace_config(seed=-1)),
        ("verify-uc --seed -2", laplace_config()),
        ("solve", _with("domain", "dim", 1.5)),
        ("solve", _with("domain", "dim", True)),
        ("solve", _with("domain", "dim", "1")),
        ("solve", _with("domain", "extents", [["0", "1"]])),
        ("solve", _with("domain", "extents", [[False, 1]])),
        ("solve", _with("domain", "resolution", ["8"])),
        ("solve", _with("domain", "extents", [[-1e308, 1e308]])),
        ("solve", laplace_config(domain=TINY_2D)),
        ("norm --field x", laplace_config(domain=TINY_2D)),
        ("solve", laplace_config(phase=5)),
        ("solve", [laplace_config()]),
        ("solve", laplace_config(domain={"dim": 1, "extents": [[0, 1]]})),
        ("solve", _with("phase", "p", 1.5)),
        ("solve", '{"domain": {"dim": 1,'),
        ("solve", _with("phase", "phases", [])),
        ("verify-uc", _with("verify", "epsilon", "abc")),
        ("solve", _with("solver", "armijo_constant", 1.5)),
        ("solve", _with("solver", "shrink_factor", 0)),
        ("solve", _with("solver", "method", "newton")),
        ("check-monotone", _with("solver", "max_iterations", 0)),
        ("check-inequalities", _with("phase", "p", "0.5 + x")),
        ("verify-uc", laplace_config(source="log(x - 2)")),
        ("norm --field x", _with("verify", "epsilon", 5)),
        ("solve", _with("verify", "epsilon", 5)),
    ],
    ids=["samples-text", "samples-negative", "amplitude-text", "dual-bound-negative",
         "two-start-text", "resolution-fractional", "source-eval-error",
         "dual-probes-text", "dual-probes-fractional", "dual-probes-negative",
         "uc-epsilon-text", "uc-epsilon-negative", "max-iterations-fractional",
         "seed-bool", "mu-sin-of-inf", "source-cos-of-inf",
         "gradient-tolerance-inf", "gradient-tolerance-nan", "energy-tolerance-inf",
         "energy-tolerance-bool", "initial-step-nan", "step-floor-inf",
         "dual-bound-nan", "dual-bound-inf", "uc-epsilon-inf", "exponent-max-below-1", "exponent-max-inf",
         "amplitude-negative", "amplitude-nan", "amplitude-double-overflows",
         "output-dir-int", "seed-negative", "seed-negative-check-monotone",
         "seed-flag-negative-verify-uc", "dim-fractional", "dim-bool", "dim-text",
         "extents-text", "extents-bool", "resolution-text", "extents-width-overflows",
         "cell-volume-underflows", "cell-volume-underflows-norm", "phase-number",
         "top-level-array", "resolution-missing", "p-number", "json-invalid", "phases-empty",
         "epsilon-text", "armijo-constant-above-1", "shrink-factor-0", "method-unknown",
         "max-iterations-0-check-monotone", "p-below-1-check-inequalities",
         "source-eval-error-verify-uc", "epsilon-out-of-range-norm",
         "epsilon-out-of-range-solve"],
)
def test_config_holes_exit_1(tmp_path, capsys, command, cfg):
    command, *flags = command.split()
    # text that is not JSON goes in inline, where the config path would be
    cfg_path = cfg if isinstance(cfg, str) else write_config(tmp_path, cfg)
    assert run_cli([command, cfg_path, *flags, "--out-dir", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "command,flags,path,cfg",
    [
        ("solve", [], "source", laplace_config(source="log(x - 2)")),
        ("norm", ["--field", "log(x - 2)"], "--field", laplace_config()),
    ],
    ids=["source", "field"],
)
def test_evaluation_errors_name_their_path(tmp_path, capsys, command, flags, path, cfg):
    assert run_cli([command, write_config(tmp_path, cfg), *flags, "--out-dir", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: log of non-positive value")


@pytest.mark.parametrize(
    "args,code",
    [
        (["solve"], 1),
        (["norm", "{cfg}", "--field", "x", "--kind", "bogus"], 1),
        (["solve", "{cfg}", "--seed", "abc"], 1),
        (["--help"], 0),
        (["solve", "--help"], 0),
    ],
    ids=["missing-config", "kind-bogus", "seed-text", "help", "solve-help"],
)
def test_usage_errors_exit_1_and_help_0(tmp_path, capsys, args, code):
    cfg_path = write_config(tmp_path, laplace_config(n=8))
    assert main([a.format(cfg=cfg_path) for a in args]) == code
    captured = capsys.readouterr()
    assert "usage: doublephase" in captured.out + captured.err


@pytest.mark.parametrize(
    "p,dual_bound", [("2", 1e308), ("1.01", 1e4)], ids=["huge-bound", "p-near-1"]
)
def test_overflowed_energy_floor_is_written_as_null(tmp_path, p, dual_bound):
    cfg = laplace_config(n=8)
    cfg["phase"]["p"] = p
    cfg["solver"].update(dual_bound=dual_bound, max_iterations=50)
    out = tmp_path / "out"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) in (0, 2)
    results = read_json((out / "report.json").read_text())["results"]
    assert results["lower_bound"] is None
    # a floor of -inf bounds nothing, so nothing is satisfied
    assert results["lower_bound_satisfied"] is None
    assert results["dual_bound"] == dual_bound


# the seeded second start has gradients ~1e5 on cells 6.25e-6 wide, whose 60th
# powers overflow its starting energy: the descent stops there, as it does on a
# non-finite energy at any later iterate
def test_non_finite_results_are_written_as_null(tmp_path, capsys):
    cfg = laplace_config(
        domain={"dim": 2, "extents": [[0, 1e-4]] * 2, "resolution": [16, 16]},
        phase={"p": "1.5", "phases": [{"q": "60", "mu": "1"}]},
        source="1",
        solver={"two_start_check": True, "dual_probes": 20},
    )
    out = tmp_path / "out"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) == 2
    assert capsys.readouterr().err == "solver error: non-finite energy at iteration 0\n"


# a dual-bound probe's squared gradients overflow (1D cells 6.25e-157 wide,
# 2D 2.5e-155), the cell volume 6.25e-312 is subnormal, or a sweep field's
# squared gradients overflow: the Luxemburg root leaves the float range
@pytest.mark.parametrize(
    "command,domain",
    [
        ("solve", {"dim": 1, "extents": [[0, 1e-155]], "resolution": [16]}),
        ("solve", {"dim": 2, "extents": [[0, 1e-154]] * 2, "resolution": [4, 4]}),
        ("norm --field x", {"dim": 2, "extents": [[0, 1e-155]] * 2, "resolution": [4, 4]}),
        ("check-sandwich", {"dim": 1, "extents": [[0, 1e-150]], "resolution": [16]}),
    ],
    ids=["solve-1d-probe-overflow", "solve-2d-probe-overflow", "norm-subnormal-volume",
         "sandwich-field-overflow"],
)
def test_out_of_range_norms_exit_2(tmp_path, capsys, command, domain):
    command, *flags = command.split()
    cfg = laplace_config(domain=domain, verify={"samples": 20})
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli([command, cfg_path, *flags, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("solver error: luxemburg norm out of float range")


# 1e200 sin(pi x): its zero-order norm lies past the largest float at p near
# 1 and mu = 1e150, and its squared gradients overflow at p = 1.5, q = 3
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "kind,phase,what",
    [
        ("zero_order", {"p": "1.01", "phases": [{"q": "1.0001", "mu": "1e150"}]}, "norm inf"),
        ("gradient", {"p": "1.5", "phases": [{"q": "3", "mu": "1"}]}, "magnitude inf"),
    ],
    ids=["norm-overflow", "magnitude-overflow"],
)
def test_norms_past_the_float_range_are_one_solver_error(tmp_path, capsys, kind, phase, what):
    cfg_path = write_config(tmp_path, laplace_config(n=16, phase=phase))
    args = ["norm", cfg_path, "--field", "1e200*sin(pi*x)", "--kind", kind]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"solver error: luxemburg norm out of float range: {what}\n"


DOUBLE_PHASE = {"p": "1.5", "phases": [{"q": "3", "mu": "1"}]}


# a field at either end of the float range, under one rule: 1e-315 x has a
# subnormal top magnitude and fails its unit-modular check, 1e-310 x is
# subnormal and passes it, and the constant 1e6 on cells 6.25e298 wide
# overflows the modular's cell-volume scaling, which now reads inf silently
def test_norms_at_the_ends_of_the_float_range(tmp_path, capsys):
    args = ["norm", write_config(tmp_path, laplace_config(n=16, phase=DOUBLE_PHASE)), "--kind",
            "zero_order", "--field"]
    assert run_cli(args + ["1e-315*x"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("solver error: luxemburg norm out of float range: residual")
    assert run_cli(args + ["1e-310*x"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and read_json(out)["kinds"]["zero_order"]["luxemburg_norm"] == 5.880555637492e-311
    wide = laplace_config(
        phase=DOUBLE_PHASE, domain={"dim": 1, "extents": [[0, 1e300]], "resolution": [16]}
    )
    assert run_cli(["norm", write_config(tmp_path, wide), "--kind", "zero_order", "--field", "1e6"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert read_json(out)["kinds"]["zero_order"] == {
        "luxemburg_norm": 7.631428283689069e205,
        "modular": None,
        "sandwich_holds": None,
        "sandwich_lower": None,
        "sandwich_upper": None,
    }


# cells 2.5e-159 wide: the sweep's gradients overflow to inf, and a vanishing
# weight adds 0 to the modular there (it used to add 0 * inf = NaN, which
# failed all 40 gradient and sobolev pairs); the pairs read vacuous instead
def test_overflowed_uc_pairs_with_a_vanishing_weight_are_vacuous(tmp_path, capsys):
    cfg = laplace_config(
        domain={"dim": 1, "extents": [[0, 1e-158]], "resolution": [4]},
        phase={"p": "3", "phases": [{"q": "1.2", "mu": "0"}]},
        verify={"samples": 20},
    )
    assert run_cli(["verify-uc", write_config(tmp_path, cfg)]) == 0
    out, err = capsys.readouterr()
    tallies = read_json(out)["tallies"]
    assert err == ""
    for kind in ("gradient", "sobolev"):
        assert tallies[kind] == {"fail": 0, "pass": 0, "vacuous": 20}


# the two starts' fluxes overflow the uniqueness certificate's pairing, which
# reads inf silently, as the monotonicity sweep's rows do
def test_an_overflowed_uniqueness_pairing_is_silent(tmp_path, capsys):
    cfg = laplace_config(
        domain={"dim": 1, "extents": [[-1.4817647231145551e32, 1.4817647231145551e32]],
                "resolution": [16]},
        phase={"p": "1.01", "phases": [{"q": "60", "mu": "0"}]},
        source="0.026088789027171395",
        solver={"two_start_check": True, "max_iterations": 60, "dual_probes": 8},
        seed=3,
    )
    out = tmp_path / "out"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) == 0
    assert capsys.readouterr().err == ""
    uniqueness = read_json((out / "report.json").read_text())["results"]["uniqueness"]
    assert uniqueness["certificate"] == 5.632482511385609e178


def test_solver_keys_are_the_solver_options():
    # every solver setting has one home: a SolverOptions field
    names = {f.name for f in fields(SolverOptions)} - {"initial_guess", "seed"}
    assert set(cli._SOLVER_DEFAULTS) == names
    assert len(cli._SOLVER_DEFAULTS) == 12


def test_norm_command(tmp_path, capsys):
    cfg = laplace_config()
    cfg_path = write_config(tmp_path, cfg)
    code = run_cli(["norm", cfg_path, "--field", "1"])
    assert code == 0
    payload = read_json(capsys.readouterr().out)
    zero = payload["kinds"]["zero_order"]
    assert zero["luxemburg_norm"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert zero["modular"] == pytest.approx(0.5, rel=1e-12)
    assert payload["kinds"]["gradient"]["luxemburg_norm"] == 0.0
    assert all(payload["kinds"][k]["sandwich_holds"] for k in payload["kinds"])
    assert payload["overline_equivalent"] is True


def test_norm_computes_one_modular_per_kind(tmp_path, capsys, monkeypatch):
    # per kind of a double-phase structure: one magnitude pass serves the
    # modular, both roots and both roots' unit-modular checks
    import doublephase.modular

    roots, passes = [], []
    luxemburg, magnitude = doublephase.modular._luxemburg, doublephase.modular._magnitude

    def counting_luxemburg(*args, **kwargs):
        roots.append(args[2])
        return luxemburg(*args, **kwargs)

    def counting_magnitude(*args, **kwargs):
        passes.append(args[2])
        return magnitude(*args, **kwargs)

    monkeypatch.setattr(doublephase.modular, "_luxemburg", counting_luxemburg)
    monkeypatch.setattr(doublephase.modular, "_magnitude", counting_magnitude)
    cfg_path = write_config(tmp_path, laplace_config())
    assert run_cli(["norm", cfg_path, "--field", "x*(1 - x)"]) == 0
    assert sorted(roots) == ["gradient"] * 2 + ["sobolev"] * 2 + ["zero_order"] * 2
    assert sorted(passes) == ["gradient"] * 2 + ["zero_order"] * 2
    payload = read_json(capsys.readouterr().out)
    assert payload["kinds"]["zero_order"]["modular"] > 0


def test_norm_zero_field(tmp_path, capsys):
    cfg_path = write_config(tmp_path, laplace_config())
    assert run_cli(["norm", cfg_path, "--field", "0"]) == 0
    payload = read_json(capsys.readouterr().out)
    for k in payload["kinds"]:
        assert payload["kinds"][k]["luxemburg_norm"] == 0.0
        assert payload["kinds"][k]["modular"] == 0.0


# the modular of 1e50*x with q = 8 is 1e400 and overflows: it is reported as
# null with its sandwich, while the Luxemburg norms stay finite
@pytest.mark.parametrize("field", ["1e50*x", "1e-50*x"])
def test_norm_extreme_field_scales(tmp_path, capsys, field):
    cfg = laplace_config()
    cfg["phase"] = {"p": "2", "phases": [{"q": "8", "mu": "1"}]}
    assert run_cli(["norm", write_config(tmp_path, cfg), "--field", field]) == 0
    payload = read_json(capsys.readouterr().out)
    for entry in payload["kinds"].values():
        assert np.isfinite(entry["luxemburg_norm"]) and entry["luxemburg_norm"] > 0
        if entry["modular"] is None:
            assert entry["sandwich_lower"] is None and entry["sandwich_upper"] is None
            assert entry["sandwich_holds"] is None
        else:
            assert entry["sandwich_holds"] is True
    overflowed = [entry["modular"] is None for entry in payload["kinds"].values()]
    assert overflowed == [field == "1e50*x"] * 3


# a field with a large constant part: the roots and their unit-modular checks
# run on per-cell magnitudes, so the constant never enters a gradient of u/norm
def test_fields_with_a_large_constant_part(tmp_path, capsys):
    cfg = laplace_config(n=64, phase={"p": "1.5", "phases": [{"q": "3", "mu": "x"}]})
    cfg_path = write_config(tmp_path, cfg)
    norms = []
    for field in ("1e6 + x", "x"):
        assert run_cli(["norm", cfg_path, "--field", field]) == 0
        kinds = read_json(capsys.readouterr().out)["kinds"]
        assert all(entry["sandwich_holds"] for entry in kinds.values())
        norms.append(kinds["gradient"]["luxemburg_norm"])
    assert norms[0] == pytest.approx(norms[1], rel=1e-9)
    cfg["boundary"] = "1e8 + x"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", tmp_path / "out"]) == 0


def test_norm_on_a_small_domain_with_a_large_exponent(tmp_path, capsys):
    # the first Newton step of the Luxemburg root overshoots until w e^(-r s)
    # overflows; the iterates must stay finite
    cfg = laplace_config()
    cfg["domain"] = {"dim": 2, "extents": [[0, 1e-4], [0, 1e-4]], "resolution": [16, 16]}
    cfg["phase"] = {"p": "1.5", "phases": [{"q": "60", "mu": "1"}]}
    args = ["--field", "x*y", "--kind", "gradient"]
    assert run_cli(["norm", write_config(tmp_path, cfg), *args]) == 0
    entry = read_json(capsys.readouterr().out)["kinds"]["gradient"]
    assert np.isfinite(entry["luxemburg_norm"]) and entry["luxemburg_norm"] > 0
    assert entry["sandwich_holds"] is True


def test_verify_uc_command(tmp_path, capsys):
    cfg = laplace_config()
    cfg["phase"] = {"p": "2 + 0.5*sin(2*pi*x)", "phases": [{"q": "1.5 + x", "mu": "x"}]}
    cfg["verify"] = {"samples": 40}
    cfg_path = write_config(tmp_path, cfg)
    code = run_cli(["verify-uc", cfg_path])
    assert code == 0
    payload = read_json(capsys.readouterr().out)
    assert payload["fails"] == 0
    total = sum(payload["tallies"]["gradient"].values())
    assert total == 40


def test_verify_uc_epsilon_out_of_range(tmp_path, capsys):
    cfg = laplace_config()
    cfg["verify"] = {"samples": 5, "epsilon": 1.5}
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli(["verify-uc", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: verify.epsilon: ")
    assert "sqrt(32/(m-1))" in err


def test_verify_uc_labels_a_bad_seed_as_the_seed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, laplace_config())
    assert run_cli(["verify-uc", cfg_path, "--seed", -2]) == 1
    err = capsys.readouterr().err
    assert err == "config error: --seed: expected a non-negative integer, got -2\n"


def test_check_monotone_and_inequalities(tmp_path, capsys):
    cfg = laplace_config()
    cfg["verify"] = {"samples": 20000}
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli(["check-monotone", cfg_path]) == 0
    assert read_json(capsys.readouterr().out)["fails"] == 0
    assert run_cli(["check-inequalities", cfg_path]) == 0
    assert read_json(capsys.readouterr().out)["fails"] == 0


@pytest.mark.parametrize("command", ["check-inequalities", "check-monotone"])
@pytest.mark.parametrize("exponent_max", [1e3, 1e5])
def test_scalar_sweeps_fail_overflowed_rows(tmp_path, capsys, command, exponent_max):
    # most rows overflow at these exponents: they fail instead of passing as
    # NaN comparisons, and the report stays strict JSON
    cfg = laplace_config(seed=0)
    cfg["verify"] = {"samples": 1000, "exponent_max": exponent_max}
    assert run_cli([command, write_config(tmp_path, cfg)]) == 2
    payload = read_json(capsys.readouterr().out)
    assert payload["fails"] >= 500
    assert payload["samples"] == 1000


def test_check_sandwich(tmp_path, capsys):
    cfg = laplace_config()
    cfg["phase"] = {"p": "1.5 + x", "phases": [{"q": "3", "mu": "2*x"}]}
    cfg["verify"] = {"samples": 25}
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli(["check-sandwich", cfg_path]) == 0
    assert read_json(capsys.readouterr().out)["fails"] == 0


def test_check_sandwich_passes_samples_whose_modular_overflows(tmp_path, capsys):
    # as `norm` writes null for such a sandwich, the sweep counts no failure
    cfg = laplace_config(domain={"dim": 1, "extents": [[0, 1e-100]], "resolution": [16]})
    cfg["phase"] = {"p": "1.5", "phases": [{"q": "3", "mu": "1"}]}
    cfg["verify"] = {"samples": 20}
    del cfg["seed"]
    assert run_cli(["check-sandwich", write_config(tmp_path, cfg)]) == 0
    assert read_json(capsys.readouterr().out)["fails"] == 0


def _strip_timing(text: str) -> str:
    payload = read_json(text)
    payload.pop("timing_seconds", None)
    return json.dumps(payload, sort_keys=True)


def test_reports_reproducible(tmp_path):
    cfg = laplace_config(n=16)
    cfg["verify"] = {"samples": 10}
    cfg_path = write_config(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["solve", cfg_path, "--out-dir", out]) == 0
        outs.append(out)
    r1 = _strip_timing((outs[0] / "report.json").read_text())
    r2 = _strip_timing((outs[1] / "report.json").read_text())
    assert r1 == r2
    assert (outs[0] / "solution.csv").read_bytes() == (outs[1] / "solution.csv").read_bytes()


def test_seed_flag_overrides(tmp_path):
    cfg_path = write_config(tmp_path, laplace_config(n=16))
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert run_cli(["solve", cfg_path, "--out-dir", out1, "--seed", 99]) == 0
    assert run_cli(["solve", cfg_path, "--out-dir", out2, "--seed", 99]) == 0
    assert _strip_timing((out1 / "report.json").read_text()) == _strip_timing(
        (out2 / "report.json").read_text()
    )
    r = read_json((out1 / "report.json").read_text())
    assert r["seed"] == 99


def test_module_entry_point(tmp_path):
    cfg_path = write_config(tmp_path, laplace_config(n=8))
    proc = subprocess.run(
        [sys.executable, "-m", "doublephase", "norm", str(cfg_path), "--field", "x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = read_json(proc.stdout)
    assert payload["kinds"]["gradient"]["luxemburg_norm"] > 0
    usage = subprocess.run(
        [sys.executable, "-m", "doublephase", "solve"], capture_output=True, text=True
    )
    assert usage.returncode == 1
    assert "the following arguments are required: config" in usage.stderr


def test_solve_where_a_large_exponent_weight_vanishes(tmp_path):
    # mu = 0 on x > 0.5, where the boundary datum is steep: 0 * t^200 used to
    # read NaN there and stopped the first line search
    cfg = laplace_config(
        n=64,
        phase={"p": "1.5", "phases": [{"q": "200", "mu": "max(0, 0.5 - x)"}]},
        source="1",
        boundary="2000*max(0, x - 0.5)",
        solver={"gradient_tolerance": 1e-6},
    )
    out = tmp_path / "out"
    assert run_cli(["solve", write_config(tmp_path, cfg), "--out-dir", out]) == 0
    results = read_json((out / "report.json").read_text())["results"]
    assert results["converged"] is True and results["iterations"] > 0
    assert results["termination"] in ("gradient_tolerance", "energy_tolerance")
    assert math.isfinite(results["energy"]) and results["residual"] < 1e-5


def test_norm_where_a_large_exponent_weight_vanishes(tmp_path, capsys):
    # mu = 0: the gradient modular is |100|^1.5 / 1.5, not 0 * 100^200
    cfg = laplace_config(n=16, phase={"p": "1.5", "phases": [{"q": "200", "mu": "0"}]})
    assert run_cli(["norm", write_config(tmp_path, cfg), "--field", "100*x"]) == 0
    gradient = read_json(capsys.readouterr().out)["kinds"]["gradient"]
    assert gradient["modular"] == pytest.approx(1000.0 / 1.5, rel=1e-12)
    assert gradient["sandwich_holds"] is True


def test_check_sandwich_where_the_modular_underflows(tmp_path, capsys):
    # p = q = 300: t^300 underflows for the sweep's small fields, so a sample's
    # modular is 0.0 or subnormal and bounds nothing; 34 of these 500 samples
    # failed when such a sandwich was checked, though every norm is right
    phase = {"p": "300", "phases": [{"q": "300", "mu": "1"}]}
    cfg = laplace_config(n=16, phase=phase, verify={"samples": 500}, seed=0)
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli(["check-sandwich", cfg_path]) == 0
    assert read_json(capsys.readouterr().out)["fails"] == 0
    assert run_cli(["norm", cfg_path, "--field", "0.01*sin(pi*x)"]) == 0
    for entry in read_json(capsys.readouterr().out)["kinds"].values():
        assert entry["modular"] == 0.0 and entry["luxemburg_norm"] > 0.0
        assert entry["sandwich_holds"] is None


def test_solve_where_the_line_search_slope_overflows(tmp_path, capsys):
    # f = 1e300: the first direction's pairings with g and with the load
    # overflow; the non-finite energy is a solver error, without a warning
    cfg = laplace_config(
        n=16, phase={"p": "1.5", "phases": [{"q": "3", "mu": "x"}]}, source="1e300"
    )
    cfg_path = write_config(tmp_path, cfg)
    assert run_cli(["solve", cfg_path, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "solver error: non-finite energy at iteration 1\n"


def edge_config(**overrides):
    cfg = {
        "domain": {"dim": 1, "extents": [[0, 1]], "resolution": [16]},
        "phase": {"p": "1.5", "phases": [{"q": "3", "mu": "x"}]},
        "source": "1",
        "verify": {"samples": 100},
    }
    cfg.update(overrides)
    return cfg


EDGE_COMMANDS = (
    ("solve",),
    ("norm", "--field", "sin(pi*x)"),
    ("verify-uc",),
    ("check-monotone",),
    ("check-inequalities",),
    ("check-sandwich",),
)


# odd but valid configs through every command: each exits 0 unless it has a
# reason to exit 2 (listed), and says nothing on stderr but a solver error;
# a RuntimeWarning is an error under pytest
@pytest.mark.parametrize(
    "cfg,exit_2",
    [
        (edge_config(phase={"p": "300", "phases": [{"q": "300", "mu": "1"}]}), ()),
        # the energy of the first step overflows
        (edge_config(source="1e300"), ("solve",)),
        (
            edge_config(
                phase={"p": "1.5", "phases": [{"q": "3", "mu": "x"}, {"q": "4", "mu": "1"}]}
            ),
            (),
        ),
        (edge_config(domain={"dim": 2, "extents": [[0, 1], [0, 1]], "resolution": [3, 17]}), ()),
        (edge_config(domain={"dim": 1, "extents": [[0, 1]], "resolution": [2]}), ()),
        (edge_config(phase={"p": "1.5", "phases": [{"q": "200", "mu": "0"}]}), ()),
        # rows whose sides overflow count as fails
        (
            edge_config(verify={"samples": 100, "amplitude": 1e150}),
            ("check-monotone", "check-inequalities"),
        ),
    ],
    ids=["p-q-300", "source-1e300", "two-phases", "2d-3x17", "resolution-2", "mu-0-q-200",
         "amplitude-1e150"],
)
def test_edge_configs_through_every_command(tmp_path, capsys, cfg, exit_2):
    cfg_path = write_config(tmp_path, cfg)
    for command, *flags in EDGE_COMMANDS:
        code = run_cli([command, cfg_path, *flags, "--out-dir", tmp_path / command])
        assert code == (2 if command in exit_2 else 0), command
        err = capsys.readouterr().err
        solver_error = err.startswith("solver error:") and err.count("\n") == 1
        assert err == "" or (code == 2 and solver_error), command
