"""The names and settings the benchmark under ``bench/`` relies on.

The benchmark is read, never edited, here: a refactor that renames a traced
function or drops a solver option the workloads pin fails these tests
instead of showing up only as absent trace targets or a failed run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from doublephase import cli
from doublephase.solver import SolverOptions

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    module_name = f"_bench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.mark.parametrize("target", _load("tracer").TARGETS)
def test_trace_target_resolves_to_a_callable(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"{_load('tracer').PACKAGE}.{module_name}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


def test_pinned_cli_solver_settings_parse():
    config = {
        "domain": {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]], "resolution": [4, 4]},
        "phase": _load("workloads").PHASE_2D,
        "solver": _load("workloads").CLI_SOLVER,
    }
    parsed = cli.parse_config(json.dumps(config))
    assert isinstance(cli.solver_options(parsed), SolverOptions)


def test_every_workload_sets_up(tmp_path):
    # setup only, no operation runs: it builds the inputs, through the CLI's
    # config builders by name for the CLI workloads
    workloads = _load("workloads").WORKLOADS
    assert set(workloads) == {"solve-1d", "cli-solve-2d", "verify-sweeps"}
    for name, setup in workloads.items():
        assert setup(0, tmp_path), name


def test_pinned_library_options_build():
    assert isinstance(_load("workloads")._options(1e-6, True), SolverOptions)


def test_micro_timings_call_every_layer(monkeypatch):
    # micro.py reports a call its layer no longer accepts as absent, with no
    # error: each call runs once here, on tiny grids, and none may be absent
    micro = _load("micro")

    def once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(micro, "SIZES", {"n16": (1, [16]), "4x4": (2, [4, 4])})
    monkeypatch.setattr(micro, "SWEEP_SAMPLES", 1000)
    monkeypatch.setattr(micro, "_per_call_seconds", once)
    metrics, absent = micro.micro_metrics(0)
    assert absent == []
    assert "micro.modular.luxemburg_norm.us.4x4" in metrics


def test_traced_roots_make_one_stacked_check_each():
    # bench/run.py reads modular.evals_per_norm as the modular_value calls made
    # inside modular._luxemburg per _luxemburg call: the probes of a dual-bound
    # stack that the sandwich cannot rule out are rooted by one call and
    # checked by one stacked modular_value.  With no extra field the first of
    # the 3 stacks of 32 probes roots its rows, and one later stack holds a
    # probe that may beat them
    from doublephase import modular
    from doublephase.mesh import ScalarField, build_grid
    from doublephase.phase import PhasePair, PhaseStructure

    grid = build_grid(1, [(0, 1)], [64])
    n = grid.n_cells
    phase = PhaseStructure(grid, np.full(n, 1.5), (PhasePair(np.full(n, 3.0), np.ones(n)),))
    f = ScalarField(grid, np.ones(grid.n_nodes))
    tr = _load("tracer").Tracer()
    tr.install()
    try:
        modular.estimate_dual_bound(f, phase, n_probes=70, seed=0)
    finally:
        tr.uninstall()
    assert tr.absent == []
    roots = tr.calls("modular._luxemburg")
    assert roots == 2
    assert tr.calls("modular.modular_value", parent="modular._luxemburg") == roots
