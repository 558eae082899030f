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


def test_pinned_library_options_build():
    assert isinstance(_load("workloads")._options(1e-6, True), SolverOptions)
