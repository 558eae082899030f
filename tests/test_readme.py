"""The README's examples and defaults stay in step with the code."""

import argparse
import json
import re
from pathlib import Path

from doublephase import cli
from doublephase.solver import SolverOptions

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_example_runs():
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})


def test_config_schema_matches_the_defaults():
    (schema,) = [b for b in _blocks("json") if '"domain"' in b]
    config = cli.parse_config(schema)
    raw = json.loads(schema)
    assert raw["solver"] == cli._SOLVER_DEFAULTS
    assert raw["verify"] == cli._VERIFY_DEFAULTS
    assert config.solver == SolverOptions(**cli._SOLVER_DEFAULTS)
    assert config.verify == cli._VERIFY_DEFAULTS


def test_cli_lines_list_every_subcommand():
    listed = [
        line.split()[1]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("doublephase ")
    ]
    (sub,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(listed) == sorted(sub.choices)
