"""``tools/fuzz.py``: a fixed seed and budget of random configs keep the CLI's contract.

The full sweep (``python3 tools/fuzz.py``, 1,440 runs) runs outside tier-1;
this one runs 420 (70 configs through six commands, twice each) in a few seconds.
"""

import importlib.util
import json
import re
import sys
import time
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_fuzz():
    if "_tools_fuzz" not in sys.modules:
        spec = importlib.util.spec_from_file_location("_tools_fuzz", ROOT / "tools" / "fuzz.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["_tools_fuzz"] = module
        spec.loader.exec_module(module)
    return sys.modules["_tools_fuzz"]


fuzz = _load_fuzz()

# findings that stand at this seed, each logged with its config in CHANGES.md;
# a change that mends one removes it here
KNOWN = set()


def test_a_fixed_seed_keeps_the_cli_contract():
    findings, tally = fuzz.fuzz(0, 70)
    assert {re.sub(r" \(\S+:\d+\)$", "", f) for f in findings} == KNOWN
    assert sum(tally.values()) == 420 and set(tally) <= {"0", "1", "2", "3"}


def _raises(argv):
    raise ValueError("boom")


def _warns(argv):
    warnings.warn("boom", RuntimeWarning)
    return 0


def _prints_nan(argv):
    print('{"value": NaN}')
    return 0


def _drifts(argv):
    print(time.perf_counter_ns())
    return 0


@pytest.mark.parametrize(
    "fake,finding",
    [
        (lambda argv: 5, "exit code 5"),
        (lambda argv: True, "exit code True"),
        (_raises, "exception ValueError: boom"),
        (_warns, "RuntimeWarning: boom"),
        (_prints_nan, "stdout is not strict JSON"),
        (_drifts, "a second run gave different bytes"),
    ],
    ids=["exit-5", "exit-bool", "exception", "warning", "nan", "drift"],
)
def test_each_broken_promise_is_a_finding(monkeypatch, fake, finding):
    monkeypatch.setattr(fuzz.cli, "main", fake)
    findings, _ = fuzz.fuzz(0, 1)
    assert len(findings) == len(fuzz.COMMANDS)
    assert all(finding in f for f in findings)


def _dump_line(config, command, code=0, stderr="", stdout="", **results):
    report = {"command": command, "results": results} if results else None
    return json.dumps({"config": config, "command": command, "code": code, "stderr": stderr,
                       "stdout": stdout, "report": report, "csv_sha256": None, "broken": []})


def test_diff_prints_each_run_whose_outcome_changed(tmp_path, capsys):
    old = [
        _dump_line(0, "solve", 2, termination="max_iterations", residual=0.086, energy=-1.0),
        _dump_line(0, "norm", stdout="{}"),
        _dump_line(1, "solve", 0, termination="energy_tolerance", residual=1e-7),
        _dump_line(1, "norm", stderr="solver error: x\n"),
        _dump_line(2, "check-sandwich", 2),
    ]
    new = [
        # the energy and stdout are not compared
        _dump_line(0, "solve", 0, termination="energy_tolerance", residual=1e-7, energy=-2.0),
        _dump_line(0, "norm", stdout='{"a": 1}'),
        _dump_line(1, "solve", 0, termination="energy_tolerance", residual=3e-7),
        _dump_line(1, "norm", 2, stderr="solver error: y\n"),
        _dump_line(3, "check-sandwich", 2),
    ]
    paths = [tmp_path / "old.jsonl", tmp_path / "new.jsonl"]
    for path, lines in zip(paths, (old, new)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert fuzz.main(["--diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "config 0 solve: code 2 -> 0; termination 'max_iterations' -> 'energy_tolerance'; "
        "residual 0.086 -> 1e-07",
        "config 1 norm: code 0 -> 2; stderr 'solver error: x\\n' -> 'solver error: y\\n'",
        "config 1 solve: residual 1e-07 -> 3e-07",
        "config 2 check-sandwich: only in old",
        "config 3 check-sandwich: only in new",
        "5 changed runs",
    ]
    assert fuzz.main(["--diff", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == "0 changed runs\n"
