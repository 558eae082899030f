"""``tools/mutants.py``: its table applies to the code, and only a failing test kills a row.

The mutants themselves run outside tier-1 (``python3 tools/mutants.py``);
these tests read the table and fake pytest's exit codes.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    if "_tools_mutants" not in sys.modules:
        spec = importlib.util.spec_from_file_location("_tools_mutants", ROOT / "tools" / "mutants.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["_tools_mutants"] = module
        spec.loader.exec_module(module)
    return sys.modules["_tools_mutants"]


mutants = _load_mutants()


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_row_applies_and_names_existing_killers(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.killers
    for killer in mutant.killers:
        path, name = killer.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", source, flags=re.M), killer


def _fake_pytest(monkeypatch, codes):
    """Make each pytest run exit with the next of ``codes``; return the copies it ran in."""
    codes, runs = iter(codes), []

    def run(args, cwd, **kwargs):
        runs.append({name: (Path(cwd) / name).exists() for name in ("README.md", "bench/run.py", "src", "tests")})
        return subprocess.CompletedProcess(args, next(codes))

    monkeypatch.setattr(mutants.subprocess, "run", run)
    return runs


@pytest.mark.parametrize("code,dead", [(0, False), (1, True)])
def test_only_a_failing_test_kills(monkeypatch, code, dead):
    runs = _fake_pytest(monkeypatch, [code])
    assert mutants.killed(mutants.MUTANTS[0]) is dead
    # the copy holds what the tests read besides src and tests
    assert runs == [{"README.md": True, "bench/run.py": True, "src": True, "tests": True}]


@pytest.mark.parametrize("code", [2, 3, 4, 5])
def test_an_inconclusive_run_stops_with_exit_2(monkeypatch, capsys, code):
    # 2: collection error or interrupt, 3: internal error, 4: usage error (an
    # unknown test id), 5: no tests collected.  None of them is a kill
    _fake_pytest(monkeypatch, [0, 1, code])
    assert mutants.main([]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"killed   {mutants.MUTANTS[0].name}"]
    assert f"pytest exited {code}" in err
    _fake_pytest(monkeypatch, [code])
    assert mutants.main([]) == 2


def test_killers_failing_on_the_unmutated_code_stop_with_exit_2(monkeypatch, capsys):
    _fake_pytest(monkeypatch, [1])
    assert mutants.main([]) == 2
    assert "fail on the unmutated code" in capsys.readouterr().err
