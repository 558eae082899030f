"""Fuzz the CLI against its own contract: seeded random configs through every command.

Each config is drawn from wide ranges: dim, extents (widths 1e-160 to
1e150), resolution, p and q (constant, affine, near 1, up to 60), mu (0, 1,
1e+-300, ``x``), source, boundary, the ``--field`` of ``norm``, and the
solver and verify keys.  Every command runs on it in-process through
``cli.main``, twice, and each run must keep five promises:

* ``main`` returns an int in {0, 1, 2, 3};
* no exception escapes;
* no ``RuntimeWarning`` is emitted;
* stdout (where not empty) and ``report.json`` are strict JSON: no NaN or Infinity;
* the second run gives the same bytes: exit code, stdout, stderr,
  ``report.json`` (``timing_seconds`` aside) and ``solution.csv``.

    python3 tools/fuzz.py                       # seed 0, 240 configs: 1,440 runs
    python3 tools/fuzz.py --seed 3 --configs 20
    python3 tools/fuzz.py --dump runs.jsonl     # one JSON line per run, for diffs
    python3 tools/fuzz.py --diff old.jsonl new.jsonl

The script prints one line per broken promise and a summary of exit codes,
and exits 1 if any promise broke.  ``--diff`` reads two ``--dump`` files
instead, prints one line per run whose exit code, ``termination``, stderr or
``report.json`` residual changed, and exits 1 if any did.  Run it with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

from doublephase import cli

COMMANDS = ("solve", "norm", "verify-uc", "check-monotone", "check-inequalities", "check-sandwich")
EXIT_CODES = (0, 1, 2, 3)


def _number(rng, low: float, high: float) -> float:
    """10^u for u uniform in [log10 low, log10 high]: a magnitude spread over decades."""
    return float(10.0 ** rng.uniform(np.log10(low), np.log10(high)))


def _exponent(rng) -> str:
    """An exponent expression: constant, affine in x, near 1, or large."""
    form = int(rng.integers(0, 4))
    if form == 0:
        return repr(round(float(rng.uniform(1.05, 8.0)), 3))
    if form == 1:
        return f"{round(float(rng.uniform(1.5, 4.0)), 3)} + 0.5*sin(x)"
    if form == 2:
        return str(rng.choice(["1.01", "1.001", "1.0001"]))
    return str(rng.choice(["20", "40", "60"]))


def draw_config(rng) -> tuple[dict, list[str]]:
    """One random config and the ``norm`` flags to run it with."""
    dim = 1 if rng.random() < 0.7 else 2
    extents, resolution = [], []
    for _ in range(dim):
        width = _number(rng, 1e-160, 1e150)
        lo = float(rng.choice([0.0, -width / 2, width]))
        extents.append([lo, lo + width])
        resolution.append(int(rng.choice([2, 4, 8, 16]) if dim == 1 else rng.choice([2, 3, 4, 8])))
    phases = [
        {"q": _exponent(rng), "mu": str(rng.choice(["0", "1", "1e300", "1e-300", "x"]))}
        for _ in range(1 if rng.random() < 0.8 else 2)
    ]
    cfg = {
        "domain": {"dim": dim, "extents": extents, "resolution": resolution},
        "phase": {"p": _exponent(rng), "phases": phases},
        "source": str(rng.choice(["0", "1", "sin(pi*x)", "1e300", "1e-300*x", repr(_number(rng, 1e-3, 1e3))])),
        "boundary": str(rng.choice(["0", "0", "x", "1e8 + x"])),
        "solver": {
            "two_start_check": bool(rng.random() < 0.5),
            "max_iterations": int(rng.choice([1, 5, 20, 60])),
            "dual_probes": int(rng.choice([0, 4, 8])),
        },
        "verify": {
            "samples": int(rng.choice([1, 5, 20])),
            "amplitude": float(rng.choice([1.0, 10.0, 1e150])),
            "exponent_max": float(rng.choice([2.0, 8.0, 60.0])),
        },
        "seed": int(rng.integers(0, 10)),
    }
    field = str(rng.choice(["x", "sin(pi*x)", "1e200*x", "1e-315*x", "1e-170*x", "1e6 + x", "1e6"]))
    flags = ["--field", field]
    if rng.random() < 0.5:
        flags += ["--kind", str(rng.choice(cli.KINDS))]
    return cfg, flags


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def run_once(config: str, command: str, flags: list[str]) -> dict:
    """Run one command in-process; return its outcome and the promises it broke."""
    out, err, broken = io.StringIO(), io.StringIO(), []
    with tempfile.TemporaryDirectory(prefix="fuzz-") as tmp:
        argv = [command, config, *(flags if command == "norm" else []), "--out-dir", tmp]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 -- an escaped exception is a finding
                    code = None
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    broken.append(f"exception {type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})")
        broken += [
            f"RuntimeWarning: {w.message} ({Path(w.filename).name}:{w.lineno})"
            for w in caught
            if issubclass(w.category, RuntimeWarning)
        ]
        if code is not None and not (type(code) is int and code in EXIT_CODES):
            broken.append(f"exit code {code!r}")
        report = None
        if out.getvalue():
            try:
                _strict_json(out.getvalue())
            except ValueError as exc:
                broken.append(f"stdout is not strict JSON: {exc}")
        report_path, csv_path = Path(tmp) / "report.json", Path(tmp) / "solution.csv"
        if report_path.exists():
            try:
                report = _strict_json(report_path.read_text(encoding="utf-8"))
                report.pop("timing_seconds", None)
            except ValueError as exc:
                broken.append(f"report.json is not strict JSON: {exc}")
        csv = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.exists() else None
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "report": report,
        "csv_sha256": csv,
        "broken": broken,
    }


def fuzz(seed: int, n_configs: int, dump=None) -> tuple[list[str], dict]:
    """Run ``n_configs`` configs of ``seed`` through every command; return (findings, exit tally)."""
    rng = np.random.default_rng(seed)
    findings, tally = [], {}
    for i in range(n_configs):
        cfg, flags = draw_config(rng)
        config = json.dumps(cfg)
        for command in COMMANDS:
            first = run_once(config, command, flags)
            again = run_once(config, command, flags)
            broken = list(first.pop("broken"))
            again.pop("broken")
            if first != again:
                broken.append("a second run gave different bytes")
            key = str(first["code"])
            tally[key] = tally.get(key, 0) + 1
            label = f"config {i} {command}"
            findings += [f"{label}: {b}" for b in dict.fromkeys(broken)]
            if dump is not None:
                record = {"config": i, "command": command, "cfg": cfg, "flags": flags, **first,
                          "broken": broken}
                dump.write(json.dumps(record, sort_keys=True) + "\n")
    return findings, tally


def _outcome(record: dict) -> dict:
    """What ``--diff`` compares of one run."""
    results = (record["report"] or {}).get("results", {})
    return {
        "code": record["code"],
        "termination": results.get("termination"),
        "stderr": record["stderr"],
        "residual": results.get("residual"),
    }


def diff(old_lines, new_lines) -> list[str]:
    """One line per run, keyed by config and command, whose outcome differs between two dumps."""
    old, new = ({(r["config"], r["command"]): _outcome(r) for r in map(json.loads, lines)}
                for lines in (old_lines, new_lines))
    changed = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        if before is None or after is None:
            what = f"only in {'new' if before is None else 'old'}"
        else:
            what = "; ".join(f"{k} {before[k]!r} -> {after[k]!r}" for k in after if before[k] != after[k])
        changed.append(f"config {key[0]} {key[1]}: {what}")
    return changed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--configs", type=int, default=240)
    parser.add_argument("--dump", type=Path, default=None, help="write one JSON line per run")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --dump files instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (path.read_text(encoding="utf-8").splitlines() for path in args.diff)
        changed = diff(old, new)
        for line in changed:
            print(line)
        print(f"{len(changed)} changed runs")
        return 1 if changed else 0
    with contextlib.ExitStack() as stack:
        dump = stack.enter_context(args.dump.open("w", encoding="utf-8")) if args.dump else None
        findings, tally = fuzz(args.seed, args.configs, dump)
    for line in findings:
        print(line)
    runs = sum(tally.values())
    codes = ", ".join(f"exit {k}: {v}" for k, v in sorted(tally.items()))
    print(f"{runs} runs ({codes}); {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
