"""Apply named one-line weakenings of the certificate code and check that tests kill them.

Each row of ``MUTANTS`` names a weakening: the file, the text it replaces
(which must occur exactly once), the replacement, and the tests expected to
fail on it.  Every row is applied to a fresh temporary copy of ``src`` and
``tests``, and only its tests run there.  A row whose tests still pass
survived; the script prints one line per row and exits 1 if any survived.

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
)


def tests_pass(root: Path, tests: tuple[str, ...]) -> bool:
    """Run ``tests`` in the checkout or copy at ``root``, on its own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def killed(mutant: Mutant) -> bool:
    """Apply ``mutant`` to a temporary copy and report whether its tests fail there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return not tests_pass(copy, mutant.killers)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    # a killer that fails on the unmutated code would count every mutant as killed
    if not tests_pass(ROOT, tuple(dict.fromkeys(t for m in chosen for t in m.killers))):
        print("the killing tests fail on the unmutated code", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in chosen:
        dead = killed(mutant)
        survivors += not dead
        print(f"{'killed  ' if dead else 'SURVIVED'} {mutant.name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
