"""The library surface: every top-level definition is read, or kept for a named reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "doublephase"

# definitions that no other source line reads, each with the reason it stays
KEPT_UNREAD = {
    "cli.build_phase": "bench/workloads.py builds its phases with it",
    "cli.build_problem": "bench/workloads.py and the tracer's cli.build_problem stage",
    "cli.solver_options": "bench/workloads.py builds its options with it",
    "modular.rho": "tests compare the stacked and per-field modulars against it",
    "modular.l2_pairing": "tests pair f with u through it, independently of Problem.load",
    "mesh.integrate_cells": "tests check the quadrature through it",
    "exprparse.eval_at": "expression-language API: one-point evaluation",
    "exprparse.pretty": "expression-language API: parse(pretty(e)) == e",
    "convexity.partition": "the paper's regime partition, checked by tests",
    "convexity.pair_split": "the paper's gradient-gap split, checked by tests",
    "phase.growth_envelope_check": "the paper's growth hypothesis, checked by tests",
    "phase.matuszewska_index": "acceptance criterion 10",
}


def _loaded_names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _unread_definitions():
    """``module.name`` of each top-level def or class read nowhere outside its own body.

    ``__init__.py`` re-exports, which read nothing, so it is not scanned.
    """
    statements = []  # (module, top-level statement, names it reads)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            statements += [(path.stem, s, _loaded_names(s)) for s in tree.body]
    unread = set()
    for module, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            if not any(stmt.name in names for _, other, names in statements if other is not stmt):
                unread.add(f"{module}.{stmt.name}")
    return unread


def test_every_unread_definition_is_kept_for_a_reason():
    unread = _unread_definitions()
    extra = sorted(unread - KEPT_UNREAD.keys())
    assert not extra, f"read by nothing and kept for no reason: {extra}"
    stale = sorted(KEPT_UNREAD.keys() - unread)
    assert not stale, f"kept as unread, but read or gone: {stale}"
