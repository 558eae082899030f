"""Span tracer installed from outside the library, by name.

Each target is a ``"<module>.<name>"`` or ``"<module>.<Class>.<method>"`` of
the ``doublephase`` package.  A function is replaced in *every* package
module that bound it (``gradient_values`` is imported into ``solver``,
``modular`` and ``convexity``), so call sites see the wrapper whichever
namespace they look it up in.  A target missing at some commit is recorded
as absent instead of failing, so the same benchmark measures a later
refactor unedited.

Spans nest through a stack.  Per-iteration calls are aggregated into
calls / total / self seconds per (name, parent name), which bounds memory;
stage-level calls (``STAGES``) are also kept as full spans with their parent
span and the benchmark operation that caused them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "doublephase"

TARGETS = (
    "mesh.gradient_values",
    "mesh.gradient_adjoint",
    "mesh.cell_average_values",
    "exprparse.sample",
    "phase.PhaseStructure.h_of",
    "phase.PhaseStructure.flux_coefficient",
    "modular.modular_value",
    "modular._luxemburg",
    "modular.luxemburg_norm",
    "modular.estimate_dual_bound",
    "convexity.verify_uc_pair",
    "convexity.sweep_uc_pairs",
    "convexity.sweep_two_point",
    "convexity.sweep_monotonicity",
    "solver._modular_step_delta",
    "solver.minimize",
    "solver.weak_residual",
    "solver.uniqueness_certificate",
    "solver.solve_weak",
    "cli.parse_config",
    "cli.build_problem",
    "cli._write_report",
    "cli._write_solution_csv",
    "cli.main",
)

# Calls kept as full spans: few per operation, each a stage of the pipeline.
STAGES = frozenset(
    {
        "modular.estimate_dual_bound",
        "convexity.verify_uc_pair",
        "convexity.sweep_uc_pairs",
        "convexity.sweep_two_point",
        "convexity.sweep_monotonicity",
        "solver.minimize",
        "solver.weak_residual",
        "solver.uniqueness_certificate",
        "solver.solve_weak",
        "cli.parse_config",
        "cli.build_problem",
        "cli._write_report",
        "cli._write_solution_csv",
        "cli.main",
    }
)


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, child_seconds, span_id]
        self.op = ""
        self.reset()

    def reset(self):
        """Drop everything recorded so far; keeps the wrappers installed."""
        self.aggregate: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.spans: list[dict] = []

    # -- installation -------------------------------------------------------

    def install(self):
        for target in TARGETS:
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            # phase.PhaseStructure.h_of is reported as phase.h_of
            wrapper = self._wrap(f"{module_name}.{path[-1]}", original)
            if len(path) > 1:  # a method: patch the class attribute only
                self._patch(owner, path[-1], wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._stack
        stage = name in STAGES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans) if stage else None
            if stage:
                self.spans.append(None)  # reserve the id; filled on exit
            frame = [name, 0.0, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else "")
                entry = self.aggregate.get(key)
                if entry is None:
                    entry = self.aggregate[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stage:
                    self.spans[span_id] = {
                        "id": span_id,
                        "parent": self._stage_parent(),
                        "op": self.op,
                        "name": name,
                        "start": start,
                        "end": end,
                        "iterations": getattr(result, "iterations", None),
                    }

        return wrapper

    def _stage_parent(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- queries ------------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(
            v[0]
            for (n, p), v in self.aggregate.items()
            if n == name and (parent is None or p == parent)
        )

    def total_s(self, name: str) -> float:
        # outermost calls only, so a function reached through itself counts once
        return sum(v[1] for (n, p), v in self.aggregate.items() if n == name and p != name)

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.aggregate.items() if n == name)

    def minimize_starts(self) -> dict[str, list[dict]]:
        """Classify ``solver.minimize`` spans by their role in ``solve_weak``.

        Under one ``solve_weak`` span, two minimize children are the first
        and the second start of the two-start check; a lone child (or a call
        outside ``solve_weak``) is a single start.
        """
        starts: dict[str, list[dict]] = {"first": [], "second": [], "single": []}
        children: dict[object, list[dict]] = {}
        for span in self.spans:
            if span is not None and span["name"] == "solver.minimize":
                children.setdefault(span["parent"], []).append(span)
        for parent, group in children.items():
            is_solve = parent is not None and self.spans[parent]["name"] == "solver.solve_weak"
            if is_solve and len(group) == 2:
                starts["first"].append(group[0])
                starts["second"].append(group[1])
            else:
                starts["single"].extend(group)
        return starts

    def deterministic_counts(self) -> dict:
        """Call counts and iteration counts, which must repeat exactly."""
        counts = {f"{n}<{p}": v[0] for (n, p), v in sorted(self.aggregate.items())}
        counts["iterations"] = [s["iterations"] for s in self.spans if s and s["iterations"] is not None]
        return counts

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "aggregate": [
                {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.aggregate.items())
            ],
            "spans": [s for s in self.spans if s is not None],
        }
